#include "core/instruments.hpp"

#include <string>

namespace esthera::core {

void FilterInstruments::resolve_shared(std::initializer_list<Stage> stages) {
  auto& reg = tel_->registry;
  reg.gauge("profile.mode").set(static_cast<double>(tel_->profile.mode()));
  reg.gauge("profile.unavailable")
      .set(tel_->profile.unavailable_reason().empty() ? 0.0 : 1.0);
  if (tel_->profile.enabled()) prof_ = &tel_->profile;
  for (const Stage stage : stages) {
    const auto s = static_cast<std::size_t>(stage);
    const std::string name = std::string("stage.") + StageTimers::key(stage);
    stage_hist_[s] = &reg.histogram(name);
    if (prof_ != nullptr) stage_accum_[s] = &prof_->accumulator(name);
  }
  work_.scan_sweeps = &reg.counter("work.scan_sweeps");
  work_.rng_draws = &reg.counter("work.rng_draws");
  work_.metropolis_steps = &reg.counter("work.metropolis_steps");
  work_.rejection_trials = &reg.counter("work.rejection_trials");
  steps_ = &reg.counter("steps");
}

FilterInstruments::FilterInstruments(telemetry::Telemetry* tel,
                                     const DeviceShape& shape)
    : tel_(tel), particles_(shape.particles_per_filter * shape.num_filters) {
  if (tel_ == nullptr) return;
  resolve_shared({Stage::kRand, Stage::kSampling, Stage::kLocalSort,
                  Stage::kGlobalEstimate, Stage::kExchange, Stage::kResampling});
  auto& reg = tel_->registry;
  reg.gauge("filter.num_filters").set(static_cast<double>(shape.num_filters));
  reg.gauge("filter.particles_per_filter")
      .set(static_cast<double>(shape.particles_per_filter));
  reg.gauge("rng.normals_budget").set(static_cast<double>(shape.normals_per_group));
  reg.gauge("rng.uniforms_budget")
      .set(static_cast<double>(shape.uniforms_per_group));
  // The device tallies: every kernel boundary is a global barrier, and the
  // sort network and chains run in lock-step phases.
  work_.barriers = &reg.counter("work.barriers");
  work_.lockstep_phases = &reg.counter("work.lockstep_phases");
  work_.compare_exchanges = &reg.counter("work.compare_exchanges");
  exchange_particles_ = &reg.counter("exchange.particles");
  degenerate_ = &reg.counter("resample.degenerate_groups");
  skipped_ = &reg.counter("resample.skipped_groups");
  normals_high_water_ = &reg.gauge("rng.normals_high_water");
  uniforms_high_water_ = &reg.gauge("rng.uniforms_high_water");
  pool_jobs_ = &reg.gauge("pool.jobs_executed");
  pool_indices_ = &reg.gauge("pool.indices_executed");
  pool_depth_ = &reg.gauge("pool.max_queue_depth");
  launches_ = &reg.gauge("device.launches");
  if (prof_ == nullptr) return;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const std::string base = std::string("profile.stage.") +
                             StageTimers::key(static_cast<Stage>(s)) + ".";
    prof_gauges_[s] = {&reg.gauge(base + "ipc"),
                       &reg.gauge(base + "cycles_per_particle"),
                       &reg.gauge(base + "cache_misses_per_particle"),
                       &reg.gauge(base + "cpu_ns_per_particle")};
  }
}

FilterInstruments::FilterInstruments(telemetry::Telemetry* tel,
                                     std::size_t particles)
    : tel_(tel), particles_(particles) {
  if (tel_ == nullptr) return;
  resolve_shared({Stage::kSampling, Stage::kGlobalEstimate, Stage::kResampling});
  tel_->registry.gauge("filter.particles").set(static_cast<double>(particles));
}

void FilterInstruments::publish_step(const DeviceStep& step) {
  if (tel_ == nullptr) return;
  steps_->add(1);
  exchange_particles_->add(step.exchange_particles);
  degenerate_->add(step.degenerate_groups);
  skipped_->add(step.skipped_groups);
  normals_high_water_->update_max(static_cast<double>(step.normals_used));
  uniforms_high_water_->update_max(static_cast<double>(step.uniforms_used));
  pool_jobs_->set(static_cast<double>(step.pool.jobs_executed));
  pool_indices_->set(static_cast<double>(step.pool.indices_executed));
  pool_depth_->set(static_cast<double>(step.pool.max_queue_depth));
  launches_->set(static_cast<double>(step.launches));
  if (prof_ == nullptr) return;
  // Derived per-particle profile gauges, refreshed from the lifetime
  // accumulator sums: the hardware-side complement of the stage.* time
  // histograms. Hardware-derived gauges stay 0 in software fallback
  // (task-clock-per-particle is always live).
  ++prof_steps_;
  const double particles =
      static_cast<double>(particles_) * static_cast<double>(prof_steps_);
  for (std::size_t s = 0; s < kStageCount; ++s) {
    const auto sums = stage_accum_[s]->sums();
    const ProfileGauges& g = prof_gauges_[s];
    g.cpu_ns->set(sums.task_clock_ns / particles);
    if (sums.hardware_samples > 0) {
      g.ipc->set(sums.ipc());
      g.cycles->set(sums.cycles / particles);
      g.cache_misses->set(sums.cache_misses / particles);
    }
  }
}

void FilterInstruments::publish_step(bool degenerate, bool resampled) {
  if (tel_ == nullptr) return;
  steps_->add(1);
  if (degenerate) {
    if (degenerate_ == nullptr) {
      degenerate_ = &tel_->registry.counter("resample.degenerate");
    }
    degenerate_->add(1);
  }
  if (!resampled) {
    if (skipped_ == nullptr) skipped_ = &tel_->registry.counter("resample.skipped");
    skipped_->add(1);
  }
}

}  // namespace esthera::core
