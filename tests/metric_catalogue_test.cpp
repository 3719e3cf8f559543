// The metric catalogue a filter writes into an attached Telemetry: the
// exact sets of counter, gauge and histogram names, every deterministic
// work.* total, and one stage.<key> sample per step() for each stage the
// filter runs. Instrumentation refactors must leave all of it unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/centralized_pf.hpp"
#include "core/distributed_pf.hpp"
#include "models/robot_arm.hpp"
#include "monitor/monitor.hpp"
#include "sim/ground_truth.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace esthera;
using Names = std::vector<std::string>;
using WorkTotals = std::map<std::string, std::uint64_t>;

constexpr int kSteps = 4;

const char* const kAllStages[] = {"rand",     "sampling", "local_sort",
                                  "global_estimate", "exchange", "resampling"};
const char* const kSequentialStages[] = {"sampling", "global_estimate",
                                         "resampling"};

Names sorted(Names v) {
  std::sort(v.begin(), v.end());
  return v;
}

WorkTotals work_totals(const telemetry::MetricsRegistry& reg) {
  WorkTotals out;
  for (const auto& name : reg.counter_names()) {
    if (name.rfind("work.", 0) == 0) out[name] = reg.find_counter(name)->value();
  }
  return out;
}

/// The per-particle profile gauges the distributed filter publishes for
/// every stage when the profiler samples at all (any ESTHERA_PROFILE mode
/// but off).
Names profile_stage_gauges() {
  Names out;
  for (const char* s : kAllStages) {
    for (const char* g : {"cache_misses_per_particle", "cpu_ns_per_particle",
                          "cycles_per_particle", "ipc"}) {
      out.push_back(std::string("profile.stage.") + s + "." + g);
    }
  }
  return out;
}

Names stage_names(std::span<const char* const> stages) {
  Names out;
  for (const char* s : stages) out.push_back(std::string("stage.") + s);
  return out;
}

void expect_one_sample_per_step(const telemetry::MetricsRegistry& reg,
                                std::span<const char* const> stages) {
  for (const char* s : stages) {
    const auto* h = reg.find_histogram(std::string("stage.") + s);
    ASSERT_NE(h, nullptr) << s;
    EXPECT_EQ(h->count(), static_cast<std::uint64_t>(kSteps)) << s;
  }
}

void run_distributed(core::FilterConfig cfg, telemetry::Telemetry& tel) {
  cfg.particles_per_filter = 16;
  cfg.num_filters = 8;
  cfg.seed = 17;
  cfg.telemetry = &tel;
  sim::RobotArmScenario scenario;
  scenario.reset(5);
  core::DistributedParticleFilter<models::RobotArmModel<float>> pf(
      scenario.make_model<float>(), cfg);
  std::vector<float> z, u;
  for (int k = 0; k < kSteps; ++k) {
    const auto step = scenario.advance();
    z.assign(step.z.begin(), step.z.end());
    u.assign(step.u.begin(), step.u.end());
    pf.step(z, u);
  }
}

void run_centralized(core::CentralizedOptions opts, telemetry::Telemetry& tel) {
  opts.seed = 23;
  opts.telemetry = &tel;
  sim::RobotArmScenario scenario;
  scenario.reset(5);
  core::CentralizedParticleFilter<models::RobotArmModel<double>> pf(
      scenario.make_model<double>(), 96, opts);
  for (int k = 0; k < kSteps; ++k) {
    const auto step = scenario.advance();
    pf.step(step.z, step.u);
  }
}

const Names kDistributedCounters = {
    "exchange.particles",       "resample.degenerate_groups",
    "resample.skipped_groups",  "steps",
    "work.barriers",            "work.compare_exchanges",
    "work.lockstep_phases",     "work.metropolis_steps",
    "work.rejection_trials",    "work.rng_draws",
    "work.scan_sweeps"};

Names distributed_gauges(const telemetry::Telemetry& tel) {
  Names out = {"device.launches",
               "filter.num_filters",
               "filter.particles_per_filter",
               "pool.indices_executed",
               "pool.jobs_executed",
               "pool.max_queue_depth",
               "profile.mode",
               "profile.unavailable",
               "rng.normals_budget",
               "rng.normals_high_water",
               "rng.uniforms_budget",
               "rng.uniforms_high_water"};
  if (tel.profile.enabled()) {
    for (auto& g : profile_stage_gauges()) out.push_back(g);
  }
  return sorted(out);
}

void expect_profile_accumulators(const telemetry::Telemetry& tel,
                                 std::span<const char* const> stages) {
  if (!tel.profile.enabled()) {
    EXPECT_TRUE(tel.profile.accumulator_names().empty());
    return;
  }
  EXPECT_EQ(sorted(tel.profile.accumulator_names()), sorted(stage_names(stages)));
}

TEST(MetricCatalogue, DistributedRwsRing) {
  telemetry::Telemetry tel;
  core::FilterConfig cfg;
  cfg.resample = core::ResampleAlgorithm::kRws;
  cfg.scheme = topology::ExchangeScheme::kRing;
  cfg.exchange_particles = 1;
  run_distributed(cfg, tel);
  const auto& reg = tel.registry;
  EXPECT_EQ(sorted(reg.counter_names()), kDistributedCounters);
  EXPECT_EQ(sorted(reg.gauge_names()), distributed_gauges(tel));
  EXPECT_EQ(sorted(reg.histogram_names()), sorted(stage_names(kAllStages)));
  const WorkTotals expected = {{"work.barriers", 28},
                               {"work.compare_exchanges", 2560},
                               {"work.lockstep_phases", 576},
                               {"work.metropolis_steps", 0},
                               {"work.rejection_trials", 0},
                               {"work.rng_draws", 5664},
                               {"work.scan_sweeps", 256}};
  EXPECT_EQ(work_totals(reg), expected);
  expect_one_sample_per_step(reg, kAllStages);
  expect_profile_accumulators(tel, kAllStages);
}

TEST(MetricCatalogue, DistributedAllToAllWithRoughening) {
  telemetry::Telemetry tel;
  core::FilterConfig cfg;
  cfg.scheme = topology::ExchangeScheme::kAllToAll;
  cfg.exchange_particles = 2;
  cfg.roughening_k = 0.2;
  run_distributed(cfg, tel);
  const auto& reg = tel.registry;
  EXPECT_EQ(sorted(reg.counter_names()), kDistributedCounters);
  EXPECT_EQ(sorted(reg.gauge_names()), distributed_gauges(tel));
  EXPECT_EQ(sorted(reg.histogram_names()), sorted(stage_names(kAllStages)));
  const WorkTotals expected = {{"work.barriers", 28},
                               {"work.compare_exchanges", 2560},
                               {"work.lockstep_phases", 576},
                               {"work.metropolis_steps", 0},
                               {"work.rejection_trials", 0},
                               {"work.rng_draws", 10272},
                               {"work.scan_sweeps", 256}};
  EXPECT_EQ(work_totals(reg), expected);
  expect_one_sample_per_step(reg, kAllStages);
  expect_profile_accumulators(tel, kAllStages);
}

TEST(MetricCatalogue, CentralizedVose) {
  telemetry::Telemetry tel;
  core::CentralizedOptions opts;
  opts.resample = core::ResampleAlgorithm::kVose;
  run_centralized(opts, tel);
  const auto& reg = tel.registry;
  const Names counters = {"steps", "work.metropolis_steps",
                          "work.rejection_trials", "work.rng_draws",
                          "work.scan_sweeps"};
  EXPECT_EQ(sorted(reg.counter_names()), counters);
  const Names gauges = {"filter.particles", "profile.mode",
                        "profile.unavailable"};
  EXPECT_EQ(sorted(reg.gauge_names()), gauges);
  EXPECT_EQ(sorted(reg.histogram_names()),
            sorted(stage_names(kSequentialStages)));
  const WorkTotals expected = {{"work.metropolis_steps", 0},
                               {"work.rejection_trials", 0},
                               {"work.rng_draws", 4228},
                               {"work.scan_sweeps", 0}};
  EXPECT_EQ(work_totals(reg), expected);
  expect_one_sample_per_step(reg, kSequentialStages);
  expect_profile_accumulators(tel, kSequentialStages);
}

TEST(MetricCatalogue, CentralizedMetropolisWithMonitor) {
  telemetry::Telemetry tel;
  monitor::HealthMonitor mon;
  core::CentralizedOptions opts;
  opts.resample = core::ResampleAlgorithm::kMetropolis;
  opts.monitor = &mon;
  run_centralized(opts, tel);
  const auto& reg = tel.registry;
  const Names counters = {"steps", "work.metropolis_steps",
                          "work.rejection_trials", "work.rng_draws",
                          "work.scan_sweeps"};
  EXPECT_EQ(sorted(reg.counter_names()), counters);
  const Names gauges = {"filter.particles", "profile.mode",
                        "profile.unavailable"};
  EXPECT_EQ(sorted(reg.gauge_names()), gauges);
  EXPECT_EQ(sorted(reg.histogram_names()),
            sorted(stage_names(kSequentialStages)));
  const WorkTotals expected = {{"work.metropolis_steps", 6144},
                               {"work.rejection_trials", 0},
                               {"work.rng_draws", 15748},
                               {"work.scan_sweeps", 0}};
  EXPECT_EQ(work_totals(reg), expected);
  expect_one_sample_per_step(reg, kSequentialStages);
  expect_profile_accumulators(tel, kSequentialStages);
}

}  // namespace
