// One instrumentation path for the filters. A filter owns one
// FilterInstruments, built from its nullable telemetry::Telemetry*, which
// resolves every registry metric the filter writes once, at construction:
// the stage.<key> histograms, the deterministic work.* counters, the
// per-step counters and gauges, and the profile accumulators and gauges.
// The filter's per-stage, per-step and per-kernel probes then touch cached
// pointers only; no registry lookup by name happens inside step().
//
// Each stage of a step opens exactly one StageProbe. The probe reads the
// steady clock once at entry and once at exit and records that one
// duration into the filter's own StageTimers (timers(), live with or
// without telemetry) and, when telemetry is attached, into the registry's
// stage.<key> histogram. It also opens the stage's profile::Scope, and the
// stage's trace span where the filter has one. Without telemetry a probe
// costs two clock reads and one histogram record.
//
// timers() stays per filter: one Telemetry may be shared by several
// filters, which makes the registry's stage.* histograms an aggregate.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "core/stage_timers.hpp"
#include "mcore/thread_pool.hpp"
#include "profile/profile.hpp"
#include "telemetry/telemetry.hpp"

namespace esthera::core {

/// Cached work.* registry counters: machine-independent cost proxies that
/// kernels fold their per-group tallies into, with commutative relaxed
/// adds, so the totals for one (config, seed, steps) are the same at any
/// worker count. A null pointer means "not recorded" (no telemetry, or a
/// tally this filter does not keep).
struct WorkCounters {
  telemetry::Counter* barriers = nullptr;
  telemetry::Counter* lockstep_phases = nullptr;
  telemetry::Counter* compare_exchanges = nullptr;
  telemetry::Counter* scan_sweeps = nullptr;
  telemetry::Counter* rng_draws = nullptr;
  telemetry::Counter* metropolis_steps = nullptr;
  telemetry::Counter* rejection_trials = nullptr;
};

/// Shape of a device-decomposed filter: N sub-filters of m particles and
/// the per-group sizes of its random-number buffer.
struct DeviceShape {
  std::size_t particles_per_filter = 0;
  std::size_t num_filters = 0;
  std::size_t normals_per_group = 0;
  std::size_t uniforms_per_group = 0;
};

/// What a device filter publishes once per step().
struct DeviceStep {
  std::uint64_t exchange_particles = 0;
  std::uint64_t degenerate_groups = 0;
  std::uint64_t skipped_groups = 0;
  std::size_t normals_used = 0;   ///< per-group RNG high-water marks
  std::size_t uniforms_used = 0;
  mcore::ThreadPool::Stats pool;
  std::uint64_t launches = 0;
};

/// RAII measurement of one stage of one step (see the file comment).
/// Made by FilterInstruments::probe().
class StageProbe {
 public:
  ~StageProbe() {
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start_).count();
    timers_.add(stage_, seconds);
    if (hist_ != nullptr) hist_->record(seconds);
  }

  StageProbe(const StageProbe&) = delete;
  StageProbe& operator=(const StageProbe&) = delete;

 private:
  friend class FilterInstruments;
  using Clock = std::chrono::steady_clock;

  StageProbe(StageTimers& timers, Stage stage, telemetry::LatencyHistogram* hist,
             profile::Profiler* prof, profile::StageAccum* accum,
             telemetry::TraceRecorder* trace, const char* span,
             std::size_t groups, std::uint64_t step,
             const telemetry::TraceContext* ctx)
      : timers_(timers),
        stage_(stage),
        hist_(hist),
        scope_(prof, accum),
        span_(trace, span, 0, groups, step, ctx != nullptr ? ctx->track : 0, ctx),
        start_(Clock::now()) {}

  StageTimers& timers_;
  Stage stage_;
  telemetry::LatencyHistogram* hist_;
  // The profile scope and span open before the clock starts and close
  // after it stops, so the stage time holds the stage's work only.
  profile::Scope scope_;
  telemetry::ScopedSpan span_;
  Clock::time_point start_;
};

/// A filter's instruments: its StageTimers plus every registry metric it
/// writes, resolved once (see the file comment).
class FilterInstruments {
 public:
  /// Timers only: a filter with no telemetry surface.
  FilterInstruments() = default;

  /// A device filter (six kernels per step, sub-filter shape `shape`).
  FilterInstruments(telemetry::Telemetry* tel, const DeviceShape& shape);

  /// The sequential filter of `particles` particles (three stages per step:
  /// sampling, global estimate, resampling).
  FilterInstruments(telemetry::Telemetry* tel, std::size_t particles);

  [[nodiscard]] StageTimers& timers() { return timers_; }
  [[nodiscard]] const WorkCounters& work() const { return work_; }

  /// The filter's telemetry (null when none is attached).
  [[nodiscard]] telemetry::Telemetry* telemetry() const { return tel_; }

  /// The trace recorder spans go to; null without telemetry.
  [[nodiscard]] telemetry::TraceRecorder* trace() const {
    return tel_ != nullptr ? &tel_->trace : nullptr;
  }

  /// Probe for `stage`. With a `span` name the stage also gets one trace
  /// span over `groups` groups at `step`, parented under `ctx` when given;
  /// without one, the filter opens the stage's spans itself (per launch).
  [[nodiscard]] StageProbe probe(Stage stage, const char* span = nullptr,
                                 std::size_t groups = 0, std::uint64_t step = 0,
                                 const telemetry::TraceContext* ctx = nullptr) {
    const auto s = static_cast<std::size_t>(stage);
    return StageProbe(timers_, stage, stage_hist_[s], prof_, stage_accum_[s],
                      span != nullptr ? trace() : nullptr, span, groups, step,
                      span != nullptr ? ctx : nullptr);
  }

  /// Per-step registry publishing of a device filter: the step, exchange
  /// and resampling counters, the RNG high-water marks, the pool and
  /// launch gauges, and the per-particle profile gauges. No-op without
  /// telemetry.
  void publish_step(const DeviceStep& step);

  /// Per-step registry publishing of the sequential filter. The
  /// resample.degenerate / resample.skipped counters are registered on
  /// their first event, so a run that never sees one does not export it.
  void publish_step(bool degenerate, bool resampled);

 private:
  /// Resolves what both kinds of filter write: the histograms and profile
  /// accumulators of `stages`, the shared work.* counters, and steps.
  void resolve_shared(std::initializer_list<Stage> stages);

  StageTimers timers_;
  telemetry::Telemetry* tel_ = nullptr;
  WorkCounters work_;
  std::array<telemetry::LatencyHistogram*, kStageCount> stage_hist_{};
  // Profiling (null when telemetry is off or the profiler is disabled).
  profile::Profiler* prof_ = nullptr;
  std::array<profile::StageAccum*, kStageCount> stage_accum_{};
  // Per-step metrics.
  telemetry::Counter* steps_ = nullptr;
  telemetry::Counter* exchange_particles_ = nullptr;
  telemetry::Counter* degenerate_ = nullptr;
  telemetry::Counter* skipped_ = nullptr;
  telemetry::Gauge* normals_high_water_ = nullptr;
  telemetry::Gauge* uniforms_high_water_ = nullptr;
  telemetry::Gauge* pool_jobs_ = nullptr;
  telemetry::Gauge* pool_indices_ = nullptr;
  telemetry::Gauge* pool_depth_ = nullptr;
  telemetry::Gauge* launches_ = nullptr;
  // Per-particle profile gauges of a device filter, one per stage.
  struct ProfileGauges {
    telemetry::Gauge* ipc = nullptr;
    telemetry::Gauge* cycles = nullptr;
    telemetry::Gauge* cache_misses = nullptr;
    telemetry::Gauge* cpu_ns = nullptr;
  };
  std::array<ProfileGauges, kStageCount> prof_gauges_{};
  std::size_t particles_ = 0;
  std::uint64_t prof_steps_ = 0;
};

}  // namespace esthera::core
