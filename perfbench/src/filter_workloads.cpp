// filter_large / filter_small: one DistributedParticleFilter (5-joint robot
// arm, float, RWS, Ring, t=1, kWorkers workers) stepped closed-loop on a
// scenario generated from the seed.
//
// --trace 0 times step() for the run's seconds, checks every timed estimate
// is finite, and scores accuracy on the pinned accuracy protocol (which
// also checks kWorkers vs 1-worker bit-identity). --trace 1 runs an
// untraced reference pass and a traced pass (Telemetry + HealthMonitor
// attached, a benchmark span around every step()), then the per-layer
// probes.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/centralized_pf.hpp"
#include "core/distributed_pf.hpp"
#include "models/robot_arm.hpp"
#include "monitor/monitor.hpp"
#include "probes.hpp"
#include "sim/ground_truth.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

namespace {

namespace ec = esthera::core;
using Model = esthera::models::RobotArmModel<float>;
using Filter = ec::DistributedParticleFilter<Model>;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kWarmup = 20;         ///< steps before timing / error counting
constexpr std::size_t kIdentitySteps = 8;   ///< kWorkers vs 1-worker check
constexpr std::size_t kJoints = 5;          ///< state: joints, then x, y, vx, vy
constexpr std::size_t kBlock = 256;         ///< frames generated per block
/// Scenario seeds of the accuracy protocol: pinned, not taken from --seed,
/// so rmse_pos moves only when the filter's numerics change.
constexpr std::uint64_t kAccuracySeed = 0xacc0000;
/// Accuracy limits (object-position RMSE, metres) for the correctness
/// verdict: well above what the seed commit reaches, well below a filter
/// that has lost the object.
constexpr double kRmseLimitLarge = 0.3;
constexpr double kRmseLimitSmall = 1.5;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Shape {
  std::size_t m = 0;
  std::size_t n = 0;
  [[nodiscard]] std::size_t total() const { return m * n; }
};

Shape shape_of(const std::string& workload) {
  return workload == "filter_large" ? Shape{64, 1024} : Shape{16, 16};
}

ec::FilterConfig filter_config(Shape s, std::uint64_t seed, std::size_t workers) {
  ec::FilterConfig cfg = ec::FilterConfig::table2_cpu_defaults();
  cfg.particles_per_filter = s.m;
  cfg.num_filters = s.n;
  cfg.resample = ec::ResampleAlgorithm::kRws;
  cfg.workers = workers;
  cfg.seed = 0x5eed0000ull + seed;
  cfg.check_invariants = false;
  return cfg;
}

/// Frames of the robot-arm scenario, generated in blocks outside the
/// timed region.
class Frames {
 public:
  explicit Frames(std::uint64_t seed) { scenario_.reset(seed); }

  [[nodiscard]] Model model() const { return scenario_.make_model<float>(); }

  void refill(std::size_t count) {
    z_.clear();
    u_.clear();
    xy_.clear();
    for (std::size_t k = 0; k < count; ++k) {
      const auto step = scenario_.advance();
      if (zdim_ == 0) {
        zdim_ = step.z.size();
        udim_ = step.u.size();
      }
      z_.insert(z_.end(), step.z.begin(), step.z.end());
      u_.insert(u_.end(), step.u.begin(), step.u.end());
      xy_.push_back(step.truth[kJoints]);
      xy_.push_back(step.truth[kJoints + 1]);
    }
  }
  [[nodiscard]] std::span<const float> z(std::size_t k) const {
    return std::span<const float>(z_).subspan(k * zdim_, zdim_);
  }
  [[nodiscard]] std::span<const float> u(std::size_t k) const {
    return std::span<const float>(u_).subspan(k * udim_, udim_);
  }
  [[nodiscard]] double x(std::size_t k) const { return xy_[2 * k]; }
  [[nodiscard]] double y(std::size_t k) const { return xy_[2 * k + 1]; }

 private:
  esthera::sim::RobotArmScenario scenario_;
  std::vector<float> z_, u_;
  std::vector<double> xy_;
  std::size_t zdim_ = 0, udim_ = 0;
};

bool all_finite(std::span<const float> v) {
  return std::all_of(v.begin(), v.end(), [](float x) { return std::isfinite(x); });
}

/// Position error of the filter's estimate against frame k's truth.
double pos_err2(const Filter& pf, const Frames& f, std::size_t k) {
  const auto e = pf.estimate();
  const double dx = static_cast<double>(e[kJoints]) - f.x(k);
  const double dy = static_cast<double>(e[kJoints + 1]) - f.y(k);
  return dx * dx + dy * dy;
}

/// Median construction time of the workload's filter (device, buffers,
/// prior draw) over repeated builds.
double measure_setup(const Model& model, const ec::FilterConfig& cfg) {
  std::vector<double> s;
  const std::size_t reps = cfg.total_particles() > 4096 ? 9 : 41;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    std::unique_ptr<Filter> pf;
    {
      ScopedSpan span("DistributedParticleFilter::ctor");
      pf = std::make_unique<Filter>(model, cfg);
    }
    s.push_back(since(t0));
  }
  return median(s);
}

struct StageSnapshot {
  double s[ec::kStageCount] = {};
};

StageSnapshot stage_seconds(Filter& pf) {
  StageSnapshot out;
  for (std::size_t i = 0; i < ec::kStageCount; ++i) {
    out.s[i] = pf.timers().seconds(static_cast<ec::Stage>(i));
  }
  return out;
}

/// Steps `pf` for `seconds` (and at least `min_steps`), frame by frame.
/// `on_step(k, step_seconds)` sees each timed step. Returns timed wall time.
template <typename OnStep>
double timed_steps(Filter& pf, Frames& frames, double seconds,
                   std::size_t min_steps, std::size_t& steps, OnStep&& on_step) {
  double wall = 0.0;
  steps = 0;
  while (wall < seconds || steps < min_steps) {
    frames.refill(kBlock);
    const auto t_block = Clock::now();
    for (std::size_t k = 0; k < kBlock; ++k) {
      const auto t0 = Clock::now();
      {
        ScopedSpan span("DistributedParticleFilter::step");
        pf.step(frames.z(k), frames.u(k));
      }
      on_step(k, since(t0));
      ++steps;
    }
    wall += since(t_block);
  }
  return wall;
}

void warm_up(Filter& pf, Frames& frames, std::size_t steps) {
  frames.refill(steps);
  for (std::size_t k = 0; k < steps; ++k) pf.step(frames.z(k), frames.u(k));
}

}  // namespace

Accuracy pinned_accuracy(std::size_t particles_per_filter, std::size_t num_filters,
                         std::size_t workers) {
  const Shape shape{particles_per_filter, num_filters};
  // The 65,536-particle filter costs ~20 ms a step; fewer, shorter runs.
  const bool large = shape.total() > 4096;
  const std::size_t runs = large ? 3 : 64;
  const std::size_t len = large ? 100 : 200;
  Accuracy acc;
  double err2 = 0.0;
  std::size_t n = 0;
  std::vector<std::vector<float>> first;
  {
    Frames frames(kAccuracySeed);
    Filter pf(frames.model(), filter_config(shape, kAccuracySeed, workers));
    for (std::size_t r = 0; r < runs; ++r) {
      if (r > 0) {
        frames = Frames(kAccuracySeed + r);
        pf.model_mutable() = frames.model();
        pf.initialize();
      }
      frames.refill(kWarmup + len);
      for (std::size_t k = 0; k < kWarmup + len; ++k) {
        pf.step(frames.z(k), frames.u(k));
        acc.finite = acc.finite && all_finite(pf.estimate());
        if (r == 0 && k < kIdentitySteps) {
          first.emplace_back(pf.estimate().begin(), pf.estimate().end());
        }
        if (k >= kWarmup) {
          err2 += pos_err2(pf, frames, k);
          ++n;
        }
      }
    }
    acc.steps = runs * (kWarmup + len);
  }
  acc.rmse = std::sqrt(err2 / static_cast<double>(n));
  // The same first run on a 1-worker filter must match bit for bit.
  Frames frames(kAccuracySeed);
  Filter p1(frames.model(), filter_config(shape, kAccuracySeed, 1));
  frames.refill(kIdentitySteps);
  for (std::size_t k = 0; k < kIdentitySteps; ++k) {
    p1.step(frames.z(k), frames.u(k));
    const auto e = p1.estimate();
    acc.identical = acc.identical && e.size() == first[k].size() &&
                    std::memcmp(e.data(), first[k].data(), e.size() * sizeof(float)) == 0;
  }
  return acc;
}

void check_accuracy(const Accuracy& acc, double limit, Verdict& v) {
  v.check(acc.finite, "accuracy protocol estimates finite (" + std::to_string(acc.steps) +
                          " steps)");
  v.check(acc.identical, "first " + std::to_string(kIdentitySteps) +
                             " estimates bit-identical, " + std::to_string(kWorkers) +
                             " workers vs 1");
  v.check(acc.rmse < limit,
          "rmse_pos " + std::to_string(acc.rmse) + " m < " + std::to_string(limit) + " m");
}

namespace {

// ---------------------------------------------------------------- trace 0

RunResult filter_e2e(const Options& opt, Shape shape) {
  RunResult res;
  Frames frames(opt.seed);
  const Model model = frames.model();
  const auto cfg = filter_config(shape, opt.seed, kWorkers);
  const double setup = measure_setup(model, cfg);

  WindowedSeries lat_us;
  std::size_t steps = 0, nonfinite = 0;
  double wall = 0.0;
  {
    Filter pf(model, cfg);
    warm_up(pf, frames, kWarmup);
    wall = timed_steps(pf, frames, opt.seconds, min_samples_for(0.99), steps,
                       [&](std::size_t, double s) {
                         lat_us.add(s * 1e6);
                         if (!all_finite(pf.estimate())) ++nonfinite;
                       });
  }
  const Accuracy acc = pinned_accuracy(shape.m, shape.n, kWorkers);

  // Windowed figures: median across windows of >= kWindowSamples steps.
  const Tail tail = lat_us.tail();
  const double rate = 1e6 * lat_us.rate();
  std::cout << "step latency: n=" << tail.n << " samples in " << lat_us.windows()
            << " windows, " << static_cast<double>(steps) / wall
            << " steps/s over the whole run\n";
  res.verdict.check(nonfinite == 0, "every timed estimate finite (" +
                                        std::to_string(steps) + " steps)");
  check_accuracy(acc, shape.total() > 4096 ? kRmseLimitLarge : kRmseLimitSmall, res.verdict);
  res.verdict.check(tail.p99_supported, "step p99 has >= 10 samples beyond it in every window");
  res.attempted = steps;
  res.failed = nonfinite;

  // A filter is driven closed-loop by one caller: there is a single
  // operating point, so each rate tier reports the step latency and the
  // sustainable rate is the step rate.
  auto& m = res.metrics;
  m.set("setup_s", setup, "s");
  m.set("update_rate_hz", rate, "steps/s");
  m.set("step_p99_us", tail.p99, "us");
  m.set("rmse_pos", acc.rmse, "m");
  for (const char* tier : {"low", "mid", "high"}) {
    m.set(std::string("lat_p50_ms.") + tier, tail.p50 * 1e-3, "ms");
  }
  m.set("max_rate_rps", rate, "req/s");
  m.set("served_frac",
        static_cast<double>(res.attempted - res.failed) /
            static_cast<double>(res.attempted),
        "ratio");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  return res;
}

// ---------------------------------------------------------------- trace 1

struct PassStats {
  std::size_t steps = 0;
  double wall = 0.0;
  double cpu = 0.0;
  double stage_us[ec::kStageCount] = {};  ///< per step
  double launches = 0.0;                  ///< per step
  double jobs = 0.0;                      ///< per step
};

/// `seconds` of timed steps with stage-timer, launch and pool-job deltas
/// taken around the timed region.
template <typename OnStep>
PassStats measured_pass(Filter& pf, Frames& frames, double seconds,
                        std::size_t min_steps, OnStep&& on_step) {
  PassStats p;
  const StageSnapshot s0 = stage_seconds(pf);
  const auto l0 = pf.dev().launch_count();
  const auto j0 = pf.dev().pool().stats().jobs_executed;
  const double c0 = process_cpu_seconds();
  p.wall = timed_steps(pf, frames, seconds, min_steps, p.steps, on_step);
  p.cpu = process_cpu_seconds() - c0;
  const StageSnapshot s1 = stage_seconds(pf);
  const double n = static_cast<double>(p.steps);
  for (std::size_t i = 0; i < ec::kStageCount; ++i) {
    p.stage_us[i] = (s1.s[i] - s0.s[i]) * 1e6 / n;
  }
  p.launches = static_cast<double>(pf.dev().launch_count() - l0) / n;
  p.jobs = static_cast<double>(pf.dev().pool().stats().jobs_executed - j0) / n;
  return p;
}

}  // namespace

void filter_layers(std::uint64_t seed, std::size_t particles_per_filter,
                   std::size_t num_filters, std::size_t workers, double budget,
                   RunResult& res) {
  const Shape shape{particles_per_filter, num_filters};
  Frames frames(seed);
  const Model model = frames.model();
  const auto cfg = filter_config(shape, seed, workers);
  const double pass_s = budget * 0.25;
  auto& m = res.metrics;

  // Untraced reference pass: the baseline for obs.overhead_frac, the
  // stage times for the scaling ratios, and CPU busy share.
  PassStats ref;
  {
    SpanLog::instance().set_enabled(false);
    Filter pf(model, cfg);
    warm_up(pf, frames, kWarmup);
    ref = measured_pass(pf, frames, pass_s, 20, [](std::size_t, double) {});
    SpanLog::instance().set_enabled(true);
  }
  const double ref_step_us = ref.wall * 1e6 / static_cast<double>(ref.steps);

  // Traced pass: Telemetry + HealthMonitor attached to this one filter,
  // which records its histograms from the stepping thread only.
  PassStats tr;
  double ess = 0.0, unique = 0.0;
  std::uint64_t calls = 0;
  bool hist_exact = true;
  {
    esthera::telemetry::Telemetry tel;
    esthera::monitor::HealthMonitor mon;
    auto tcfg = cfg;
    tcfg.telemetry = &tel;
    tcfg.monitor = &mon;
    Filter pf(model, tcfg);
    auto& reg = tel.registry;
    const char* work[] = {"work.barriers", "work.lockstep_phases",
                          "work.compare_exchanges", "work.scan_sweeps",
                          "work.rng_draws"};
    std::uint64_t w0[5];
    warm_up(pf, frames, kWarmup);
    calls += kWarmup;
    for (int i = 0; i < 5; ++i) w0[i] = reg.counter(work[i]).value();
    tr = measured_pass(pf, frames, pass_s, 20, [&](std::size_t, double) {
      ess += pf.mean_ess();
      unique += pf.mean_unique_parent_fraction();
      // The per-group series grow by 3 x N points a step; keep memory flat.
      if (++calls % 64 == 0) tel.series.clear();
    });
    const double n = static_cast<double>(tr.steps);
    const char* names[] = {"device.barriers_per_step", "device.lockstep_phases_per_step",
                           "sortnet.compare_exchanges_per_step",
                           "sortnet.scan_sweeps_per_step", "prng.draws_per_step"};
    for (int i = 0; i < 5; ++i) {
      m.set(names[i], static_cast<double>(reg.counter(work[i]).value() - w0[i]) / n,
            "count");
    }
    // Refuse racy numbers: every stage histogram must hold one sample per
    // step() this benchmark made.
    for (std::size_t s = 0; s < ec::kStageCount; ++s) {
      const auto* h = reg.find_histogram(std::string("stage.") +
                                         ec::StageTimers::key(static_cast<ec::Stage>(s)));
      hist_exact = hist_exact && h != nullptr && h->count() == calls;
    }
    ess /= n;
    unique /= n;
  }
  res.verdict.check(hist_exact, "stage histograms hold exactly one sample per step() call (" +
                                    std::to_string(calls) + ")");
  const double tr_step_us = tr.wall * 1e6 / static_cast<double>(tr.steps);
  double stage_sum = 0.0;
  for (std::size_t s = 0; s < ec::kStageCount; ++s) {
    const auto st = static_cast<ec::Stage>(s);
    m.set(std::string("core.stage.") + ec::StageTimers::key(st) + "_us", tr.stage_us[s], "us");
    stage_sum += tr.stage_us[s];
  }
  m.set("core.step_us", tr_step_us, "us");
  m.set("core.step_residual_us", tr_step_us - stage_sum, "us");
  res.verdict.check(stage_sum <= tr_step_us * 1.001,
                    "six stage times fit inside the traced step time");
  m.set("resample.ess_frac", ess / static_cast<double>(shape.m), "ratio");
  m.set("resample.unique_parent_frac", unique, "ratio");
  m.set("device.launches_per_step", ref.launches, "count");
  m.set("mcore.jobs_per_step", ref.jobs, "count");
  m.set("mcore.busy_frac", ref.cpu / (ref.wall * static_cast<double>(workers)), "ratio");
  m.set("obs.overhead_frac", (tr_step_us - ref_step_us) / ref_step_us, "ratio");

  // RNG budget use: the high-water gauge reports real use only with the
  // invariant checker on, so a short separate checked pass.
  {
    esthera::telemetry::Telemetry tel;
    auto ccfg = cfg;
    ccfg.telemetry = &tel;
    ccfg.check_invariants = true;
    Filter pf(model, ccfg);
    warm_up(pf, frames, 3);
    const double used = tel.registry.gauge("rng.uniforms_high_water").value();
    const double budget = tel.registry.gauge("rng.uniforms_budget").value();
    m.set("prng.uniform_use_frac", budget > 0 ? used / budget : 0.0, "ratio");
  }

  // Stage scaling: the same stages on a 1-worker filter. A 1-worker shape
  // has nothing to scale against and reports 0 (not exercised).
  {
    const std::pair<const char*, ec::Stage> scaled[] = {
        {"rand", ec::Stage::kRand},
        {"sampling", ec::Stage::kSampling},
        {"local_sort", ec::Stage::kLocalSort},
        {"resampling", ec::Stage::kResampling}};
    PassStats one;
    if (workers > 1) {
      Filter p1(model, filter_config(shape, seed, 1));
      warm_up(p1, frames, 3);
      one = measured_pass(p1, frames, budget * 0.12, 10, [](std::size_t, double) {});
    }
    for (const auto& [key, st] : scaled) {
      const auto i = static_cast<std::size_t>(st);
      m.set(std::string("mcore.scale.") + key,
            workers > 1 ? one.stage_us[i] / ref.stage_us[i] : 0.0, "ratio");
    }
  }

  // Sequential reference: centralized filter (double, Vose) at the same
  // particle count.
  {
    using DModel = esthera::models::RobotArmModel<double>;
    esthera::sim::RobotArmScenario sc;
    sc.reset(seed);
    ec::CentralizedParticleFilter<DModel> cpf(sc.make_model<double>(),
                                              shape.m * shape.n);
    std::vector<double> ms;
    const auto t_end = Clock::now() + std::chrono::duration<double>(budget * 0.08);
    while (Clock::now() < t_end || ms.size() < 3) {
      const auto step = sc.advance();
      const auto t0 = Clock::now();
      {
        ScopedSpan span("CentralizedParticleFilter::step");
        cpf.step(step.z, step.u);
      }
      ms.push_back(since(t0) * 1e3);
    }
    const double c = median(ms);
    m.set("core.centralized_step_ms", c, "ms");
    m.set("core.speedup_vs_centralized", c * 1e3 / ref_step_us, "ratio");
  }

  m.set("device.launch_empty_us", launch_empty_us(workers, shape.n, budget * 0.03), "us");
  m.set("mcore.run_empty_us", pool_run_empty_us(workers, shape.n, budget * 0.03), "us");
  const LaneTimes lane = lane_ops_ns(seed, budget * 0.04);
  m.set("device.lane.sort64_ns", lane.sort64_ns, "ns");
  m.set("device.lane.scan64_ns", lane.scan64_ns, "ns");
  res.attempted += ref.steps + tr.steps;
}

RunResult run_filter(const Options& opt) {
  const Shape shape = shape_of(opt.workload);
  if (!opt.trace) return filter_e2e(opt, shape);
  RunResult res;
  filter_layers(opt.seed, shape.m, shape.n, kWorkers, opt.seconds, res);
  // The serving layers are not exercised by a bare filter.
  for (const auto& [name, unit] : serve_layer_metrics()) res.metrics.set(name, 0.0, unit);
  return res;
}

}  // namespace perfbench
