// esthera::profile -- hardware performance-counter attribution for the
// observability layer. A Profiler owns one perf_event_open(2) counter
// group per sampling thread (cycles, instructions, cache-references,
// cache-misses, branch-misses) plus an always-available software
// task-clock (CLOCK_THREAD_CPUTIME_ID), and named StageAccum accumulators
// that scopes fold begin/end deltas into. Each filter stage's
// core::StageProbe opens a profile::Scope on the stage's accumulator, so
// every stage accrues hardware deltas alongside its wall-clock histogram
// sample; the ThreadPool captures the dispatching thread's active scope
// and mirrors it onto its pool threads, so worker-side cycles land in the
// same accumulator as the host side.
//
// Graceful degradation is the contract: when perf_event_open is denied
// (containers, perf_event_paranoid, non-Linux builds), the profiler falls
// back to the software task-clock and reports a structured
// unavailable_reason() instead of failing -- estimates are bit-identical
// with profiling off, software, or hardware (the layer is purely passive:
// no RNG consumed, no filter state touched; test-enforced like telemetry).
//
// Mode selection: the ESTHERA_PROFILE environment variable
// ("off" | "sw" | "hw" | "auto", default auto) is read once per Profiler
// construction. "hw" and "auto" both probe availability eagerly so
// mode() and unavailable_reason() are stable for the profiler's lifetime;
// "hw" still degrades to software rather than failing.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace esthera::profile {

/// Resolved counting mode (never "auto": construction resolves it).
enum class Mode {
  kOff,       ///< sampling disabled; scopes are inert
  kSoftware,  ///< task-clock only (perf unavailable or ESTHERA_PROFILE=sw)
  kHardware,  ///< perf_event_open counter groups + task-clock
};

[[nodiscard]] const char* to_string(Mode mode);

/// One point-in-time reading of the calling thread's counters. Values are
/// absolute (monotonic while the thread's group is counting); consumers
/// diff two samples.
struct Sample {
  std::uint64_t task_clock_ns = 0;  ///< CLOCK_THREAD_CPUTIME_ID, always set
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_references = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  bool hardware = false;  ///< true when the perf group contributed values
};

/// Snapshot of an accumulator's lifetime sums. Hardware fields are scaled
/// for counter multiplexing (value * time_enabled / time_running) at
/// sample time, hence double.
struct CounterSums {
  double task_clock_ns = 0.0;
  double cycles = 0.0;
  double instructions = 0.0;
  double cache_references = 0.0;
  double cache_misses = 0.0;
  double branch_misses = 0.0;
  std::uint64_t samples = 0;           ///< scopes accrued
  std::uint64_t hardware_samples = 0;  ///< scopes with hardware deltas

  /// Field-wise difference (this - base); the benches diff per-row
  /// snapshots of a shared accumulator.
  [[nodiscard]] CounterSums operator-(const CounterSums& base) const;

  /// Instructions per cycle; 0 when no cycles were observed.
  [[nodiscard]] double ipc() const {
    return cycles > 0.0 ? instructions / cycles : 0.0;
  }
};

/// Named accumulator scopes fold deltas into. Thread-safe: host and pool
/// threads accrue concurrently with relaxed atomic adds (commutative, so
/// sums are worker-count independent for deterministic workloads).
class StageAccum {
 public:
  /// Adds max(0, end - begin) per counter. Hardware fields accrue only
  /// when both samples carry hardware values (a thread whose group failed
  /// to open contributes task-clock only).
  void accrue(const Sample& begin, const Sample& end);

  [[nodiscard]] CounterSums sums() const;

  void reset();

 private:
  // Nanosecond / event counts accumulate exactly in u64; scaled hardware
  // values are rounded to the nearest event before accrual.
  std::atomic<std::uint64_t> task_clock_ns_{0};
  std::atomic<std::uint64_t> cycles_{0};
  std::atomic<std::uint64_t> instructions_{0};
  std::atomic<std::uint64_t> cache_references_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> branch_misses_{0};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> hardware_samples_{0};
};

/// Owner of the per-thread counter groups and the accumulator registry.
/// Safe to share across threads; one Profiler lives in each
/// telemetry::Telemetry.
class Profiler {
 public:
  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Resolved mode (construction-time; never changes afterwards).
  [[nodiscard]] Mode mode() const { return mode_; }

  /// True when scopes sample at all (mode != kOff).
  [[nodiscard]] bool enabled() const { return mode_ != Mode::kOff; }

  /// True when hardware counters are live.
  [[nodiscard]] bool hardware() const { return mode_ == Mode::kHardware; }

  /// Structured reason hardware counting is off ("" when hardware is live
  /// or was never requested, e.g. ESTHERA_PROFILE=off|sw). Non-empty
  /// exactly when a hardware attempt degraded -- the "profile.unavailable"
  /// signal surfaced in reports, statusz, and OpenMetrics.
  [[nodiscard]] const std::string& unavailable_reason() const {
    return unavailable_reason_;
  }

  /// Stable accumulator reference (created on first use; never removed).
  [[nodiscard]] StageAccum& accumulator(std::string_view name);

  /// Lookup without creating; nullptr when absent.
  [[nodiscard]] const StageAccum* find(std::string_view name) const;

  [[nodiscard]] std::vector<std::string> accumulator_names() const;

  /// Reads the calling thread's counters, lazily attaching a perf group
  /// to this thread in hardware mode. Never fails: a thread whose group
  /// cannot open returns a software-only sample.
  [[nodiscard]] Sample sample();

  /// Test hook: while true, every perf_event_open attempt (probe and
  /// per-thread) fails as if the kernel denied it, so the
  /// forced-denied fallback path is testable in any environment.
  /// Affects Profilers constructed while the flag is set.
  static void force_hardware_unavailable_for_testing(bool denied);

 private:
  struct ThreadGroup;

  [[nodiscard]] ThreadGroup* local_group();

  Mode mode_ = Mode::kSoftware;
  std::string unavailable_reason_;
  /// Process-unique id keying the thread-local group cache (ids are never
  /// reused, so a stale cache entry for a destroyed profiler can never
  /// alias a new one).
  const std::uint64_t id_;

  mutable std::mutex accums_mutex_;
  std::map<std::string, std::unique_ptr<StageAccum>, std::less<>> accums_;

  mutable std::mutex groups_mutex_;
  std::vector<std::unique_ptr<ThreadGroup>> groups_;
};

/// The scope a dispatching thread currently samples under, captured by
/// ThreadPool::run at dispatch so pool threads can mirror it.
struct ThreadShare {
  Profiler* profiler = nullptr;
  StageAccum* accum = nullptr;
  [[nodiscard]] explicit operator bool() const {
    return profiler != nullptr && accum != nullptr;
  }
};

/// The calling thread's innermost active Scope ({} when none).
[[nodiscard]] ThreadShare current_share();

/// RAII sampling scope for the calling thread: samples at entry and exit
/// and accrues the delta into `accum`. Also publishes itself as the
/// thread's current share so a ThreadPool dispatch inside the scope
/// mirrors the accumulator onto its pool threads. Inert when profiler or
/// accum is null or the profiler is off -- the disabled path is one
/// branch, preserving the zero-cost-when-off contract.
class Scope {
 public:
  Scope(Profiler* profiler, StageAccum* accum);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Profiler* profiler_ = nullptr;
  StageAccum* accum_ = nullptr;
  ThreadShare prev_;
  Sample begin_;
};

/// RAII sampling for a pool thread executing its share of a job whose
/// dispatcher was inside a Scope: samples this thread and accrues into
/// the captured accumulator, without touching the thread's own share.
class ShareScope {
 public:
  explicit ShareScope(const ThreadShare& share);
  ~ShareScope();
  ShareScope(const ShareScope&) = delete;
  ShareScope& operator=(const ShareScope&) = delete;

 private:
  ThreadShare share_;
  Sample begin_;
};

}  // namespace esthera::profile
