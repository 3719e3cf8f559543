// Shared plumbing of the benchmark runner: run options, the metric set a
// run reports, the correctness verdict, and host measurements (peak RSS,
// process CPU time, calibration loop).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir;  ///< where the span log is written ("" = nowhere)
};

/// Name -> (value, unit), in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Correctness checks of one run; any failed check fails the run.
class Verdict {
 public:
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& passed() const { return passed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> passed_;
  std::vector<std::string> failures_;
};

/// What a workload run hands back to main().
struct RunResult {
  Metrics metrics;
  Verdict verdict;
  std::size_t attempted = 0;  ///< operations the timed phases issued
  std::size_t failed = 0;     ///< of which rejected or failed
};

/// Peak resident memory of this process image, in MiB.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] double process_cpu_seconds();
/// Fixed integer spin loop, in million iterations per second: a loaded or
/// throttled host scores lower, which flags the run's timings.
[[nodiscard]] double calib_score();
/// uname + core count + compiler, for the run record.
[[nodiscard]] std::string host_stamp();

/// Busy threads per workload: one fewer than the 4-vCPU reference host has,
/// so the OS and the harness never preempt a pool thread mid fork/join (with
/// all 4 busy, such preemptions stalled steps and requests for milliseconds
/// and swung p99 and update rate by 2x between runs).
inline constexpr std::size_t kWorkers = 3;

RunResult run_filter(const Options& opt);
RunResult run_serve(const Options& opt);

/// Per-layer metrics of one DistributedParticleFilter shape (robot arm,
/// m particles x N sub-filters, seed-derived scenario) on a `workers`-thread
/// device, measured over about `budget` seconds into `res`: stage times,
/// work counts, scaling against 1 worker (0 when `workers` is 1), the
/// centralized baseline and the device / pool / LaneOps probes.
void filter_layers(std::uint64_t seed, std::size_t particles_per_filter,
                   std::size_t num_filters, std::size_t workers, double budget,
                   RunResult& res);

/// Object-position accuracy of one filter shape on the pinned accuracy
/// protocol: fixed scenario seeds, each run warmed up and then scored.
struct Accuracy {
  double rmse = 0.0;       ///< pooled over every scored step, metres
  bool finite = true;      ///< every estimate finite
  bool identical = true;   ///< first steps bit-identical to a 1-worker filter
  std::size_t steps = 0;
};
[[nodiscard]] Accuracy pinned_accuracy(std::size_t particles_per_filter,
                                       std::size_t num_filters, std::size_t workers);
/// Adds the protocol's checks (finite, bit-identical, rmse below `limit`).
void check_accuracy(const Accuracy& acc, double limit, Verdict& v);

/// Names and units of the per-layer metrics only the serve workloads
/// measure; the filter workloads report them as 0 (not exercised).
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
serve_layer_metrics();

}  // namespace perfbench
