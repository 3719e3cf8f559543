// Statistics the benchmark reports: nearest-rank percentiles with the
// "at least ten samples beyond" rule, least-squares backlog slopes, and the
// rate-ladder verdict. Header-only and free of esthera dependencies so the
// unit tests exercise exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples a tail percentile must leave beyond it before it is reported.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of quantile q in a sample of n: ceil(q * n),
/// clamped to [1, n]. The epsilon absorbs q*n landing a hair above an
/// integer in binary floating point (0.99 * 1000 = 990.0000000000001).
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1,
                                 n);
}

/// Number of samples strictly beyond the nearest-rank q-percentile.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

/// True when a sample of n supports reporting its q-percentile.
[[nodiscard]] inline bool supports_percentile(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinBeyond;
}

/// Smallest sample size that supports the q-percentile.
[[nodiscard]] inline std::size_t min_samples_for(double q) {
  std::size_t n = kMinBeyond;
  while (!supports_percentile(n, q)) ++n;
  return n;
}

/// Nearest-rank q-percentile of `v` (sorted in place). +inf entries stand
/// for requests that failed, which miss every latency limit.
[[nodiscard]] inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t r = nearest_rank(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(r - 1),
                   v.end());
  return v[r - 1];
}

/// Median and p99 of a sample, with its size and whether p99 is supported.
struct Tail {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t n = 0;
  bool p99_supported = false;
};

/// Median of a small sample (mean of the middle pair for even sizes).
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Samples per window of the windowed figures: the fewest that leave ten
/// beyond p99, so a run has as many windows as the rule allows.
inline constexpr std::size_t kWindowSamples = 1000;

/// Splits a time-ordered sample into floor(n / min_chunk) consecutive
/// windows of near-equal size (one window when n < 2 * min_chunk).
[[nodiscard]] inline std::vector<std::vector<double>> windows(
    const std::vector<double>& v, std::size_t min_chunk = kWindowSamples) {
  const std::size_t k = std::max<std::size_t>(1, v.size() / min_chunk);
  std::vector<std::vector<double>> out(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t a = v.size() * i / k;
    const std::size_t b = v.size() * (i + 1) / k;
    out[i].assign(v.begin() + static_cast<std::ptrdiff_t>(a),
                  v.begin() + static_cast<std::ptrdiff_t>(b));
  }
  return out;
}

/// Median and p99 of a time-ordered sample, each taken per window and then
/// the median across windows: a burst of host interference moves the
/// figures of the windows it hits, not the reported ones. `p99_supported`
/// holds when every window has at least ten samples beyond its p99.
[[nodiscard]] inline Tail windowed_tail(const std::vector<double>& v,
                                        std::size_t min_chunk = kWindowSamples) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::vector<double> p50, p99;
  t.p99_supported = true;
  for (auto& w : windows(v, min_chunk)) {
    t.p99_supported = t.p99_supported && supports_percentile(w.size(), 0.99);
    p50.push_back(percentile(w, 0.50));
    p99.push_back(percentile(w, 0.99));
  }
  t.p50 = median(p50);
  t.p99 = median(p99);
  return t;
}

/// The windowed figures of a time-ordered sample, computed as the samples
/// arrive: it holds at most two windows of raw samples, so a run's memory
/// does not grow with its length and peak_rss_mb does not rise with the
/// update rate. Windows hold exactly `window` samples except the last,
/// which absorbs the remainder (window to 2 * window - 1 samples, or all of
/// a sample shorter than two windows); for a multiple of `window` samples
/// the figures equal windowed_tail()'s.
class WindowedSeries {
 public:
  explicit WindowedSeries(std::size_t window = kWindowSamples) : window_(window) {
    prev_.reserve(window);
    cur_.reserve(window);
  }

  void add(double x) {
    if (cur_.size() == window_) {
      if (!prev_.empty()) closed_.push_back(summarize(prev_));
      prev_.swap(cur_);
      cur_.clear();
    }
    cur_.push_back(x);
    ++n_;
  }

  /// Windows the figures are taken over.
  [[nodiscard]] std::size_t windows() const { return all().size(); }

  /// Median across windows of each window's p50 and p99, as windowed_tail.
  [[nodiscard]] Tail tail() const {
    Tail t;
    t.n = n_;
    if (n_ == 0) return t;
    std::vector<double> p50, p99;
    t.p99_supported = true;
    for (const Window& w : all()) {
      t.p99_supported = t.p99_supported && w.p99_supported;
      p50.push_back(w.p50);
      p99.push_back(w.p99);
    }
    t.p50 = median(p50);
    t.p99 = median(p99);
    return t;
  }

  /// Operations per unit of summed duration (per second for durations in
  /// seconds): count over sum per window, median across windows.
  [[nodiscard]] double rate() const {
    std::vector<double> rates;
    for (const Window& w : all()) {
      if (w.sum > 0.0) rates.push_back(static_cast<double>(w.size) / w.sum);
    }
    return median(rates);
  }

 private:
  struct Window {
    double p50 = 0.0, p99 = 0.0, sum = 0.0;
    std::size_t size = 0;
    bool p99_supported = false;
  };

  static Window summarize(std::vector<double> v) {
    Window w;
    w.size = v.size();
    for (const double x : v) w.sum += x;
    w.p99_supported = supports_percentile(v.size(), 0.99);
    w.p50 = percentile(v, 0.50);
    w.p99 = percentile(v, 0.99);
    return w;
  }

  /// The closed windows plus the open tail: the last two buffers form one
  /// window unless the newest is full.
  [[nodiscard]] std::vector<Window> all() const {
    std::vector<Window> out = closed_;
    if (cur_.size() == window_ || prev_.empty()) {
      if (!prev_.empty()) out.push_back(summarize(prev_));
      if (!cur_.empty()) out.push_back(summarize(cur_));
    } else {
      std::vector<double> last = prev_;
      last.insert(last.end(), cur_.begin(), cur_.end());
      out.push_back(summarize(std::move(last)));
    }
    return out;
  }

  std::size_t window_;
  std::size_t n_ = 0;
  std::vector<Window> closed_;
  std::vector<double> prev_, cur_;
};

/// Least-squares slope of y over x; 0 for fewer than two distinct x.
[[nodiscard]] inline double ls_slope(
    const std::vector<std::pair<double, double>>& pts) {
  if (pts.size() < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (const auto& [x, y] : pts) {
    mx += x;
    my += y;
  }
  mx /= static_cast<double>(pts.size());
  my /= static_cast<double>(pts.size());
  double sxy = 0.0, sxx = 0.0;
  for (const auto& [x, y] : pts) {
    sxy += (x - mx) * (y - my);
    sxx += (x - mx) * (x - mx);
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

/// Backlog slope of one open-loop phase, in requests per second: the
/// least-squares slope of the outstanding-request count over time, fitted
/// after the first `skip_frac` of the phase so the ramp from an empty
/// queue to its steady depth does not read as growth.
[[nodiscard]] inline double backlog_slope(
    const std::vector<std::pair<double, double>>& samples, double t_begin,
    double t_end, double skip_frac = 0.1) {
  const double from = t_begin + skip_frac * (t_end - t_begin);
  std::vector<std::pair<double, double>> kept;
  kept.reserve(samples.size());
  for (const auto& s : samples) {
    if (s.first >= from && s.first <= t_end) kept.push_back(s);
  }
  return ls_slope(kept);
}

/// The limits a ladder rung must meet.
struct LadderLimits {
  double p99_ms = 10.0;        ///< one frame at 100 Hz tracking
  double max_fail_frac = 0.01;
  /// A backlog growing faster than this share of the offered rate is
  /// "growing": the system falls behind instead of absorbing bursts.
  double growth_frac = 0.02;
};

/// Attempts a ladder rung may take: it fails only when every one misses a
/// limit.
inline constexpr std::size_t kRungAttempts = 3;

/// What one rung measured.
struct RungResult {
  double rate = 0.0;           ///< offered requests per second
  double p99_ms = 0.0;         ///< +inf when a failure lands at the rank
  bool p99_supported = false;  ///< enough samples beyond the percentile
  double backlog_slope = 0.0;  ///< requests per second
  double fail_frac = 0.0;      ///< (rejected + failed) / attempted
};

[[nodiscard]] inline bool backlog_growing(double slope, double rate,
                                          const LadderLimits& lim) {
  return slope > lim.growth_frac * rate;
}

[[nodiscard]] inline bool rung_passes(const RungResult& r,
                                      const LadderLimits& lim) {
  return r.p99_supported && r.p99_ms <= lim.p99_ms &&
         !backlog_growing(r.backlog_slope, r.rate, lim) &&
         r.fail_frac <= lim.max_fail_frac;
}

struct LadderOutcome {
  double max_rate = 0.0;  ///< highest passing rung; 0 when the first fails
  std::vector<RungResult> rungs;  ///< every attempt, in order
};

/// Runs the rungs in ascending order and stops at the first failing rung;
/// `run(rate)` measures one attempt. A rung fails when it misses a limit on
/// kRungAttempts attempts in a row, so a host stall episode of a second or
/// two does not end the ladder early while a rung past saturation, which
/// misses every time, still does.
[[nodiscard]] inline LadderOutcome run_ladder(
    const std::vector<double>& rates,
    const std::function<RungResult(double)>& run, const LadderLimits& lim) {
  LadderOutcome out;
  for (const double rate : rates) {
    bool passed = false;
    for (std::size_t a = 0; a < kRungAttempts && !passed; ++a) {
      out.rungs.push_back(run(rate));
      passed = rung_passes(out.rungs.back(), lim);
    }
    if (!passed) break;
    out.max_rate = rate;
  }
  return out;
}

}  // namespace perfbench
