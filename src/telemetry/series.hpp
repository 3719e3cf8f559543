// StepSeries: per-step time-series storage for the signals the filters
// already compute -- per-group ESS, unique-parent fraction, weight
// entropy, exchange volume, pool statistics. A point is (step, group,
// value); group kNoGroup marks a population-level scalar. Column storage
// per series name keeps recording an amortized O(1) append per point and
// lets the sinks stream a whole series without re-grouping. The series
// grow until the caller clears them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace esthera::telemetry {

struct SeriesPoint {
  std::uint64_t step = 0;
  std::int64_t group = -1;  ///< kNoGroup for population-level scalars
  double value = 0.0;
};

class StepSeries {
 public:
  static constexpr std::int64_t kNoGroup = -1;

  /// Records a population-level scalar for `step`.
  void record(std::uint64_t step, std::string_view name, double value) {
    std::lock_guard lock(mutex_);
    series_at(name).push_back({step, kNoGroup, value});
  }

  /// Records one step's per-group values: `values[g]` becomes group g's
  /// point, in group order, under one lock and one series lookup.
  void record_groups(std::uint64_t step, std::string_view name,
                     std::span<const double> values) {
    std::lock_guard lock(mutex_);
    auto& pts = series_at(name);
    for (std::size_t g = 0; g < values.size(); ++g) {
      pts.push_back({step, static_cast<std::int64_t>(g), values[g]});
    }
  }

  [[nodiscard]] std::vector<std::string> names() const {
    std::lock_guard lock(mutex_);
    std::vector<std::string> out;
    out.reserve(series_.size());
    for (const auto& [name, _] : series_) out.push_back(name);
    return out;
  }

  /// Points of one series, in recording order; empty when unknown.
  [[nodiscard]] std::vector<SeriesPoint> points(std::string_view name) const {
    std::lock_guard lock(mutex_);
    const auto it = series_.find(name);
    return it == series_.end() ? std::vector<SeriesPoint>{} : it->second;
  }

  [[nodiscard]] std::size_t point_count() const {
    std::lock_guard lock(mutex_);
    std::size_t n = 0;
    for (const auto& [_, pts] : series_) n += pts.size();
    return n;
  }

  void clear() {
    std::lock_guard lock(mutex_);
    series_.clear();
  }

  /// Applies `fn(name, points)` to every series, under the lock, in name
  /// order (deterministic export).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::lock_guard lock(mutex_);
    for (const auto& [name, pts] : series_) fn(name, pts);
  }

 private:
  /// The named series, created empty on first use. Call under the lock.
  std::vector<SeriesPoint>& series_at(std::string_view name) {
    auto it = series_.find(name);
    if (it == series_.end()) {
      it = series_.emplace(std::string(name), std::vector<SeriesPoint>{}).first;
    }
    return it->second;
  }

  mutable std::mutex mutex_;
  std::map<std::string, std::vector<SeriesPoint>, std::less<>> series_;
};

}  // namespace esthera::telemetry
