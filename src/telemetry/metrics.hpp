// MetricsRegistry: named counters, gauges, and latency histograms -- the
// aggregate half of esthera::telemetry (the event half is trace.hpp, the
// per-step half is series.hpp). Registration returns stable references, so
// filters resolve each metric once at construction and every probe on the
// hot path is a cached-pointer update; the null-telemetry case never
// reaches this file at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/histogram.hpp"

namespace esthera::telemetry {

namespace json {
class JsonWriter;
}

/// Monotonic event counter. Thread-safe (kernels may bump it).
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge with a max-tracking update for high-water marks.
/// Thread-safe.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Keeps the maximum of the current value and `v` (high-water mark).
  void update_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Named metric registry. Lookup is mutex-guarded and intended for
/// construction time; the returned references stay valid for the
/// registry's lifetime (entries are never removed).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// Histograms accept concurrent writers (see LatencyHistogram).
  [[nodiscard]] LatencyHistogram& histogram(std::string_view name);

  [[nodiscard]] std::vector<std::string> counter_names() const;
  [[nodiscard]] std::vector<std::string> gauge_names() const;
  [[nodiscard]] std::vector<std::string> histogram_names() const;

  /// Looks up without creating; nullptr when absent.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const LatencyHistogram* find_histogram(std::string_view name) const;

  /// Writes {"counters":{...},"gauges":{...},"histograms":{...}} as one
  /// JSON object to `os`. Histograms export count/sum/min/max/mean and
  /// p50/p95/p99.
  void write_json(std::ostream& os) const;

  /// Same content emitted as three keys into an already-open JSON object
  /// (used by the one-shot telemetry snapshot).
  void write_json_fields(json::JsonWriter& w) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>> histograms_;
};

}  // namespace esthera::telemetry
