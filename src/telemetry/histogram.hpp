// Fixed-bucket latency histogram: the per-launch accounting unit of
// esthera::telemetry. Buckets are geometric (ratio sqrt(2)) from 1 us
// upward, so two adjacent buckets never differ by more than ~41% -- tight
// enough for p50/p95/p99 reporting, small enough (64 buckets) to live
// inline in every StageTimers and MetricsRegistry entry with no per-record
// allocation. count/sum/min/max are exact (sum to the nanosecond);
// quantiles interpolate within the resolved bucket and are clamped to
// [min, max].
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace esthera::telemetry {

/// Histogram of durations in seconds. record() and merge() may run
/// concurrently from any number of threads, and the final state does not
/// depend on their order: counts are relaxed atomics, the sum is kept in
/// integer nanoseconds (integer addition commutes, floating-point addition
/// does not), min/max move by compare-and-swap, and each bucket's exemplar
/// follows an order-independent rule. Reads taken while writers are active
/// see each field atomically but not one consistent snapshot of all of
/// them; copy the histogram once writers are quiescent for that.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBucketCount = 64;
  /// Lower edge of bucket 1; bucket 0 absorbs everything at or below it.
  static constexpr double kMinSeconds = 1e-6;

  LatencyHistogram() = default;
  /// Copies take a field-by-field snapshot (see the class comment).
  LatencyHistogram(const LatencyHistogram& other) { assign(other); }
  LatencyHistogram& operator=(const LatencyHistogram& other) {
    if (this != &other) assign(other);
    return *this;
  }

  void record(double seconds) {
    if (!(seconds >= 0.0)) seconds = 0.0;  // NaN/negative guard
    lower_to(min_, seconds);
    raise_to(max_, seconds);
    sum_ns_.fetch_add(to_ns(seconds), std::memory_order_relaxed);
    buckets_[bucket_index(seconds)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  /// record() plus exemplar retention: the bucket keeps the trace id of
  /// one representative sample, so a p99 spike links to a concrete
  /// request trace. The retained exemplar is the bucket's maximum value
  /// (ties: smaller trace id) -- a rule independent of arrival order, so
  /// the same samples yield the same exemplar across worker counts.
  /// trace_id 0 means "untraced" and records without an exemplar.
  void record(double seconds, std::uint64_t trace_id) {
    if (!(seconds >= 0.0)) seconds = 0.0;
    record(seconds);
    if (trace_id == 0) return;
    offer_exemplar(bucket_index(seconds), seconds, trace_id);
  }

  /// Bucket b's retained exemplar trace id (0 = none retained).
  [[nodiscard]] std::uint64_t exemplar_trace(std::size_t b) const {
    return exemplars_[b].trace_id.load(std::memory_order_relaxed);
  }
  /// Bucket b's retained exemplar value (meaningful when exemplar_trace
  /// is nonzero).
  [[nodiscard]] double exemplar_value(std::size_t b) const {
    return exemplars_[b].value.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1e9;
  }
  [[nodiscard]] double min() const {
    return count() != 0 ? min_.load(std::memory_order_relaxed) : 0.0;
  }
  [[nodiscard]] double max() const {
    return count() != 0 ? max_.load(std::memory_order_relaxed) : 0.0;
  }
  [[nodiscard]] double mean() const {
    const std::uint64_t n = count();
    return n != 0 ? sum() / static_cast<double>(n) : 0.0;
  }

  /// q-quantile (q in [0, 1]) from the bucket counts; 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Under concurrent writers min/max may briefly lag count; clamp with
    // min-then-max so lo > hi cannot arise as a precondition violation.
    const double lo_clamp = min_.load(std::memory_order_relaxed);
    const double hi_clamp = max_.load(std::memory_order_relaxed);
    // Rank of the sample we are after (1-based, ceil(q * count)).
    const auto target = static_cast<std::uint64_t>(
        std::max<double>(1.0, std::ceil(q * static_cast<double>(n))));
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      const std::uint64_t c = bucket_count(b);
      if (c == 0) continue;
      if (cum + c >= target) {
        // Linear interpolation inside the bucket by rank position.
        const double lo = bucket_lower_bound(b);
        const double hi = bucket_upper_bound(b);
        const double within =
            static_cast<double>(target - cum) / static_cast<double>(c);
        return std::min(std::max(lo + (hi - lo) * within, lo_clamp), hi_clamp);
      }
      cum += c;
    }
    return hi_clamp;  // unreachable for consistent counts
  }

  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p95() const { return quantile(0.95); }
  [[nodiscard]] double p99() const { return quantile(0.99); }

  [[nodiscard]] std::uint64_t bucket_count(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Bucket edges: bucket 0 is [0, kMin]; bucket b >= 1 is
  /// (kMin * r^(b-1), kMin * r^b] with r = sqrt(2).
  [[nodiscard]] static double bucket_lower_bound(std::size_t b) {
    return b == 0 ? 0.0 : kMinSeconds * std::exp2(static_cast<double>(b - 1) * 0.5);
  }
  [[nodiscard]] static double bucket_upper_bound(std::size_t b) {
    return b == 0 ? kMinSeconds
                  : kMinSeconds * std::exp2(static_cast<double>(b) * 0.5);
  }

  /// Folds `other` into this histogram: bucket-wise count addition plus
  /// exact count/sum and min/max merge. Exemplars keep the same retention
  /// rule as record() -- per bucket, the larger value wins, ties broken by
  /// the smaller trace id -- so merging per-shard histograms yields the
  /// same exemplar a single shared histogram would have retained. Safe
  /// against concurrent record()/merge() into this histogram; `other`
  /// should be quiescent (typically a snapshot copy).
  void merge(const LatencyHistogram& other) {
    const std::uint64_t n = other.count();
    if (n == 0) return;
    lower_to(min_, other.min_.load(std::memory_order_relaxed));
    raise_to(max_, other.max_.load(std::memory_order_relaxed));
    sum_ns_.fetch_add(other.sum_ns_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      if (const std::uint64_t c = other.bucket_count(b); c != 0) {
        buckets_[b].fetch_add(c, std::memory_order_relaxed);
      }
      if (const Exemplar e = other.read_exemplar(b); e.trace_id != 0) {
        offer_exemplar(b, e.value, e.trace_id);
      }
    }
    count_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Clears every field. Not atomic as a whole: call it while no other
  /// thread records into or merges into this histogram.
  void reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_ns_.store(0, std::memory_order_relaxed);
    min_.store(kEmptyMin, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    for (auto& e : exemplars_) e.store({});
  }

  [[nodiscard]] static std::size_t bucket_index(double seconds) {
    if (seconds <= kMinSeconds) return 0;
    // log_{sqrt(2)}(s / kMin) = 2 * log2(s / kMin); bucket b covers
    // (kMin * r^(b-1), kMin * r^b], so ceil() lands on the right edge.
    const double idx = std::ceil(2.0 * std::log2(seconds / kMinSeconds));
    const auto b = static_cast<std::size_t>(std::max(1.0, idx));
    return std::min(b, kBucketCount - 1);
  }

 private:
  struct Exemplar {
    double value = 0.0;
    std::uint64_t trace_id = 0;  ///< 0 = no exemplar retained
  };

  /// A bucket's exemplar pair. It changes as a whole under
  /// exemplar_guard_ (no portable lock-free compare-and-swap spans 128
  /// bits); the halves are atomics so unguarded readers never race it.
  struct ExemplarSlot {
    std::atomic<double> value{0.0};
    std::atomic<std::uint64_t> trace_id{0};

    [[nodiscard]] Exemplar load() const {
      return {value.load(std::memory_order_relaxed),
              trace_id.load(std::memory_order_relaxed)};
    }
    void store(Exemplar e) {
      value.store(e.value, std::memory_order_relaxed);
      trace_id.store(e.trace_id, std::memory_order_relaxed);
    }
  };

  /// Spin guard over every exemplar pair, taken by compare-and-swap. One
  /// per histogram suffices: only traced samples update exemplars.
  void lock_exemplars() const {
    for (bool expected = false; !exemplar_guard_.compare_exchange_weak(
             expected, true, std::memory_order_acquire,
             std::memory_order_relaxed);
         expected = false) {
    }
  }
  void unlock_exemplars() const {
    exemplar_guard_.store(false, std::memory_order_release);
  }

  /// Retains (v, t) in bucket b if it beats the current pair: larger value
  /// first, then smaller trace id.
  void offer_exemplar(std::size_t b, double v, std::uint64_t t) {
    lock_exemplars();
    const Exemplar cur = exemplars_[b].load();
    if (cur.trace_id == 0 || v > cur.value ||
        (v == cur.value && t < cur.trace_id)) {
      exemplars_[b].store({v, t});
    }
    unlock_exemplars();
  }

  /// Bucket b's pair, read whole (an empty slot has nothing to tear).
  [[nodiscard]] Exemplar read_exemplar(std::size_t b) const {
    if (exemplars_[b].trace_id.load(std::memory_order_relaxed) == 0) return {};
    lock_exemplars();
    const Exemplar e = exemplars_[b].load();
    unlock_exemplars();
    return e;
  }

  /// min_'s value while empty: every sample lowers it.
  static constexpr double kEmptyMin = std::numeric_limits<double>::infinity();
  /// Largest sample the nanosecond sum takes (about 317 years), so the
  /// conversion below stays inside uint64_t.
  static constexpr double kMaxSumSeconds = 1e10;

  static std::uint64_t to_ns(double seconds) {
    return static_cast<std::uint64_t>(
        std::llround(std::min(seconds, kMaxSumSeconds) * 1e9));
  }
  static void lower_to(std::atomic<double>& a, double v) {
    double cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static void raise_to(std::atomic<double>& a, double v) {
    double cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  void assign(const LatencyHistogram& other) {
    count_.store(other.count(), std::memory_order_relaxed);
    sum_ns_.store(other.sum_ns_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    min_.store(other.min_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    max_.store(other.max_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      buckets_[b].store(other.bucket_count(b), std::memory_order_relaxed);
      exemplars_[b].store(other.read_exemplar(b));
    }
  }

  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<double> min_{kEmptyMin};
  std::atomic<double> max_{0.0};
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::array<ExemplarSlot, kBucketCount> exemplars_{};
  mutable std::atomic<bool> exemplar_guard_{false};
};

}  // namespace esthera::telemetry
