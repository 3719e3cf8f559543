// Benchmark-side tracing: a span around each call the benchmark makes into
// a layer (name, start, end, parent), kept in per-thread buffers and
// collected once when the run ends, plus the self-time rule used to
// attribute time to layers. The program under test is not instrumented;
// every span here brackets a call from outside.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: the layer call it brackets
  double start_us = 0.0;  ///< microseconds since the log's epoch
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t thread = 0;  ///< index of the recording thread's buffer
};

/// Process-wide span log with one append-only buffer per thread; a thread
/// touches only its own buffer while recording, so recording takes no lock
/// after the thread's first span.
class SpanLog {
 public:
  static SpanLog& instance() {
    static SpanLog log;
    return log;
  }

  /// Microseconds since the log's epoch.
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// All spans recorded so far, ordered by start time. Call when the
  /// recording threads are idle (the benchmark does so at the end).
  [[nodiscard]] std::vector<Span> collect() const {
    std::vector<Span> out;
    std::lock_guard lock(mutex_);
    for (const auto& b : buffers_) out.insert(out.end(), b->spans.begin(), b->spans.end());
    std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
      return a.start_us != b.start_us ? a.start_us < b.start_us : a.id < b.id;
    });
    return out;
  }

  void clear() {
    std::lock_guard lock(mutex_);
    for (auto& b : buffers_) b->spans.clear();
  }

 private:
  friend class ScopedSpan;

  struct Buffer {
    std::uint32_t index = 0;
    std::vector<Span> spans;
    std::vector<std::uint64_t> open;  ///< ids of this thread's open spans
  };

  Buffer& local() {
    thread_local Buffer* buf = nullptr;
    if (buf == nullptr) {
      std::lock_guard lock(mutex_);
      buffers_.push_back(std::make_unique<Buffer>());
      buf = buffers_.back().get();
      buf->index = static_cast<std::uint32_t>(buffers_.size() - 1);
    }
    return *buf;
  }

  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  ///< guarded by mutex_
};

/// Records one span over its scope when the log is enabled; nests under
/// the innermost span open on the same thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    SpanLog& log = SpanLog::instance();
    if (!log.enabled()) return;
    buf_ = &log.local();
    span_.name = name;
    span_.id = log.next_id_.fetch_add(1, std::memory_order_relaxed);
    span_.parent = buf_->open.empty() ? 0 : buf_->open.back();
    span_.thread = buf_->index;
    buf_->open.push_back(span_.id);
    span_.start_us = log.now_us();
  }
  ~ScopedSpan() {
    if (buf_ == nullptr) return;
    span_.end_us = SpanLog::instance().now_us();
    buf_->open.pop_back();
    buf_->spans.push_back(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog::Buffer* buf_ = nullptr;
  Span span_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
[[nodiscard]] inline std::vector<double> self_times_us(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const double a = std::max(s.start_us, p.start_us);
    const double b = std::min(s.end_us, p.end_us);
    if (b > a) kids[it->second].emplace_back(a, b);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    out[i] = (spans[i].end_us - spans[i].start_us) - covered;
  }
  return out;
}

}  // namespace perfbench
