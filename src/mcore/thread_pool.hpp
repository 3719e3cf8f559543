// Host-side worker pool used to distribute device work groups (sub-filters)
// over CPU cores, mirroring how a GPU runtime distributes work groups over
// streaming multiprocessors / compute units.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "profile/profile.hpp"

namespace esthera::mcore {

/// A fixed-size pool of worker threads executing bulk-parallel index ranges.
///
/// The pool is oriented at data-parallel dispatch rather than task queues:
/// `run(n, fn)` invokes `fn(i, worker)` for every i in [0, n) exactly once.
/// `worker` is the index of the executing worker in [0, worker_count()),
/// usable for per-worker scratch state.
///
/// Schedule. By default a launch is cut into min(n, worker_count())
/// contiguous blocks, and block w is worker w's home range: worker w works
/// through it front to back, so neighbouring indices (work groups) stay on
/// one core, the same core launch after launch, and their data stays in
/// its cache. A block is claimed in up to 8 contiguous pieces, and a thread
/// whose own block is done takes pieces from the back of another's, so a
/// thread that is preempted or wakes late holds a launch back by about one
/// piece, not a whole block. An explicit `chunk` instead hands out `chunk`
/// indices per claim in index order, which balances irregular work. Either
/// way the calling thread claims first, as worker 0: a launch the caller
/// can finish alone never waits for a sleeping pool thread.
///
/// Launch path. run() is a template over the callable and forwards to one
/// type-erased dispatch (function pointer plus context pointer): no
/// allocation, no std::function, no mutex. A job is published by bumping an
/// epoch. Threads that run out of claims wait awake until the job's last
/// piece is done; pool threads then spin on the epoch for a short fixed
/// bound (50 us) and sleep in std::atomic::wait, while the caller returns.
/// Every claim is tagged with the job's epoch, so a thread that wakes late
/// never claims, reads or runs a piece of a newer job.
///
/// Exceptions. If `fn` throws on any thread, the pool keeps the first
/// exception, withdraws the claims nobody has taken yet, and rethrows it
/// from run() once every claim already taken is finished; the pool stays
/// usable. Indices of withdrawn claims never run.
///
/// A worker count of 0 or 1 executes inline on the calling thread, which
/// keeps single-core runs free of synchronization overhead. run() may be
/// called from several threads at once; a call that finds the pool busy
/// with another caller's job runs its own job inline, as worker 0.
class ThreadPool {
 public:
  /// Creates a pool with `workers` threads (0 and 1 both mean "inline").
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of logical workers, including the calling thread, which
  /// participates in every run() as worker 0. Pool threads are workers
  /// 1..worker_count()-1, so worker indices passed to `fn` are unique and
  /// safe to use for per-worker scratch slots.
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return threads_.size() + 1;
  }

  /// Runs `fn(index, worker)` for each index in [0, n). Blocks until all
  /// indices completed. `chunk` == 0 (the default) splits [0, n) into
  /// min(n, worker_count()) contiguous blocks, one per worker; a nonzero
  /// `chunk` claims that many indices at a time, in index order.
  template <typename Fn>
  void run(std::size_t n, Fn&& fn, std::size_t chunk = 0) {
    using F = std::remove_reference_t<Fn>;
    dispatch(n, chunk, &invoke_range<F>,
             const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

  /// Dispatch statistics for telemetry: how many bulk jobs ran, the total
  /// index count they covered, and the queue-depth high-water mark (the
  /// largest single job's index count -- the pool runs one job at a time,
  /// so this is the deepest the group queue ever was at dispatch).
  struct Stats {
    std::uint64_t jobs_executed = 0;
    std::uint64_t indices_executed = 0;
    std::uint64_t max_queue_depth = 0;
  };

  /// Snapshot of the lifetime dispatch statistics (relaxed reads; exact
  /// between run() calls).
  [[nodiscard]] Stats stats() const noexcept {
    return {jobs_executed_.load(std::memory_order_relaxed),
            indices_executed_.load(std::memory_order_relaxed),
            max_queue_depth_.load(std::memory_order_relaxed)};
  }

  /// Upper bound accepted from ESTHERA_WORKERS; larger requests (or any
  /// malformed value) fall back to hardware_concurrency().
  static constexpr long kMaxWorkers = 1024;

  /// Convenience: pick a worker count, in precedence order: the
  /// set_default_worker_count() process-wide override, the ESTHERA_WORKERS
  /// environment variable (only a fully numeric value in [1, kMaxWorkers]
  /// is honoured), then std::thread::hardware_concurrency().
  static std::size_t default_worker_count();

  /// Process-wide override for default_worker_count(), taking precedence
  /// over ESTHERA_WORKERS -- this is what the bench harness's --workers
  /// flag sets. Accepts [1, kMaxWorkers]; 0 clears the override.
  static void set_default_worker_count(std::size_t workers);

 private:
  /// Runs fn(i, worker) for i in [begin, end); `ctx` points at fn.
  using Invoke = void (*)(void* ctx, std::size_t begin, std::size_t end,
                          std::size_t worker);

  template <typename F>
  static void invoke_range(void* ctx, std::size_t begin, std::size_t end,
                           std::size_t worker) {
    F& fn = *static_cast<F*>(ctx);
    for (std::size_t i = begin; i < end; ++i) fn(i, worker);
  }

  void dispatch(std::size_t n, std::size_t chunk, Invoke invoke, void* ctx);
  void worker_loop(std::size_t worker, std::uint32_t seen_epoch);
  [[nodiscard]] bool claim(std::uint32_t epoch, std::size_t worker,
                           std::size_t& index);
  void execute(std::size_t index, std::size_t worker) const;
  /// Records the in-flight exception if it is the job's first, then takes
  /// every claim of the job still open; returns how many it took.
  std::size_t fail(std::uint32_t epoch, std::size_t worker);
  void finish(std::size_t claims);
  void complete(std::size_t taken);

  // Destructive-interference padding: every range word, the epoch and the
  // completion count are written by the participants of a job, so each
  // gets its own cache line, apart from the read-mostly job fields.
  static constexpr std::size_t kLine = 64;

  // One home range of claims: (epoch << 32) | (in_order << 31) |
  // (front << 16) | back. Its owner takes claims from the front; other
  // threads take them from the back, or from the front too when the
  // in-order bit is set (explicit chunk). front == back means empty.
  struct alignas(kLine) Range {
    std::atomic<std::uint64_t> word{0};
  };

  // The published job. Written by the dispatching caller while it holds
  // `busy_` and before it publishes the range words (release); read by
  // pool threads only after a successful claim (acquire), which also keeps
  // the job alive until they finish().
  Invoke invoke_ = nullptr;
  void* ctx_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_ = 0;   // 0 = contiguous blocks
  std::size_t blocks_ = 0;  // block mode: number of blocks (home ranges)
  std::size_t pieces_ = 0;  // block mode: claims (pieces) per block
  // The dispatching thread's active profiling scope, captured at run();
  // pool threads mirror it so their cycles land in the same stage
  // accumulator as the host side. The host thread itself (worker 0 /
  // inline) is already covered by its own active Scope.
  profile::ThreadShare share_;

  // Home ranges of the current job: one per block, or one holding every
  // chunk. A thread may read a newer job's count here before it claims;
  // the epoch in each range word keeps it from claiming across jobs.
  std::atomic<std::size_t> ranges_used_{0};
  std::unique_ptr<Range[]> ranges_;
  // Bumped once per published job (and once at shutdown, after stop_ is
  // set); pool threads wait on it.
  alignas(kLine) std::atomic<std::uint32_t> epoch_{0};
  std::atomic<bool> stop_{false};
  // Claims of the current job not yet finished; the caller waits on it.
  alignas(kLine) std::atomic<std::uint32_t> pending_{0};
  // The job's first exception. Set once per job by the thread that wins
  // `failed_`, before that thread finishes its claims; read and cleared
  // by the caller after every claim is finished.
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  // Held by the caller whose job is published.
  alignas(kLine) std::atomic<bool> busy_{false};

  alignas(kLine) std::atomic<std::uint64_t> jobs_executed_{0};
  std::atomic<std::uint64_t> indices_executed_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};

  std::vector<std::thread> threads_;
};

/// Invokes `fn(i)` for every i in [begin, end) using `pool`.
template <typename Fn>
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end, Fn&& fn,
                  std::size_t chunk = 0) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  pool.run(
      n, [&](std::size_t i, std::size_t /*worker*/) { fn(begin + i); }, chunk);
}

}  // namespace esthera::mcore
