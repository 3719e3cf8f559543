#include "mcore/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <string>
#include <utility>

namespace esthera::mcore {

namespace {

// How long an idle pool thread spins on the epoch, counted from the end of
// the last job, before it sleeps in std::atomic::wait. Long enough to
// bridge the gap between two kernel launches of one filter step, short
// enough that an idle pool goes quiet almost at once.
constexpr auto kSpin = std::chrono::microseconds(50);

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Spins until `done()` holds or kSpin has passed; returns whether it held.
template <typename Pred>
bool spin_until(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (;;) {
    for (int k = 0; k < 64; ++k) {
      if (done()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
  }
}

// Waits awake until `done()` holds, for a condition that threads running
// a job's last pieces are about to make true: sleeping there would put a
// wake-up, slow and erratic on a loaded host, on every launch's critical
// path. Past kSpin it yields between polls, so a thread preempted on this
// core can run.
template <typename Pred>
void wait_awake(Pred done) {
  if (spin_until(done)) return;
  while (!done()) std::this_thread::yield();
}

// Pieces each default-schedule block is claimed in. More pieces bound
// the time a preempted or late thread can hold a launch back; fewer keep
// the claims of a launch-bound job cheap.
constexpr std::size_t kPiecesPerBlock = 8;

// Range word fields (see ThreadPool::Range).
constexpr std::uint64_t kInOrder = std::uint64_t{1} << 31;
constexpr std::uint64_t kFrontOne = std::uint64_t{1} << 16;
// Claims of one job are numbered in 15 bits (the range word's front).
constexpr std::size_t kMaxClaims = 0x7fff;

constexpr std::uint64_t pack(std::uint32_t epoch, bool in_order,
                             std::size_t front, std::size_t back) {
  return (static_cast<std::uint64_t>(epoch) << 32) | (in_order ? kInOrder : 0) |
         (static_cast<std::uint64_t>(front) << 16) | back;
}

// Start of part `i` when `total` is split into `parts` contiguous parts
// whose sizes differ by at most one.
constexpr std::size_t part_begin(std::size_t total, std::size_t parts,
                                 std::size_t i) {
  return i * (total / parts) + std::min(i, total % parts);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers <= 1) return;  // inline execution
  ranges_ = std::make_unique<Range[]>(workers);
  threads_.reserve(workers - 1);
  // Each thread starts from the construction-time epoch, not from whatever
  // epoch_ holds when it first gets to run: a job published before then
  // must still count as new to it.
  const std::uint32_t epoch = epoch_.load(std::memory_order_relaxed);
  for (std::size_t w = 1; w < workers; ++w) {
    threads_.emplace_back([this, w, epoch] { worker_loop(w, epoch); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  epoch_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::claim(std::uint32_t epoch, std::size_t worker,
                       std::size_t& index) {
  // The home range first, then the others in turn.
  const std::size_t used = ranges_used_.load(std::memory_order_relaxed);
  for (std::size_t k = 0; k < used; ++k) {
    const std::size_t r = (worker + k) % used;
    std::atomic<std::uint64_t>& word = ranges_[r].word;
    std::uint64_t c = word.load(std::memory_order_acquire);
    for (;;) {
      const std::size_t front = (c >> 16) & kMaxClaims;
      const std::size_t back = c & kMaxClaims;
      if (static_cast<std::uint32_t>(c >> 32) != epoch || front == back) break;
      const bool from_front = r == worker || (c & kInOrder) != 0;
      if (word.compare_exchange_weak(c, from_front ? c + kFrontOne : c - 1,
                                     std::memory_order_acquire,
                                     std::memory_order_acquire)) {
        // The job cannot complete before this claim is finished, so its
        // fields stay put until then.
        index = from_front ? front : back - 1;
        return true;
      }
    }
  }
  return false;
}

void ThreadPool::execute(std::size_t index, std::size_t worker) const {
  std::size_t begin = 0;
  std::size_t end = 0;
  if (chunk_ == 0) {
    // Claim `index` is piece index % pieces_ of block index / pieces_.
    const std::size_t block = index / pieces_;
    const std::size_t piece = index % pieces_;
    const std::size_t first = part_begin(n_, blocks_, block);
    const std::size_t size = part_begin(n_, blocks_, block + 1) - first;
    begin = first + part_begin(size, pieces_, piece);
    end = first + part_begin(size, pieces_, piece + 1);
  } else {
    begin = index * chunk_;
    end = std::min(n_, begin + chunk_);
  }
  invoke_(ctx_, begin, end, worker);
}

void ThreadPool::finish(std::size_t claims) {
  pending_.fetch_sub(static_cast<std::uint32_t>(claims), std::memory_order_release);
}

void ThreadPool::worker_loop(std::size_t worker, std::uint32_t seen_epoch) {
  for (;;) {
    if (!spin_until([&] {
          return epoch_.load(std::memory_order_acquire) != seen_epoch;
        })) {
      epoch_.wait(seen_epoch, std::memory_order_acquire);
    }
    // Adopt the epoch before testing stop_: had stop_ been read first, a
    // shutdown landing in between would be adopted as a job epoch, and
    // this thread would then wait for a bump that never comes.
    seen_epoch = epoch_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    std::size_t index = 0;
    if (claim(seen_epoch, worker, index)) {
      std::size_t finished = 0;
      {
        // Mirror the dispatcher's profiling scope (if any) onto this pool
        // thread while it runs its share. The share is read only after a
        // successful claim, and the scope closes before finish() lets the
        // caller return.
        profile::ShareScope profile_share(share_);
        try {
          do {
            execute(index, worker);
            ++finished;
          } while (claim(seen_epoch, worker, index));
        } catch (...) {
          finished += 1 + fail(seen_epoch, worker);
        }
      }
      finish(finished);
    }
    // Stay awake while other threads finish the job, so that the kSpin
    // above counts from the job's end: the next launch of a filter step
    // usually follows within microseconds.
    wait_awake([&] {
      return epoch_.load(std::memory_order_acquire) != seen_epoch ||
             pending_.load(std::memory_order_relaxed) == 0;
    });
  }
}

void ThreadPool::dispatch(std::size_t n, std::size_t chunk, Invoke invoke,
                          void* ctx) {
  if (n == 0) return;
  jobs_executed_.fetch_add(1, std::memory_order_relaxed);
  indices_executed_.fetch_add(n, std::memory_order_relaxed);
  std::uint64_t depth = max_queue_depth_.load(std::memory_order_relaxed);
  while (n > depth && !max_queue_depth_.compare_exchange_weak(
                          depth, n, std::memory_order_relaxed)) {
  }
  std::size_t blocks = 1;
  std::size_t pieces = 1;
  std::size_t claims = 0;
  if (chunk == 0) {
    blocks = std::min({n, worker_count(), kMaxClaims});
    pieces = std::min({kPiecesPerBlock, n / blocks, kMaxClaims / blocks});
    claims = blocks * pieces;
  } else {
    chunk = std::max(chunk, (n - 1) / kMaxClaims + 1);
    claims = (n - 1) / chunk + 1;
  }
  if (claims == 1 || threads_.empty() ||
      busy_.exchange(true, std::memory_order_acquire)) {
    invoke(ctx, 0, n, 0);
    return;
  }
  invoke_ = invoke;
  ctx_ = ctx;
  n_ = n;
  chunk_ = chunk;
  blocks_ = blocks;
  pieces_ = pieces;
  share_ = profile::current_share();
  pending_.store(static_cast<std::uint32_t>(claims), std::memory_order_relaxed);
  // Only the holder of busy_ (and the destructor) moves the epoch, so the
  // next value is known before it is published. Claim 0, the front of
  // range 0, is the caller's before any pool thread can see the job.
  const std::uint32_t epoch = epoch_.load(std::memory_order_relaxed) + 1;
  ranges_used_.store(blocks, std::memory_order_relaxed);
  for (std::size_t r = 0; r < blocks; ++r) {
    const std::size_t front = r * pieces + (r == 0 ? 1 : 0);
    const std::size_t back = chunk == 0 ? (r + 1) * pieces : claims;
    ranges_[r].word.store(pack(epoch, chunk != 0, front, back),
                          std::memory_order_release);
  }
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  epoch_.notify_all();

  std::size_t taken = 1;  // claim 0
  std::size_t index = 0;
  try {
    for (;;) {
      execute(index, 0);
      if (!claim(epoch, 0, index)) break;
      ++taken;
    }
  } catch (...) {
    taken += fail(epoch, 0);
  }
  complete(taken);
}

std::size_t ThreadPool::fail(std::uint32_t epoch, std::size_t worker) {
  if (!failed_.exchange(true, std::memory_order_relaxed)) {
    error_ = std::current_exception();
  }
  std::size_t withdrawn = 0;
  std::size_t index = 0;
  while (claim(epoch, worker, index)) ++withdrawn;
  return withdrawn;
}

void ThreadPool::complete(std::size_t taken) {
  // Wait out the claims other threads hold, so no thread still runs `fn`
  // (and every failing thread has stored its exception) once run() returns
  // or throws.
  if (pending_.fetch_sub(static_cast<std::uint32_t>(taken),
                         std::memory_order_acq_rel) != taken) {
    wait_awake([&] { return pending_.load(std::memory_order_acquire) == 0; });
  }
  std::exception_ptr error;
  if (failed_.load(std::memory_order_relaxed)) {
    error = std::exchange(error_, nullptr);
    failed_.store(false, std::memory_order_relaxed);
  }
  busy_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

namespace {
std::atomic<std::size_t> g_worker_override{0};  // 0 = no override
}  // namespace

void ThreadPool::set_default_worker_count(std::size_t workers) {
  if (workers > static_cast<std::size_t>(kMaxWorkers)) {
    workers = static_cast<std::size_t>(kMaxWorkers);
  }
  g_worker_override.store(workers, std::memory_order_relaxed);
}

std::size_t ThreadPool::default_worker_count() {
  if (const std::size_t forced = g_worker_override.load(std::memory_order_relaxed);
      forced != 0) {
    return forced;
  }
  if (const char* env = std::getenv("ESTHERA_WORKERS")) {
    // Accept only a fully numeric positive value; anything else ("", "abc",
    // "12abc", "0x4", "-3", "0", or an absurdly large number) falls back to
    // hardware_concurrency instead of spawning a garbage-sized pool.
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    // strtol itself skips leading whitespace; require a digit up front so
    // the accepted grammar really is digits-only.
    const bool parsed = env[0] >= '0' && env[0] <= '9' && end != env &&
                        end != nullptr && *end == '\0' && errno == 0;
    if (parsed && v > 0 && v <= kMaxWorkers) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace esthera::mcore
