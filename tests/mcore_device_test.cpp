// Host-runtime tests: the thread pool's exactly-once index guarantee under
// varying worker counts and chunk sizes, and the device emulator's launch
// semantics (kernel-boundary barriers, group coverage).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "device/device.hpp"
#include "device/platform.hpp"
#include "mcore/thread_pool.hpp"

namespace {

using namespace esthera;

class PoolParamTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PoolParamTest, EveryIndexExactlyOnce) {
  const auto [workers, chunk] = GetParam();
  mcore::ThreadPool pool(workers);
  const std::size_t n = 10007;  // prime, not a multiple of any chunk
  std::vector<std::atomic<int>> hits(n);
  pool.run(
      n, [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); }, chunk);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndChunks, PoolParamTest,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 4, 7),
                       ::testing::Values<std::size_t>(1, 3, 64, 100000)));

TEST(ThreadPool, WorkerIndicesWithinRange) {
  mcore::ThreadPool pool(4);
  std::atomic<bool> ok{true};
  pool.run(5000, [&](std::size_t, std::size_t worker) {
    if (worker >= pool.worker_count()) ok = false;
  });
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(pool.worker_count(), 4u);
}

TEST(ThreadPool, InlineModeHasOneWorker) {
  mcore::ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::size_t count = 0;
  pool.run(10, [&](std::size_t, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    ++count;  // safe: inline execution is sequential
  });
  EXPECT_EQ(count, 10u);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  mcore::ThreadPool pool(2);
  bool touched = false;
  pool.run(0, [&](std::size_t, std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, BackToBackJobsDoNotInterfere) {
  mcore::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    const std::size_t n = 100 + static_cast<std::size_t>(round);
    pool.run(n, [&](std::size_t i, std::size_t) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  }
}

TEST(ThreadPool, ParallelForHelper) {
  mcore::ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(100);
  mcore::parallel_for(pool, 10, 90, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 10 && i < 90) ? 1 : 0);
  }
}

TEST(ThreadPool, DefaultWorkerCountHonorsEnv) {
  setenv("ESTHERA_WORKERS", "3", 1);
  EXPECT_EQ(mcore::ThreadPool::default_worker_count(), 3u);
  unsetenv("ESTHERA_WORKERS");
  EXPECT_GE(mcore::ThreadPool::default_worker_count(), 1u);
}

TEST(ThreadPool, DefaultWorkerCountRejectsGarbageEnv) {
  const std::size_t fallback = [] {
    unsetenv("ESTHERA_WORKERS");
    return mcore::ThreadPool::default_worker_count();
  }();
  // Malformed, non-positive, partially numeric, or absurd values must all
  // fall back to the hardware default instead of being honoured.
  for (const char* bad :
       {"", "abc", "0", "-3", "12abc", "0x4", "3.5", " 4", "99999999999999999999"}) {
    setenv("ESTHERA_WORKERS", bad, 1);
    EXPECT_EQ(mcore::ThreadPool::default_worker_count(), fallback)
        << "ESTHERA_WORKERS=\"" << bad << '"';
  }
  // The cap itself is still accepted; one past it is not.
  setenv("ESTHERA_WORKERS", "1024", 1);
  EXPECT_EQ(mcore::ThreadPool::default_worker_count(), 1024u);
  setenv("ESTHERA_WORKERS", "1025", 1);
  EXPECT_EQ(mcore::ThreadPool::default_worker_count(), fallback);
  unsetenv("ESTHERA_WORKERS");
}

TEST(ThreadPool, SetDefaultWorkerCountOverridesEnv) {
  setenv("ESTHERA_WORKERS", "3", 1);
  mcore::ThreadPool::set_default_worker_count(2);
  EXPECT_EQ(mcore::ThreadPool::default_worker_count(), 2u);
  // Requests above the cap clamp instead of spawning a garbage-sized pool.
  mcore::ThreadPool::set_default_worker_count(
      static_cast<std::size_t>(mcore::ThreadPool::kMaxWorkers) + 7);
  EXPECT_EQ(mcore::ThreadPool::default_worker_count(),
            static_cast<std::size_t>(mcore::ThreadPool::kMaxWorkers));
  // Clearing the override restores the environment-variable path.
  mcore::ThreadPool::set_default_worker_count(0);
  EXPECT_EQ(mcore::ThreadPool::default_worker_count(), 3u);
  unsetenv("ESTHERA_WORKERS");
}

TEST(ThreadPool, RepeatedSmallRunsDoNotLoseCompletionSignal) {
  // Regression hammer for the lost-wakeup race on cv_done_: a worker that
  // finished the last index used to notify without holding the mutex, so
  // the caller could miss the signal and block forever. Many short jobs
  // with more workers than work maximize the window. Run under TSan to
  // check the synchronization, and under the ~wall-clock ctest timeout to
  // catch a deadlock regression.
  mcore::ThreadPool pool(8);
  std::atomic<int> total{0};
  for (int round = 0; round < 2000; ++round) {
    pool.run(3, [&](std::size_t, std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 6000);
}

TEST(ThreadPool, ConcurrentPoolsDoNotInterfere) {
  // Two pools hammered from two threads: all state must be per-pool.
  const auto hammer = [](mcore::ThreadPool& pool, std::atomic<long>& sum) {
    for (int round = 0; round < 500; ++round) {
      pool.run(16, [&](std::size_t i, std::size_t) {
        sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
      });
    }
  };
  mcore::ThreadPool a(4), b(4);
  std::atomic<long> sa{0}, sb{0};
  std::thread ta([&] { hammer(a, sa); });
  std::thread tb([&] { hammer(b, sb); });
  ta.join();
  tb.join();
  EXPECT_EQ(sa.load(), 500L * 120L);
  EXPECT_EQ(sb.load(), 500L * 120L);
}

TEST(ThreadPool, RunRightAfterConstructionCompletes) {
  // Startup race: a pool thread that took its first epoch from whatever
  // the pool held when the thread got to run (instead of the
  // construction-time epoch) would miss a job published before then and
  // leave the caller waiting for its claim forever. Many fresh pools, each
  // dispatching at once, hit that window; the ctest timeout catches a hang.
  for (int round = 0; round < 200; ++round) {
    mcore::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(8);
    pool.run(8, [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(ThreadPool, SingleIndexRunsOnCallingThread) {
  // A one-index launch is the caller's alone: it never waits for (or is
  // handed to) a pool thread, awake or asleep.
  mcore::ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  for (int round = 0; round < 100; ++round) {
    std::size_t worker = 99;
    std::thread::id ran_on;
    pool.run(1, [&](std::size_t, std::size_t w) {
      worker = w;
      ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(ran_on, caller);
  }
}

TEST(ThreadPool, ConcurrentCallersOnOnePoolSeeEveryIndexOnce) {
  // Two threads dispatching on the same pool at the same time: each job
  // must still cover each of its own indices exactly once.
  mcore::ThreadPool pool(4);
  constexpr std::size_t kN = 97;
  const auto hammer = [&pool](std::vector<std::atomic<int>>& hits) {
    for (int round = 0; round < 300; ++round) {
      pool.run(kN, [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); },
               round % 2 == 0 ? 0 : 3);
    }
  };
  std::vector<std::atomic<int>> ha(kN), hb(kN);
  std::thread ta([&] { hammer(ha); });
  std::thread tb([&] { hammer(hb); });
  ta.join();
  tb.join();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(ha[i].load(), 300) << "index " << i;
    EXPECT_EQ(hb[i].load(), 300) << "index " << i;
  }
}

TEST(ThreadPool, DefaultScheduleGivesEachWorkerOneContiguousBlock) {
  // With no chunk the launch is cut into worker_count() contiguous blocks,
  // and worker w works through block w. A thread takes pieces of another
  // block only once its own is done, so here the four participants move in
  // lockstep: each holds its k-th index until all four have reached theirs.
  // No one then runs out of work while another block still has a piece
  // left, so each worker's indices must form one contiguous range of
  // n / 4 indices, its own block w, the same in every launch.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kN = 1000;
  mcore::ThreadPool pool(kWorkers);
  for (int launch = 0; launch < 3; ++launch) {
    std::vector<std::size_t> owner(kN, kWorkers);
    std::array<std::size_t, kWorkers> done{};
    std::vector<std::atomic<std::size_t>> reached(kN / kWorkers);
    pool.run(kN, [&](std::size_t i, std::size_t w) {
      std::atomic<std::size_t>& step = reached[std::min(done[w]++, reached.size() - 1)];
      step.fetch_add(1);
      while (step.load() < kWorkers) std::this_thread::yield();
      owner[i] = w;
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(owner[i], i / (kN / kWorkers))
          << "launch " << launch << " index " << i;
    }
  }
}

TEST(ThreadPool, StalledWorkerLosesTheRestOfItsBlock) {
  // A participant held up inside its block (preempted, say) must not hold
  // back the rest of it: the caller stops on its first index until a pool
  // thread has run some other index of block 0, which only happens if the
  // pool threads take over pieces of that block once their own are done.
  constexpr std::size_t kN = 64;
  mcore::ThreadPool pool(4);
  std::atomic<bool> taken_over{false};
  pool.run(kN, [&](std::size_t i, std::size_t w) {
    if (i == 0) {
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!taken_over.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    } else if (w != 0 && i < kN / 4) {
      taken_over.store(true);
    }
  });
  EXPECT_TRUE(taken_over.load());
}

TEST(ThreadPool, StatsCountJobsIndicesAndDeepestJob) {
  // jobs_executed / indices_executed / max_queue_depth count every
  // non-empty run() the same way under every schedule and worker count.
  for (const std::size_t workers : {1u, 4u}) {
    mcore::ThreadPool pool(workers);
    const auto noop = [](std::size_t, std::size_t) {};
    pool.run(0, noop);
    pool.run(5, noop);
    pool.run(100, noop, 7);
    pool.run(1, noop);
    pool.run(40, noop, 1);
    const auto stats = pool.stats();
    EXPECT_EQ(stats.jobs_executed, 4u) << workers << " workers";
    EXPECT_EQ(stats.indices_executed, 146u) << workers << " workers";
    EXPECT_EQ(stats.max_queue_depth, 100u) << workers << " workers";
  }
}

TEST(ThreadPool, CallerExceptionPropagatesAfterPoolThreadsFinish) {
  // A throw on the calling thread leaves run() only once no pool thread
  // still runs the job, and the pool stays usable afterwards.
  mcore::ThreadPool pool(4);
  std::atomic<int> running{0};
  EXPECT_THROW(pool.run(64,
                        [&](std::size_t i, std::size_t w) {
                          running.fetch_add(1);
                          if (w == 0 && i == 0) {
                            running.fetch_sub(1);
                            throw std::runtime_error("kernel failed");
                          }
                          std::this_thread::yield();
                          running.fetch_sub(1);
                        },
                        1),
               std::runtime_error);
  EXPECT_EQ(running.load(), 0);
  std::atomic<int> hits{0};
  pool.run(10, [&](std::size_t, std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 10);
}

TEST(ThreadPool, PoolThreadExceptionReachesCaller) {
  // A throw on a pool thread, not the caller, must leave run() on the
  // calling thread instead of terminating the process. The caller holds
  // its first index until a pool thread has thrown, so the throw is sure
  // to start off the caller.
  mcore::ThreadPool pool(4);
  std::atomic<bool> thrown{false};
  std::atomic<int> running{0};
  std::string what;
  try {
    pool.run(64, [&](std::size_t, std::size_t w) {
      running.fetch_add(1);
      if (w != 0 && !thrown.exchange(true)) {
        running.fetch_sub(1);
        throw std::runtime_error("pool thread failed");
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (w == 0 && !thrown.load() &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      running.fetch_sub(1);
    });
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_TRUE(thrown.load());
  EXPECT_EQ(what, "pool thread failed");
  EXPECT_EQ(running.load(), 0);
  // The failed job's exception does not leak into the next job.
  std::atomic<int> hits{0};
  pool.run(64, [&](std::size_t, std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 64);
}

TEST(Device, LaunchCoversAllGroups) {
  device::Device dev(2);
  std::vector<std::atomic<int>> hits(64);
  dev.launch(64, [&](std::size_t g) { hits[g].fetch_add(1); });
  for (std::size_t g = 0; g < 64; ++g) EXPECT_EQ(hits[g].load(), 1);
}

TEST(Device, LaunchIsABarrier) {
  device::Device dev(4);
  std::vector<int> data(128, 0);
  dev.launch(128, [&](std::size_t g) { data[g] = 1; });
  // After launch returns, every group's write is visible.
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), 128);
  dev.launch(128, [&](std::size_t g) { data[g] += 1; });
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), 256);
}

TEST(Device, WorkerCountReported) {
  device::Device dev(3);
  EXPECT_EQ(dev.worker_count(), 3u);
}

TEST(Platform, PresetsAreWellFormed) {
  const auto presets = device::platform_presets();
  ASSERT_GE(presets.size(), 4u);
  for (const auto& p : presets) {
    EXPECT_FALSE(p.name.empty());
    EXPECT_GT(p.max_group_size, 0u);
    EXPECT_LE(p.default_group_size, p.max_group_size);
  }
}

TEST(Platform, LookupByName) {
  const auto& p = device::platform_by_name("seq-reference");
  EXPECT_EQ(p.workers, 1u);
  EXPECT_THROW((void)device::platform_by_name("emu-quantum"), std::invalid_argument);
}

TEST(Platform, HostDescriptionNonEmpty) {
  EXPECT_FALSE(device::host_description().empty());
}

}  // namespace
