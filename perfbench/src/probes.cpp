// Host measurements and the layer probes shared by every workload: empty
// Device::launch / ThreadPool::run round trips and the default backend's
// LaneOps on fresh random input.
#include "probes.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>
#include <random>
#include <span>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "device/backend.hpp"
#include "device/device.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (auto& [n, vu] : items_) {
    if (n == name) {
      vu = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

void Verdict::check(bool ok, const std::string& what) {
  (ok ? passed_ : failures_).push_back(what);
}

double peak_rss_mb() {
  // The kernel's high-water mark of this process image (VmHWM, in kB).
  // getrusage()'s ru_maxrss is not it: Linux carries the peak of the image
  // that called execve() into the new one, so under the Python launcher a
  // small workload would report the launcher's resident set.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double calib_score() {
  // Median of five passes of a dependent multiply-xorshift chain: pure
  // integer latency, no memory traffic, so it tracks the core's clock and
  // whatever else competes for it.
  constexpr std::uint64_t kIters = 4'000'000;
  std::vector<double> rates;
  volatile std::uint64_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(pass);
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x ^= x >> 29;
      x *= 0xbf58476d1ce4e5b9ull;
    }
    rates.push_back(static_cast<double>(kIters) / since(t0) / 1e6);
    sink = sink + x;
  }
  return median(rates);
}

std::string host_stamp() {
  utsname u{};
  std::ostringstream os;
  if (uname(&u) == 0) os << u.sysname << ' ' << u.release << ' ' << u.machine;
  os << " cpus=" << std::thread::hardware_concurrency() << " cxx=" << __VERSION__;
  return os.str();
}

double launch_empty_us(std::size_t workers, std::size_t groups, double seconds) {
  esthera::device::Device dev(workers);
  std::vector<double> us;
  const auto t_end = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < t_end || us.size() < 1000) {
    const auto t0 = Clock::now();
    {
      ScopedSpan span("Device::launch");
      dev.launch(groups, [](std::size_t) {});
    }
    us.push_back(since(t0) * 1e6);
  }
  return median(us);
}

double pool_run_empty_us(std::size_t workers, std::size_t indices, double seconds) {
  esthera::mcore::ThreadPool pool(workers);
  std::vector<double> us;
  const auto t_end = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < t_end || us.size() < 1000) {
    const auto t0 = Clock::now();
    {
      ScopedSpan span("ThreadPool::run");
      pool.run(indices, [](std::size_t, std::size_t) {});
    }
    us.push_back(since(t0) * 1e6);
  }
  return median(us);
}

LaneTimes lane_ops_ns(std::uint64_t seed, double seconds) {
  // 1024 pristine 64-lane inputs, restored into the working set outside
  // the timed region after every pass: every timed call sees input it has
  // not seen since the previous pass, far more patterns than a branch
  // predictor holds.
  constexpr std::size_t kLanes = 64;
  constexpr std::size_t kInputs = 1024;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-50.0f, 0.0f);
  std::vector<float> pristine(kLanes * kInputs);
  for (auto& v : pristine) v = dist(rng);
  std::vector<float> keys(pristine.size());
  std::vector<std::uint32_t> idx(pristine.size());
  const auto& ops = esthera::device::lane_ops<float>(esthera::device::Backend::kAuto);

  const auto pass = [&](bool sort) {
    std::copy(pristine.begin(), pristine.end(), keys.begin());
    for (std::size_t i = 0; i < idx.size(); ++i) {
      idx[i] = static_cast<std::uint32_t>(i % kLanes);
    }
    const auto t0 = Clock::now();
    {
      ScopedSpan span(sort ? "LaneOps::sort_pairs_desc x1024" : "LaneOps::exclusive_scan x1024");
      for (std::size_t k = 0; k < kInputs; ++k) {
        std::span<float> kk(keys.data() + k * kLanes, kLanes);
        if (sort) {
          ops.sort_pairs_desc(kk, std::span<std::uint32_t>(idx.data() + k * kLanes, kLanes),
                              nullptr);
        } else {
          (void)ops.exclusive_scan(kk, nullptr);
        }
      }
    }
    return since(t0) * 1e9 / static_cast<double>(kInputs);
  };

  LaneTimes out;
  for (const bool sort : {true, false}) {
    std::vector<double> ns;
    const auto t_end = Clock::now() + std::chrono::duration<double>(seconds / 2);
    while (Clock::now() < t_end || ns.size() < 20) ns.push_back(pass(sort));
    (sort ? out.sort64_ns : out.scan64_ns) = median(ns);
  }
  return out;
}

}  // namespace perfbench
