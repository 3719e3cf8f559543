// Layer probes shared by the filter and serve workloads.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// Median wall time of one Device::launch of an empty kernel over `groups`
/// work groups on a `workers`-thread device.
[[nodiscard]] double launch_empty_us(std::size_t workers, std::size_t groups,
                                     double seconds);

/// Median wall time of one ThreadPool::run of `indices` empty indices: the
/// pool's fork/join round trip without the device's bookkeeping.
[[nodiscard]] double pool_run_empty_us(std::size_t workers, std::size_t indices,
                                       double seconds);

struct LaneTimes {
  double sort64_ns = 0.0;  ///< one 64-lane descending (key, index) sort
  double scan64_ns = 0.0;  ///< one 64-lane exclusive scan
};

/// The default backend's LaneOps<float> on fresh random input.
[[nodiscard]] LaneTimes lane_ops_ns(std::uint64_t seed, double seconds);

}  // namespace perfbench
