// The lane kernels of the emulated many-core device.
//
// The Device schedules work *groups* over a thread pool; the kernels below
// evaluate the *lanes* inside one group's lock-step phase, one lane at a
// time, over the group's contiguous lane arrays. That executes the exact
// lock-step schedule a GPU work group runs (paper Sec. VI), so the
// deterministic work.* counters (compare_exchanges, lockstep_phases,
// scan_sweeps) are the machine-independent proof of the schedule the
// regression gate relies on.
//
// Both filters call these kernels through one LaneOps table rather than
// directly, so a probe that times lane_ops() times exactly the kernels the
// filters run.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "sortnet/bitonic.hpp"
#include "sortnet/scan.hpp"

namespace esthera::device {

/// Which LaneOps table to use. There is a single lane implementation; the
/// enum stays, with its one value, because lane_ops() callers outside the
/// library name it. A second value belongs here only when a second
/// implementation (say, fixed point) wins end to end.
enum class Backend : std::uint8_t {
  kAuto,  ///< the one lane-by-lane implementation
};

namespace detail {

template <typename T>
void sort_pairs_desc(std::span<T> keys, std::span<std::uint32_t> idx,
                     sortnet::NetCounters* nc) {
  sortnet::bitonic_sort_by_key<T, std::uint32_t>(keys, idx, std::greater<T>(),
                                                 nc);
}

/// Weighting phase over one group's contiguous lane arrays:
/// lw_out[i] = lw_in[i] + loglik[i].
template <typename T>
void weigh_lanes(std::span<const T> lw_in, std::span<const T> loglik,
                 std::span<T> lw_out) {
  for (std::size_t i = 0; i < lw_out.size(); ++i) {
    lw_out[i] = lw_in[i] + loglik[i];
  }
}

}  // namespace detail

/// The phase kernels over one work group's contiguous lane arrays. Scan
/// signature doubles as resample::ScanFn so the cumulative-weight builds
/// inside the resamplers run the same scan as everything else.
template <typename T>
struct LaneOps {
  /// Descending bitonic sort of (key, index) pairs - the local-sort kernel.
  void (*sort_pairs_desc)(std::span<T> keys, std::span<std::uint32_t> idx,
                          sortnet::NetCounters* nc);
  /// Blelloch exclusive scan in place; returns the total.
  T (*exclusive_scan)(std::span<T> data, sortnet::NetCounters* nc);
  /// lw_out[i] = lw_in[i] + loglik[i] - the weighting phase.
  void (*weigh)(std::span<const T> lw_in, std::span<const T> loglik,
                std::span<T> lw_out);
};

/// The LaneOps table.
template <typename T>
[[nodiscard]] inline const LaneOps<T>& lane_ops(Backend = Backend::kAuto) {
  static const LaneOps<T> kOps{&detail::sort_pairs_desc<T>,
                               &sortnet::blelloch_exclusive_scan<T>,
                               &detail::weigh_lanes<T>};
  return kOps;
}

}  // namespace esthera::device
