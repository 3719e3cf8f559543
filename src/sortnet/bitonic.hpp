// Bitonic sorting network, executed as the fixed lock-step schedule a GPU
// work group would run (paper Sec. VI-C: local sort of sub-filter weights
// with an index array tracking the permutation). Every (k, j) phase is a
// barrier-separated round of independent compare-exchanges; we evaluate the
// lanes of each round sequentially, which executes the identical schedule.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace esthera::sortnet {

/// Deterministic work tally for the lock-step device algorithms: every
/// count depends only on the problem size (and, for scans, on whether the
/// caller scanned at all) -- never on thread scheduling or wall-clock.
/// Callers pass a per-group instance into the sort/scan routines and fold
/// the totals into the telemetry registry's machine-independent `work.*`
/// counters, the cost proxies the bench regression gate diffs.
struct NetCounters {
  std::uint64_t lockstep_phases = 0;    ///< barrier-separated (k, j) sort rounds
  std::uint64_t compare_exchanges = 0;  ///< compare-exchange lanes evaluated
  std::uint64_t scan_sweeps = 0;        ///< Blelloch up/down-sweep rounds
};

/// True when n is a power of two (and nonzero).
constexpr bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// Sorts `keys` ascending under `cmp` using the bitonic network.
/// Requires keys.size() to be a power of two (sub-filter sizes are).
template <typename K, typename Compare = std::less<K>>
void bitonic_sort(std::span<K> keys, Compare cmp = {}, NetCounters* nc = nullptr) {
  const std::size_t n = keys.size();
  if (n <= 1) return;
  assert(is_pow2(n) && "bitonic_sort requires a power-of-two size");
  for (std::size_t k = 2; k <= n; k <<= 1) {
    for (std::size_t j = k >> 1; j > 0; j >>= 1) {
      if (nc) {
        ++nc->lockstep_phases;
        nc->compare_exchanges += n / 2;  // lanes with l > i per phase
      }
      for (std::size_t i = 0; i < n; ++i) {  // one lane per element
        const std::size_t l = i ^ j;
        if (l <= i) continue;
        const bool ascending = (i & k) == 0;
        if (cmp(keys[l], keys[i]) == ascending) {
          using std::swap;
          swap(keys[i], keys[l]);
        }
      }
    }
  }
}

/// Sorts `keys` ascending under `cmp`, applying the same exchanges to the
/// index array `idx` so that callers can gather full particle states by the
/// resulting permutation. Requires a power-of-two size.
template <typename K, typename I, typename Compare = std::less<K>>
void bitonic_sort_by_key(std::span<K> keys, std::span<I> idx, Compare cmp = {},
                         NetCounters* nc = nullptr) {
  const std::size_t n = keys.size();
  assert(idx.size() == n);
  if (n <= 1) return;
  assert(is_pow2(n) && "bitonic_sort_by_key requires a power-of-two size");
  for (std::size_t k = 2; k <= n; k <<= 1) {
    for (std::size_t j = k >> 1; j > 0; j >>= 1) {
      if (nc) {
        ++nc->lockstep_phases;
        nc->compare_exchanges += n / 2;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t l = i ^ j;
        if (l <= i) continue;
        const bool ascending = (i & k) == 0;
        if (cmp(keys[l], keys[i]) == ascending) {
          using std::swap;
          swap(keys[i], keys[l]);
          swap(idx[i], idx[l]);
        }
      }
    }
  }
}

/// Gathers `src` rows into `dst` by `perm`: dst row i = src row perm[i].
/// Rows are `dim` contiguous values. This is the paper's "apply the index
/// array with non-contiguous reads, contiguous writes" reorder step.
template <typename T, typename I>
void gather_rows(std::span<const T> src, std::span<T> dst, std::span<const I> perm,
                 std::size_t dim) {
  assert(dst.size() == perm.size() * dim);
  assert(src.size() >= dst.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    // A corrupt permutation entry must not read out of bounds.
    assert(static_cast<std::size_t>(perm[i]) * dim + dim <= src.size());
    const T* in = src.data() + static_cast<std::size_t>(perm[i]) * dim;
    T* out = dst.data() + i * dim;
    for (std::size_t d = 0; d < dim; ++d) out[d] = in[d];
  }
}

}  // namespace esthera::sortnet
