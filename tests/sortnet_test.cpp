// Sorting-network and scan tests: the lock-step bitonic sort, permutation
// tracking, row gathering, Blelloch scan and the reductions are verified
// against their serial oracles over parameterized sizes and input patterns,
// and the filters' local-sort lane kernel against a one-thread-per-lane
// SIMT run of the same network.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <random>
#include <vector>

#include "device/backend.hpp"
#include "device/simt.hpp"
#include "prng/mt19937.hpp"
#include "sortnet/bitonic.hpp"
#include "sortnet/scan.hpp"

namespace {

using namespace esthera;

TEST(Pow2, IsPow2) {
  EXPECT_FALSE(sortnet::is_pow2(0));
  EXPECT_TRUE(sortnet::is_pow2(1));
  EXPECT_TRUE(sortnet::is_pow2(2));
  EXPECT_FALSE(sortnet::is_pow2(3));
  EXPECT_TRUE(sortnet::is_pow2(1024));
  EXPECT_FALSE(sortnet::is_pow2(1023));
}

TEST(Pow2, NextPow2) {
  EXPECT_EQ(sortnet::next_pow2(1), 1u);
  EXPECT_EQ(sortnet::next_pow2(2), 2u);
  EXPECT_EQ(sortnet::next_pow2(3), 4u);
  EXPECT_EQ(sortnet::next_pow2(513), 1024u);
  EXPECT_EQ(sortnet::next_pow2(1024), 1024u);
}

enum class Pattern { kRandom, kSorted, kReverse, kConstant, kFewUniques, kAlternating };

std::vector<float> make_input(std::size_t n, Pattern pattern, std::uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> dist(-100.0f, 100.0f);
  std::vector<float> v(n);
  switch (pattern) {
    case Pattern::kRandom:
      for (auto& x : v) x = dist(gen);
      break;
    case Pattern::kSorted:
      for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<float>(i);
      break;
    case Pattern::kReverse:
      for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<float>(n - i);
      break;
    case Pattern::kConstant:
      for (auto& x : v) x = 3.5f;
      break;
    case Pattern::kFewUniques:
      for (auto& x : v) x = static_cast<float>(gen() % 4);
      break;
    case Pattern::kAlternating:
      for (std::size_t i = 0; i < n; ++i) v[i] = (i % 2 == 0) ? 1.0f : -1.0f;
      break;
  }
  return v;
}

class BitonicTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, Pattern>> {};

TEST_P(BitonicTest, SortsAscending) {
  const auto [n, pattern] = GetParam();
  auto v = make_input(n, pattern, 42);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  sortnet::bitonic_sort(std::span<float>(v));
  EXPECT_EQ(v, expected);
}

TEST_P(BitonicTest, SortsDescendingWithGreater) {
  const auto [n, pattern] = GetParam();
  auto v = make_input(n, pattern, 43);
  auto expected = v;
  std::sort(expected.begin(), expected.end(), std::greater<float>());
  sortnet::bitonic_sort(std::span<float>(v), std::greater<float>());
  EXPECT_EQ(v, expected);
}

TEST_P(BitonicTest, ByKeyKeepsPermutationConsistent) {
  const auto [n, pattern] = GetParam();
  auto keys = make_input(n, pattern, 44);
  const auto original = keys;
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  sortnet::bitonic_sort_by_key(std::span<float>(keys), std::span<std::uint32_t>(idx));
  // Keys sorted.
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  // idx is a permutation.
  auto perm = idx;
  std::sort(perm.begin(), perm.end());
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(perm[i], i);
  // idx maps original positions to sorted keys.
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(keys[i], original[idx[i]]);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndPatterns, BitonicTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 4, 8, 16, 64, 256, 1024),
                       ::testing::Values(Pattern::kRandom, Pattern::kSorted,
                                         Pattern::kReverse, Pattern::kConstant,
                                         Pattern::kFewUniques,
                                         Pattern::kAlternating)));

TEST(GatherRows, ReordersStateVectors) {
  const std::size_t dim = 3;
  std::vector<double> src = {0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3};
  std::vector<double> dst(src.size());
  const std::vector<std::uint32_t> perm = {2, 0, 3, 1};
  sortnet::gather_rows<double, std::uint32_t>(src, dst, perm, dim);
  const std::vector<double> expected = {2, 2, 2, 0, 0, 0, 3, 3, 3, 1, 1, 1};
  EXPECT_EQ(dst, expected);
}

TEST(GatherRows, WithDuplicatesReplicates) {
  const std::size_t dim = 2;
  std::vector<int> src = {10, 11, 20, 21};
  std::vector<int> dst(4);
  const std::vector<std::uint32_t> perm = {1, 1};
  sortnet::gather_rows<int, std::uint32_t>(src, dst, perm, dim);
  EXPECT_EQ(dst, (std::vector<int>{20, 21, 20, 21}));
}

class ScanTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanTest, BlellochMatchesSerialExclusive) {
  const std::size_t n = GetParam();
  std::mt19937 gen(7);
  std::vector<double> v(n);
  for (auto& x : v) x = static_cast<double>(gen() % 100);
  std::vector<double> expected(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = acc;
    acc += v[i];
  }
  const double total = sortnet::blelloch_exclusive_scan(std::span<double>(v));
  EXPECT_DOUBLE_EQ(total, acc);
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(Pow2Sizes, ScanTest,
                         ::testing::Values<std::size_t>(1, 2, 4, 8, 32, 128, 1024));

TEST(Scan, InclusiveAnySize) {
  std::vector<float> v = {1, 2, 3, 4, 5, 6, 7};
  const float total = sortnet::inclusive_scan_inplace(std::span<float>(v));
  EXPECT_FLOAT_EQ(total, 28.0f);
  EXPECT_EQ(v, (std::vector<float>{1, 3, 6, 10, 15, 21, 28}));
}

TEST(Scan, EmptyAndSingle) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(sortnet::blelloch_exclusive_scan(std::span<double>(empty)), 0.0);
  std::vector<double> one = {5.0};
  EXPECT_DOUBLE_EQ(sortnet::blelloch_exclusive_scan(std::span<double>(one)), 5.0);
  EXPECT_DOUBLE_EQ(one[0], 0.0);
}

TEST(Reduce, MaxIndexFirstOfTies) {
  const std::vector<double> v = {1.0, 5.0, 3.0, 5.0, 2.0};
  EXPECT_EQ(sortnet::reduce_max_index<double>(v), 1u);
}

TEST(Reduce, MaxIndexSingle) {
  const std::vector<float> v = {-2.0f};
  EXPECT_EQ(sortnet::reduce_max_index<float>(v), 0u);
}

TEST(Reduce, TreeSumMatchesSerial) {
  std::mt19937 gen(9);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 64u, 100u, 1000u}) {
    std::vector<double> v(n);
    double serial = 0.0;
    for (auto& x : v) {
      x = static_cast<double>(gen() % 1000) / 7.0;
      serial += x;
    }
    EXPECT_NEAR(sortnet::tree_reduce_sum<double>(v), serial, 1e-9) << "n=" << n;
  }
}

std::vector<float> pseudo_floats(std::size_t n, std::uint32_t seed) {
  prng::Mt19937 gen(seed);
  std::vector<float> v(n);
  // Include exact duplicates so tie-handling differences would show.
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(gen() % 97) * 0.125f;
  }
  return v;
}

/// The local-sort device program on real lane threads: descending
/// (key, index) bitonic sort, one barrier per compare-exchange round.
void simt_sort_pairs_desc(std::vector<float>& keys,
                          std::vector<std::uint32_t>& idx) {
  const std::size_t n = keys.size();
  device::run_simt_group(n, [&](device::LaneContext& ctx) {
    const std::size_t i = ctx.lane_id();
    for (std::size_t k = 2; k <= n; k <<= 1) {
      for (std::size_t j = k >> 1; j > 0; j >>= 1) {
        const std::size_t l = i ^ j;
        if (l > i) {
          const bool ascending = (i & k) == 0;
          if ((keys[l] > keys[i]) == ascending) {
            std::swap(keys[i], keys[l]);
            std::swap(idx[i], idx[l]);
          }
        }
        ctx.barrier();
      }
    }
  });
}

TEST(LaneOpsSort, SortPairsDescMatchesSimtLanes) {
  // The kernel the filters' local sort calls, lane by lane, against the
  // same network on one real thread per lane: keys, the permutation and
  // the schedule's closed-form work tally must all agree.
  const auto& ops = device::lane_ops<float>();
  for (const std::size_t n : {2u, 8u, 64u, 512u}) {
    const auto input = pseudo_floats(n, 11 + static_cast<std::uint32_t>(n));
    std::vector<std::uint32_t> iota(n);
    std::iota(iota.begin(), iota.end(), 0u);

    auto k_lanes = input;
    auto k_simt = input;
    auto i_lanes = iota;
    auto i_simt = iota;
    sortnet::NetCounters nc;
    ops.sort_pairs_desc(k_lanes, i_lanes, &nc);
    simt_sort_pairs_desc(k_simt, i_simt);

    EXPECT_EQ(k_lanes, k_simt) << "n=" << n;
    EXPECT_EQ(i_lanes, i_simt) << "n=" << n;
    EXPECT_TRUE(std::is_sorted(k_lanes.begin(), k_lanes.end(),
                               std::greater<float>()))
        << "n=" << n;
    std::size_t log2n = 0;
    while ((std::size_t{1} << log2n) < n) ++log2n;
    const std::uint64_t phases = log2n * (log2n + 1) / 2;
    EXPECT_EQ(nc.lockstep_phases, phases) << "n=" << n;
    EXPECT_EQ(nc.compare_exchanges, phases * (n / 2)) << "n=" << n;
  }
}

}  // namespace
