// Unit tests of the benchmark's own statistics: the percentile rule, the
// backlog-growth test and the rate ladder.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankOfOneToHundred) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.50), 50.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.00), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
}

TEST(Percentile, RankIsExactDespiteBinaryRounding) {
  // 0.99 * 1000 is 990.0000000000001 in binary; the rank must stay 990.
  EXPECT_EQ(nearest_rank(1000, 0.99), 990u);
  EXPECT_EQ(nearest_rank(1001, 0.99), 991u);
}

TEST(Percentile, AtLeastTenSamplesBeyond) {
  EXPECT_EQ(min_samples_for(0.99), 1000u);
  EXPECT_EQ(min_samples_for(0.50), 20u);
  EXPECT_FALSE(supports_percentile(999, 0.99));
  EXPECT_TRUE(supports_percentile(1000, 0.99));
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_FALSE(supports_percentile(0, 0.5));
}

TEST(Percentile, TailStatesSampleSizeAndSupport) {
  const Tail a = windowed_tail(std::vector<double>(500, 1.0));
  EXPECT_EQ(a.n, 500u);
  EXPECT_FALSE(a.p99_supported);
  const Tail b = windowed_tail(std::vector<double>(2000, 2.0));
  EXPECT_TRUE(b.p99_supported);
  EXPECT_EQ(b.p99, 2.0);
}

TEST(Percentile, FailedRequestsMissEveryLimit) {
  // 15 of 1000 requests rejected (+inf): p99 lands on a rejection.
  std::vector<double> v(985, 1.0);
  v.insert(v.end(), 15, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(percentile(v, 0.99)));
  // 5 rejections leave p99 finite.
  std::vector<double> w(995, 1.0);
  w.insert(w.end(), 5, std::numeric_limits<double>::infinity());
  EXPECT_EQ(percentile(w, 0.99), 1.0);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Windowed, BurstInOneWindowDoesNotMoveTheFigures) {
  // Five windows of 2000 steps at 100 us; the third window has a burst of
  // 100 steps at 5 ms, which would own the whole-run p99.
  std::vector<double> v(10000, 100.0);
  for (std::size_t i = 4000; i < 4100; ++i) v[i] = 5000.0;
  std::vector<double> whole = v;
  EXPECT_EQ(percentile(whole, 0.99), 100.0);  // 1% exactly: rank 9900 is clean
  for (std::size_t i = 4100; i < 4150; ++i) v[i] = 5000.0;
  whole = v;
  EXPECT_EQ(percentile(whole, 0.99), 5000.0);
  const Tail t = windowed_tail(v, 2000);
  EXPECT_EQ(windows(v, 2000).size(), 5u);
  EXPECT_TRUE(t.p99_supported);
  EXPECT_EQ(t.p99, 100.0);
  EXPECT_EQ(t.n, 10000u);
}

TEST(Windowed, WindowsHoldAtLeastTheMinimum) {
  EXPECT_EQ(windows(std::vector<double>(2 * kWindowSamples - 1, 1.0)).size(), 1u);
  EXPECT_EQ(windows(std::vector<double>(3 * kWindowSamples + 7, 1.0)).size(), 3u);
  for (const auto& w : windows(std::vector<double>(3 * kWindowSamples + 7, 1.0))) {
    EXPECT_GE(w.size(), kWindowSamples);
  }
}

TEST(Windowed, RateIsTheMedianOfWindowRates) {
  WindowedSeries two(2000), three(2000);
  for (std::size_t i = 0; i < 6000; ++i) {
    // One stall: only the first 2000-step window slows down.
    const double s = i == 0 ? 1.0 : 0.001;
    if (i < 4000) two.add(s);
    three.add(s);
  }
  EXPECT_NEAR(two.rate(), (1000.0 + 2000.0 / 2.999) / 2.0, 1e-6);
  EXPECT_NEAR(three.rate(), 1000.0, 1e-6);  // the stalled window is outvoted
}

TEST(Windowed, SeriesMatchesWindowedTailOnWholeWindows) {
  std::vector<double> v;
  WindowedSeries series;
  for (std::size_t i = 0; i < 5 * kWindowSamples; ++i) {
    v.push_back(static_cast<double>((i * 7919) % 1009) + (i / kWindowSamples) * 100.0);
    series.add(v.back());
  }
  const Tail a = windowed_tail(v), b = series.tail();
  EXPECT_EQ(series.windows(), 5u);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.n, b.n);
  EXPECT_TRUE(b.p99_supported);
}

TEST(Windowed, SeriesLastWindowAbsorbsTheRemainder) {
  WindowedSeries short_run;
  for (int i = 0; i < 1500; ++i) short_run.add(1.0);
  EXPECT_EQ(short_run.windows(), 1u);  // shorter than two windows: one
  EXPECT_TRUE(short_run.tail().p99_supported);
  WindowedSeries run;
  // 2500 samples: a window of 1000 at 1.0, then 1500 at 2.0 with a 1%
  // tail of 50.0; the last window holds all 1500.
  for (int i = 0; i < 1000; ++i) run.add(1.0);
  for (int i = 0; i < 1500; ++i) run.add(i < 15 ? 50.0 : 2.0);
  EXPECT_EQ(run.windows(), 2u);
  EXPECT_EQ(run.tail().p99, (1.0 + 2.0) / 2.0);  // 15 of 1500 beyond: p99 is 2.0
  WindowedSeries tiny;
  for (int i = 0; i < 100; ++i) tiny.add(1.0);
  EXPECT_FALSE(tiny.tail().p99_supported);  // 1 sample beyond its p99
}

TEST(Backlog, SlopeOfLinearGrowth) {
  std::vector<std::pair<double, double>> pts;
  for (int i = 0; i <= 100; ++i) pts.emplace_back(i * 0.01, 500.0 * i * 0.01);
  EXPECT_NEAR(backlog_slope(pts, 0.0, 1.0), 500.0, 1e-9);
}

TEST(Backlog, StartupRampIsNotGrowth) {
  // The queue fills to a steady depth of 20 in the first 5% and stays.
  std::vector<std::pair<double, double>> pts;
  for (int i = 0; i <= 1000; ++i) {
    const double t = i * 0.001;
    pts.emplace_back(t, t < 0.05 ? 400.0 * t : 20.0);
  }
  const double slope = backlog_slope(pts, 0.0, 1.0);
  EXPECT_NEAR(slope, 0.0, 1e-9);
  EXPECT_FALSE(backlog_growing(slope, 1000.0, LadderLimits{}));
  EXPECT_TRUE(backlog_growing(100.0, 1000.0, LadderLimits{}));
}

RungResult rung(double rate, double p99, double slope = 0.0, double fail = 0.0) {
  RungResult r;
  r.rate = rate;
  r.p99_ms = p99;
  r.p99_supported = true;
  r.backlog_slope = slope;
  r.fail_frac = fail;
  return r;
}

TEST(Ladder, StopsAtFirstFailingRung) {
  std::vector<double> seen;
  const auto out = run_ladder(
      {100, 200, 300, 400, 500},
      [&](double rate) {
        seen.push_back(rate);
        // 300 fails on latency; 400 would pass again but must not run.
        return rung(rate, rate == 300 ? 25.0 : 2.0);
      },
      LadderLimits{});
  EXPECT_EQ(out.max_rate, 200.0);
  // 300 is attempted three times (the confirming retries), 400 never.
  EXPECT_EQ(seen, (std::vector<double>{100, 200, 300, 300, 300}));
  EXPECT_EQ(out.rungs.size(), 5u);
}

TEST(Ladder, TransientFailuresAreRetried) {
  int attempts_at_200 = 0;
  const auto out = run_ladder(
      {100, 200, 300},
      [&](double rate) {
        // The first two attempts at 200 hit a stall; the last retry passes.
        const bool stalled = rate == 200 && attempts_at_200++ < 2;
        return rung(rate, stalled || rate == 300 ? 40.0 : 2.0);
      },
      LadderLimits{});
  EXPECT_EQ(attempts_at_200, 3);
  EXPECT_EQ(out.max_rate, 200.0);
}

TEST(Ladder, GrowingBacklogFailsARungWithinTheLatencyLimit) {
  const auto out = run_ladder(
      {1000, 2000, 3000},
      [](double rate) { return rung(rate, 1.0, rate >= 2000 ? 0.1 * rate : 0.0); },
      LadderLimits{});
  EXPECT_EQ(out.max_rate, 1000.0);
}

TEST(Ladder, FailuresAndUnsupportedPercentilesFail) {
  const LadderLimits lim;
  EXPECT_FALSE(rung_passes(rung(100, 1.0, 0.0, 0.02), lim));
  RungResult thin = rung(100, 1.0);
  thin.p99_supported = false;
  EXPECT_FALSE(rung_passes(thin, lim));
  EXPECT_TRUE(rung_passes(rung(100, 10.0, 0.0, 0.01), lim));
  const auto none = run_ladder({100}, [](double r) { return rung(r, 50.0); }, lim);
  EXPECT_EQ(none.max_rate, 0.0);
}

}  // namespace
}  // namespace perfbench
