// Unit tests of the open-loop generator under an injected clock, and of the
// span self-time rule.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <vector>

#include "openloop.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

/// Time moves only when the engine works or the generator waits.
struct FakeClock {
  double t = 0.0;
  [[nodiscard]] double now() const { return t; }
  void wait_until(double target) { t = std::max(t, target); }
};

/// Each pump() steps every session with queued work once and takes
/// `pump_cost` seconds of the fake clock, like one batch on a pool.
struct FakeEngine {
  FakeClock& clock;
  double pump_cost;
  std::size_t capacity = 1000;  ///< queued requests per session before reject
  std::vector<std::uint64_t> steps;
  std::vector<std::size_t> queued;
  std::vector<double> submitted_at;

  FakeEngine(FakeClock& c, double cost, std::size_t sessions)
      : clock(c), pump_cost(cost), steps(sessions, 0), queued(sessions, 0) {}

  bool submit(std::uint32_t s, double /*due*/, double now) {
    submitted_at.push_back(now);
    if (queued[s] >= capacity) return false;
    ++queued[s];
    return true;
  }
  std::size_t pump() {
    std::size_t n = 0;
    for (std::size_t s = 0; s < queued.size(); ++s) {
      if (queued[s] == 0) continue;
      --queued[s];
      ++steps[s];
      ++n;
    }
    clock.t += pump_cost;
    return n;
  }
  std::uint64_t step_index(std::uint32_t s) { return steps[s]; }
};

TEST(OpenLoop, IdleEngineLatencyIsServiceTime) {
  FakeClock clock;
  FakeEngine eng(clock, 0.001, 1);
  OpenLoop loop(1);
  // One request every 10 ms, each served by one 1 ms pump.
  const auto sched = uniform_schedule(0.0, 100.0, 0.05, [](std::size_t) { return 0u; });
  const PhaseResult r = loop.run(eng, clock, sched);
  ASSERT_EQ(r.latency_ms.size(), 5u);
  for (const double l : r.latency_ms) EXPECT_NEAR(l, 1.0, 1e-9);
  for (const double g : r.gen_lag_ms) EXPECT_NEAR(g, 0.0, 1e-9);
  EXPECT_EQ(r.completed, 5u);
  EXPECT_EQ(r.rejected, 0u);
}

TEST(OpenLoop, StallCountsFromDueTimeNotSubmitTime) {
  FakeClock clock;
  // A 10 ms pump while requests fall due every 1 ms: the requests due
  // during the pump are submitted late, but timed from their due time.
  FakeEngine eng(clock, 0.010, 1);
  OpenLoop loop(1);
  const auto sched = uniform_schedule(0.0, 1000.0, 0.003, [](std::size_t) { return 0u; });
  const PhaseResult r = loop.run(eng, clock, sched);
  ASSERT_EQ(r.latency_ms.size(), 3u);
  // Request 0: due 0, pumped 0 -> 10 ms.
  EXPECT_NEAR(r.latency_ms[0], 10.0, 1e-9);
  // Requests 1 and 2 fall due at 1 and 2 ms during that pump, are submitted
  // at 10 ms (generator lag 9 and 8 ms) and complete after the pumps ending
  // at 20 and 30 ms.
  EXPECT_NEAR(r.gen_lag_ms[1], 9.0, 1e-9);
  EXPECT_NEAR(r.gen_lag_ms[2], 8.0, 1e-9);
  EXPECT_NEAR(r.latency_ms[1], 19.0, 1e-9);
  EXPECT_NEAR(r.latency_ms[2], 28.0, 1e-9);
  // Timed from submit instead, request 2 would read 20 ms, not 28.
  EXPECT_NEAR(eng.submitted_at[2], 0.010, 1e-12);
}

TEST(OpenLoop, RejectedRequestsAreInfinitelyLate) {
  FakeClock clock;
  FakeEngine eng(clock, 0.010, 1);
  eng.capacity = 1;
  OpenLoop loop(1);
  // Three requests at once: the second and third find the queue full.
  const std::vector<Arrival> sched = {{0.0, 0}, {0.0, 0}, {0.0, 0}};
  const PhaseResult r = loop.run(eng, clock, sched);
  EXPECT_EQ(r.rejected, 2u);
  EXPECT_EQ(r.completed, 1u);
  EXPECT_TRUE(std::isinf(r.latency_ms[1]));
  EXPECT_TRUE(std::isinf(r.latency_ms[2]));
}

TEST(OpenLoop, AcceptedCountsCarryAcrossPhases) {
  FakeClock clock;
  FakeEngine eng(clock, 0.001, 2);
  OpenLoop loop(2);
  const auto a = uniform_schedule(0.0, 100.0, 0.04, [](std::size_t k) { return k % 2; });
  EXPECT_EQ(loop.run(eng, clock, a).completed, 4u);
  const auto b = uniform_schedule(clock.now(), 100.0, 0.04, [](std::size_t k) { return k % 2; });
  const PhaseResult r = loop.run(eng, clock, b);
  EXPECT_EQ(r.completed, 4u);
  for (const double l : r.latency_ms) EXPECT_NEAR(l, 1.0, 1e-9);
}

TEST(OpenLoop, RequestsAcceptedOutsideRunAreCounted) {
  FakeClock clock;
  FakeEngine eng(clock, 0.001, 1);
  OpenLoop loop(1);
  const auto a = uniform_schedule(0.0, 100.0, 0.02, [](std::size_t) { return 0u; });
  EXPECT_EQ(loop.run(eng, clock, a).completed, 2u);
  // One request submitted and stepped by the caller, not by run().
  ASSERT_TRUE(eng.submit(0, clock.now(), clock.now()));
  ASSERT_EQ(eng.pump(), 1u);
  loop.count_accepted(0);
  // Two requests due together: one pump steps the session once, so the
  // second completes a pump later.
  const std::vector<Arrival> b = {{clock.now(), 0}, {clock.now(), 0}};
  const PhaseResult r = loop.run(eng, clock, b);
  EXPECT_EQ(r.completed, 2u);
  EXPECT_NEAR(r.latency_ms[0], 1.0, 1e-9);
  EXPECT_NEAR(r.latency_ms[1], 2.0, 1e-9);
}

TEST(OpenLoop, BacklogGrowsWhenOverloaded) {
  FakeClock clock;
  // One session, 2 ms per step, 1000 req/s offered: capacity is 500 req/s.
  FakeEngine eng(clock, 0.002, 1);
  OpenLoop loop(1);
  const auto sched = uniform_schedule(0.0, 1000.0, 1.0, [](std::size_t) { return 0u; });
  const PhaseResult r = loop.run(eng, clock, sched);
  EXPECT_NEAR(backlog_slope(r.backlog, 0.0, 1.0), 500.0, 25.0);
}

Span span(std::uint64_t id, std::uint64_t parent, double a, double b) {
  Span s;
  s.name = "x";
  s.id = id;
  s.parent = parent;
  s.start_us = a;
  s.end_us = b;
  return s;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  // Parent [0, 100) with children [10, 30), [20, 40) (overlapping) and
  // [90, 120) (clipped to the parent): covered 30 + 10 = 40.
  const std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 30),
                                   span(3, 1, 20, 40), span(4, 1, 90, 120),
                                   span(5, 2, 12, 14)};
  const auto self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 60.0);
  EXPECT_DOUBLE_EQ(self[1], 18.0);  // grandchild [12, 14) covers 2
  EXPECT_DOUBLE_EQ(self[2], 20.0);
  EXPECT_DOUBLE_EQ(self[4], 2.0);
}

TEST(Spans, ScopedSpansNestPerThread) {
  SpanLog& log = SpanLog::instance();
  log.clear();
  log.set_enabled(true);
  {
    ScopedSpan outer("outer");
    { ScopedSpan inner("inner"); }
  }
  log.set_enabled(false);
  { ScopedSpan ignored("ignored"); }
  const auto spans = log.collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  const auto self = self_times_us(spans);
  EXPECT_LE(self[0], spans[0].end_us - spans[0].start_us - (spans[1].end_us - spans[1].start_us) + 1e-9);
}

}  // namespace
}  // namespace perfbench
