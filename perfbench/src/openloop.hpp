// Open-loop request generator: submits each request when it falls due,
// whatever the engine is doing, and times it from its due time to the
// pump() return after which the engine reports its session stepped past
// it. A request whose due time passes while the driving thread is inside a
// pump() is submitted late; its wait still counts, and the lateness itself
// is recorded as generator lag. Clock and engine are template parameters
// so unit tests can drive it with an injected clock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// One scheduled request: due time (seconds on the generator clock) and the
/// session it addresses.
struct Arrival {
  double due = 0.0;
  std::uint32_t session = 0;
};

/// Uniform arrivals: request k is due at t0 + k / rate, for k / rate <
/// duration; `pick(k)` chooses its session.
[[nodiscard]] inline std::vector<Arrival> uniform_schedule(
    double t0, double rate, double duration,
    const std::function<std::uint32_t(std::size_t)>& pick) {
  std::vector<Arrival> out;
  const auto n = static_cast<std::size_t>(rate * duration);
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back({t0 + static_cast<double>(k) / rate, pick(k)});
  }
  return out;
}

/// Everything one open-loop phase measured.
struct PhaseResult {
  double t_begin = 0.0;              ///< due time of the first request
  std::vector<double> latency_ms;    ///< per request, due -> done; +inf if rejected
  std::vector<double> gen_lag_ms;    ///< per request, due -> submit
  std::vector<double> pump_us;       ///< per pump() that dispatched work
  std::vector<double> batch_size;    ///< requests dispatched per such pump()
  /// (time, outstanding requests) after every pump(): the backlog curve.
  std::vector<std::pair<double, double>> backlog;
  double pump_seconds = 0.0;         ///< wall time inside pump()
  std::size_t attempted = 0;
  std::size_t rejected = 0;
  std::size_t completed = 0;
};

/// Real time on std::chrono::steady_clock, in seconds since construction.
class SteadyClock {
 public:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }
  /// Sleeps while the target is far, then yields, so the wake-up lands
  /// within a few microseconds of `t` instead of a sleep's overshoot.
  void wait_until(double t) const {
    for (double d = t - now(); d > 0.0; d = t - now()) {
      if (d > 400e-6) {
        std::this_thread::sleep_for(std::chrono::duration<double>(d - 300e-6));
      } else {
        std::this_thread::yield();
      }
    }
  }

 private:
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// Drives phases against an engine providing
///   bool submit(std::uint32_t session, double due, double now)  // accepted?
///   std::size_t pump()                         // requests dispatched
///   std::uint64_t step_index(std::uint32_t session)
/// Accepted-request counts persist across phases, so a session's k-th
/// accepted request is complete once its step index reaches k.
class OpenLoop {
 public:
  explicit OpenLoop(std::size_t sessions)
      : accepted_(sessions, 0), outstanding_(sessions) {}

  /// Counts a request the engine accepted for `session` outside run(), so
  /// later phases still know which step index completes their requests.
  void count_accepted(std::uint32_t session) { ++accepted_[session]; }

  /// Runs `schedule` (sorted by due time) to completion: every request is
  /// submitted when due, and the engine is pumped until all accepted ones
  /// completed. Throws when `stall_seconds` pass without any progress.
  template <typename Engine, typename Clock>
  PhaseResult run(Engine& engine, Clock& clock,
                  const std::vector<Arrival>& schedule,
                  double stall_seconds = 10.0) {
    PhaseResult r;
    const std::size_t n = schedule.size();
    r.latency_ms.assign(n, std::numeric_limits<double>::infinity());
    r.gen_lag_ms.assign(n, 0.0);
    r.attempted = n;
    r.t_begin = n ? schedule.front().due : clock.now();
    std::size_t next = 0;
    std::size_t outstanding = 0;
    double last_progress = clock.now();
    while (next < n || outstanding > 0) {
      for (double now = clock.now(); next < n && schedule[next].due <= now;
           now = clock.now()) {
        const Arrival& a = schedule[next];
        r.gen_lag_ms[next] = (now - a.due) * 1e3;
        if (engine.submit(a.session, a.due, now)) {
          if (outstanding_[a.session].empty()) active_.push_back(a.session);
          outstanding_[a.session].push_back({next, ++accepted_[a.session]});
          ++outstanding;
        } else {
          ++r.rejected;
        }
        ++next;
      }
      if (outstanding == 0) {
        if (next < n) clock.wait_until(schedule[next].due);
        continue;
      }
      const double t0 = clock.now();
      const std::size_t dispatched = engine.pump();
      const double t1 = clock.now();
      r.pump_seconds += t1 - t0;
      if (dispatched > 0) {
        r.pump_us.push_back((t1 - t0) * 1e6);
        r.batch_size.push_back(static_cast<double>(dispatched));
      }
      const std::size_t done = collect(engine, schedule, t1, r);
      outstanding -= done;
      r.completed += done;
      r.backlog.emplace_back(t1, static_cast<double>(outstanding));
      if (done > 0 || dispatched > 0) {
        last_progress = t1;
      } else if (t1 - last_progress > stall_seconds) {
        throw std::runtime_error("open-loop phase stalled: requests never complete");
      }
    }
    return r;
  }

 private:
  struct Pending {
    std::size_t request;   ///< index into the phase's schedule
    std::uint64_t target;  ///< step index at which it is complete
  };

  template <typename Engine>
  std::size_t collect(Engine& engine, const std::vector<Arrival>& schedule,
                      double t_done, PhaseResult& r) {
    std::size_t done = 0;
    std::size_t keep = 0;
    for (const std::uint32_t s : active_) {
      auto& q = outstanding_[s];
      const std::uint64_t idx = engine.step_index(s);
      while (!q.empty() && q.front().target <= idx) {
        const std::size_t k = q.front().request;
        r.latency_ms[k] = (t_done - schedule[k].due) * 1e3;
        q.pop_front();
        ++done;
      }
      if (!q.empty()) active_[keep++] = s;
    }
    active_.resize(keep);
    return done;
  }

  std::vector<std::uint64_t> accepted_;
  std::vector<std::deque<Pending>> outstanding_;
  std::vector<std::uint32_t> active_;  ///< sessions with outstanding requests
};

}  // namespace perfbench
