// esthera::serve -- ServeCluster: the serving engine, in the shape of an
// inference-serving router. The paper scales particle filters by
// decomposing them into loosely-coupled sub-filters; the serve layer
// scales sessions the same way: a cluster consistent-hashes
// cluster-global session ids over N shards (serve/shard.hpp), each with
// its own session table, scheduler pool, shared single-worker device and
// serve.* registry. A single-node server is simply `shards = 1`.
//
// Request lifecycle (docs/ARCHITECTURE.md has the full diagram):
//
//   submit(id, z, u, deadline, now)
//     -> admission: draining? session known (restoring it from the spill
//        store if spilled)? deadline meetable? tenant under its fair
//        share? shard queue below max_queue? session backlog below
//        max_pending_per_session?
//     -> rejected: SubmitResult carries the structured Admission reason
//     -> admitted: request enqueued FIFO on its session, ticket returned
//   pump()
//     -> one batch per shard: <= max_batch sessions with pending work,
//        earliest deadline first (ties: costlier session first, then
//        session id), stepped concurrently over the shard pool, each entry
//        stepping its session's filter exactly once on one worker
//     -> completion: latency into serve.request.latency, batch size into
//        serve.batch.size, sessions and tenant slots released; a step that
//        threw drops only its own request, and pump() rethrows it then
//     -> then the shard_imbalance probe and the LRU residency sweep
//   checkpoint/evict(id), restore_session(model, config, blob)
//     -> versioned blobs; a restored session continues the source
//        trajectory bit-identically
//   drain()
//     -> stops admission (kDraining) and pumps until every queue is empty
//
// Three mechanisms ride on the versioned ESCP checkpoint blobs
// (serve/checkpoint.hpp), which make a session's entire trajectory a
// portable value:
//
//   migration   migrate(id, shard): drain the session's queued requests
//               on the source shard, checkpoint it, restore on the
//               target. Because every session steps inline on a
//               single-worker device, the trajectory is bit-identical to
//               an unmigrated run (test-enforced).
//   spilling    an LRU + byte-budget SpillStore holds cold sessions as
//               blobs (in memory or one file per session). The next
//               submit restores the session transparently -- a spilled
//               session is *known*, never kUnknownSession; only an
//               unrecoverable blob surfaces, as kRestoreFailed.
//   overload    admission policy ahead of the shard queues:
//               deadline-aware EDF shedding (reject requests that cannot
//               meet their deadline instead of letting them occupy queue
//               slots) and per-tenant fair admission (one hot tenant
//               cannot starve the rest of the shared queue capacity).
//               Both are driven purely by queue state and the caller's
//               monotone `now`, so verdicts are machine-independent.
//
// Observability: one flight recorder, one monitor hook (session detectors
// plus shard_imbalance / spill_thrash), cluster.* metrics, and one
// statusz document (esthera.cluster.statusz/1, one row per shard with the
// shard's esthera.statusz/1 state) and one OpenMetrics exposition (shard
// serve.* families labeled shard="<i>", cluster.* families unlabeled).
//
// Thread-safety: every public method may be called concurrently. One
// mutex guards all routing and shard state; filter stepping is the only
// work done off-lock, with the batch's sessions pinned by a busy flag, so
// checkpoint/estimate/close/evict/migrate wait for the flag to clear
// instead of racing the step. A session's own FilterConfig telemetry or
// monitor (if any) is exercised from shard worker threads; every
// Telemetry member accepts concurrent recording, so one instance may be
// shared across sessions at any worker count.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "monitor/monitor.hpp"
#include "serve/shard.hpp"
#include "serve/spill_store.hpp"
#include "telemetry/openmetrics.hpp"

namespace esthera::serve {

/// Consistent-hash ring: `vnodes_per_shard` SplitMix64-derived points per
/// shard, looked up by hashed key. Deterministic in (shards, vnodes), so
/// placement is reproducible across processes and machines.
class HashRing {
 public:
  HashRing(std::size_t shards, std::size_t vnodes_per_shard);

  /// The shard owning `key` (first ring point at or after hash(key),
  /// wrapping).
  [[nodiscard]] std::size_t shard_for(std::uint64_t key) const;

  [[nodiscard]] std::size_t shard_count() const { return shards_; }

  /// SplitMix64 finalizer: the ring's point/key hash.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x);

 private:
  std::size_t shards_;
  /// (point, shard), sorted by point.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

/// ServeCluster configuration. The embedded ServeConfig is the per-shard
/// template; its telemetry field is ignored (each shard owns its serve.*
/// telemetry).
struct ClusterConfig {
  /// Number of shards (1 = a single-node server).
  std::size_t shards = 2;
  /// Per-shard configuration template (queue bounds, batch shape,
  /// workers, tracing).
  ServeConfig shard;
  /// Consistent-hash ring resolution.
  std::size_t vnodes_per_shard = 16;
  /// Resident-session budget across all shards; beyond it the cluster
  /// spills least-recently-touched idle sessions. 0 = unbounded.
  std::size_t max_resident_sessions = 0;
  /// Spill-store placement and byte budget.
  SpillStore::Config spill;
  /// EDF shedding: the assumed per-queued-request service time, in the
  /// same monotone unit as submit deadlines. A deadlined request is
  /// rejected (kDeadlineUnmeetable) when
  /// now + (shard queue depth + 1) * shed_service_seconds > deadline.
  /// 0 disables shedding.
  double shed_service_seconds = 0.0;
  /// Per-tenant fair admission: a tenant may hold at most
  /// max(tenant_min_slots, total queue capacity / active tenants) queued
  /// requests (kTenantOverQuota beyond). Off by default.
  bool fair_admission = false;
  /// Fair-admission floor: every tenant may always queue this many.
  std::size_t tenant_min_slots = 1;
  /// Cluster-level metrics sink (cluster.* catalogue); per-shard serve.*
  /// registries are cluster-owned. Borrowed; must outlive the cluster.
  telemetry::Telemetry* telemetry = nullptr;
  /// Health monitor: its emitted events (the sessions' detectors when the
  /// same monitor is attached to their FilterConfigs, plus the cluster's
  /// shard_imbalance / spill_thrash probes) feed the flight recorder,
  /// trigger the automatic flight dump, and appear in statusz. The
  /// cluster installs the monitor's event callback (one cluster per
  /// monitor). Borrowed; must outlive the cluster.
  monitor::HealthMonitor* monitor = nullptr;
  /// When non-empty, the flight ring is dumped (overwritten) here every
  /// time a monitor detector fires.
  std::string flight_dump_path;
  /// Per-thread flight-recorder ring capacity, in events.
  std::size_t flight_events_per_thread = 4096;

  /// Throws std::invalid_argument on inconsistent bounds (also validates
  /// the shard template).
  void validate() const;
};

/// N shards behind one consistent-hash router with admission control,
/// checkpoint-based migration, an LRU spill store, and overload control.
/// Thread-safe; see the file comment.
template <typename Model>
  requires models::SystemModel<Model>
class ServeCluster {
 public:
  using Shard = detail::Shard<Model>;
  using T = typename Model::Scalar;
  using SessionId = std::uint64_t;

  static constexpr double kNoDeadline = serve::kNoDeadline;

  struct OpenResult {
    Admission admission = Admission::kAccepted;
    SessionId id = 0;          ///< cluster-global session id
    std::size_t shard = 0;     ///< placement decided by the hash ring
    [[nodiscard]] bool ok() const { return admission == Admission::kAccepted; }
  };

  struct SubmitResult {
    Admission admission = Admission::kAccepted;
    std::uint64_t ticket = 0;  ///< cluster-wide admission ticket
    /// The request's minted trace identity (inert when rejected or when
    /// ServeConfig::trace_requests is off). Lets callers log their own
    /// trace id and lets tests predict exemplar retention.
    telemetry::TraceContext trace;
    std::size_t shard = 0;
    /// True when this submit transparently restored the session from the
    /// spill store first.
    bool restored_from_spill = false;
    [[nodiscard]] bool ok() const { return admission == Admission::kAccepted; }
  };

  struct BatchStats {
    std::size_t dispatched = 0;  ///< requests executed by the batch
    /// Tickets in dispatch (EDF) order; exposes the scheduling decision
    /// for tests and debugging.
    std::vector<std::uint64_t> tickets;
  };

  explicit ServeCluster(ClusterConfig cfg)
      : cfg_(std::move(cfg)),
        ring_(cfg_.shards, cfg_.vnodes_per_shard),
        flight_(cfg_.flight_events_per_thread),
        spill_(cfg_.spill) {
    cfg_.validate();
    for (std::size_t i = 0; i < cfg_.shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(cfg_.shard, flight_));
    }
    // Flight-recorder code table: every code recorded on the hot path is
    // a string literal; registering the addresses here lets dumps resolve
    // them without the recorder ever storing strings.
    for (const char* code :
         {"request", "queue_wait", "batch", "step", "prng",
          "sampling+weighting", "local sort", "global estimate", "exchange",
          "resampling", "migrate", "spill", "spill_restore", "monitor"}) {
      flight_.register_code(code);
    }
    for (int a = 0; a < kAdmissionReasonCount; ++a) {
      flight_.register_code(to_string(static_cast<Admission>(a)));
    }
    for (const char* d : kDetectors) flight_.register_code(d);
    if (cfg_.monitor != nullptr) {
      cfg_.monitor->set_event_callback(
          [this](const monitor::Event& e) { on_monitor_event(e); });
    }
    if (cfg_.telemetry != nullptr) {
      auto& reg = cfg_.telemetry->registry;
      cnt_accepted_ = &reg.counter("cluster.requests.accepted");
      cnt_completed_ = &reg.counter("cluster.requests.completed");
      for (int a = 1; a < kAdmissionReasonCount; ++a) {
        cnt_rejected_[a] = &reg.counter(
            std::string("cluster.rejected.") +
            to_string(static_cast<Admission>(a)));
      }
      cnt_batches_ = &reg.counter("cluster.batches");
      cnt_migrations_ = &reg.counter("cluster.migrations");
      cnt_spills_ = &reg.counter("cluster.spills");
      cnt_spill_restores_ = &reg.counter("cluster.spill.restores");
      cnt_spill_rejected_ = &reg.counter("cluster.spill.rejected");
      gauge_queue_ = &reg.gauge("cluster.queue.depth");
      gauge_sessions_ = &reg.gauge("cluster.sessions.open");
      gauge_resident_ = &reg.gauge("cluster.sessions.resident");
      gauge_spilled_ = &reg.gauge("cluster.sessions.spilled");
      gauge_spill_bytes_ = &reg.gauge("cluster.spill.bytes");
      gauge_flight_occupancy_ = &reg.gauge("flight.occupancy");
      gauge_flight_overwritten_ = &reg.gauge("flight.overwritten");
    }
  }

  ~ServeCluster() {
    // The monitor outlives the cluster but the installed callback
    // captures `this`; detach it before any member is torn down.
    if (cfg_.monitor != nullptr) cfg_.monitor->set_event_callback({});
  }
  ServeCluster(const ServeCluster&) = delete;
  ServeCluster& operator=(const ServeCluster&) = delete;

  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Read-only shard view: config().telemetry is the shard's serve.*
  /// registry, trace recorder and profiler.
  [[nodiscard]] const Shard& shard(std::size_t i) const { return *shards_[i]; }
  /// Read-only spill-store view; meaningful when the cluster is quiescent
  /// (tests, post-drain inspection).
  [[nodiscard]] const SpillStore& spill_store() const { return spill_; }
  [[nodiscard]] const HashRing& ring() const { return ring_; }

  /// Opens a session running `model` under `fcfg` (per-session seed,
  /// shape, telemetry, monitor all come from `fcfg`), placed by the hash
  /// ring on its home shard (falling over to successive shards when the
  /// home shard is at max_sessions). The filter runs on the shard's
  /// single-worker device regardless of `fcfg.workers`; `model` and
  /// `fcfg` are retained for migration and spill restore. `tenant` is a
  /// free-form owner tag propagated into trace spans, flight events,
  /// statusz and fair admission (0 = untagged).
  [[nodiscard]] OpenResult open_session(Model model, core::FilterConfig fcfg,
                                        std::uint64_t tenant = 0) {
    std::unique_lock lock(mutex_);
    return open_locked(std::move(model), std::move(fcfg), tenant, nullptr);
  }

  /// Opens a session continuing the trajectory serialized in `blob`
  /// (produced by checkpoint()/evict()) under a new id. `model` and `fcfg`
  /// must match the source session: the blob validates shape, scalar
  /// width, and PRNG core and throws CheckpointError /
  /// std::invalid_argument on any mismatch or corruption. The restored
  /// session's next step is bit-identical to the step the source session
  /// would have taken.
  [[nodiscard]] OpenResult restore_session(Model model, core::FilterConfig fcfg,
                                           std::span<const std::uint8_t> blob,
                                           std::uint64_t tenant = 0) {
    const core::FilterState<T> state = decode_checkpoint<T>(blob);
    std::unique_lock lock(mutex_);
    return open_locked(std::move(model), std::move(fcfg), tenant, &state);
  }

  /// Closes a session wherever it lives (resident or spilled), dropping
  /// queued requests and returning their tenant slots. False when the id
  /// is unknown. Blocks while the session is in flight.
  bool close_session(SessionId id) {
    std::unique_lock lock(mutex_);
    const auto it = wait_idle_locked(lock, id);
    if (it == sessions_.end()) return false;
    forget_locked(it, /*evicted=*/false);
    return true;
  }

  /// Serializes a session to a versioned checkpoint blob (the session
  /// stays open; a spilled one answers with its stored blob). nullopt
  /// when the id is unknown or its spill blob is unreadable. Blocks while
  /// the session is in flight so the snapshot is step-boundary consistent.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> checkpoint(
      SessionId id) {
    std::unique_lock lock(mutex_);
    const auto it = wait_idle_locked(lock, id);
    if (it == sessions_.end()) return std::nullopt;
    return blob_locked(it);
  }

  /// checkpoint() + close_session(): serializes the session and removes it
  /// (idle-session eviction). Queued requests are dropped -- evict idle
  /// sessions. nullopt when the id is unknown (or the spill blob is
  /// unreadable; the session then stays).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> evict(SessionId id) {
    std::unique_lock lock(mutex_);
    const auto it = wait_idle_locked(lock, id);
    if (it == sessions_.end()) return std::nullopt;
    auto blob = blob_locked(it);
    if (blob.has_value()) forget_locked(it, /*evicted=*/true);
    return blob;
  }

  /// Admits one observe(z, u) request, restoring the session from the
  /// spill store first when needed. `deadline` is any monotone urgency
  /// value (smaller = sooner; kNoDeadline schedules after all deadlined
  /// work, NaN is normalized to kNoDeadline); `now` shares its unit and
  /// only matters when EDF shedding is enabled. Never blocks, never
  /// drops silently.
  [[nodiscard]] SubmitResult submit(SessionId id, std::span<const T> z,
                                    std::span<const T> u = {},
                                    double deadline = kNoDeadline,
                                    double now = 0.0) {
    // A NaN deadline would break the strict weak ordering of the EDF sort
    // comparator (UB in std::sort); treat it as "no deadline".
    if (std::isnan(deadline)) deadline = kNoDeadline;
    std::unique_lock lock(mutex_);
    const auto it = sessions_.find(id);
    // An unknown id is charged to its hash-ring home shard.
    const std::size_t routed =
        it != sessions_.end() ? it->second.shard : ring_.shard_for(id);
    if (draining_) return rejected(Admission::kDraining, routed);
    if (it == sessions_.end()) {
      return rejected(Admission::kUnknownSession, routed);
    }
    Route& e = it->second;
    bool restored = false;
    if (e.session == nullptr) {
      // A spilled session is known, not "unknown": restore on demand.
      // Only an unrecoverable blob rejects, and then as kRestoreFailed.
      const Admission a = restore_from_spill_locked(id, e);
      if (a != Admission::kAccepted) return rejected(a, e.shard);
      restored = true;
    }
    Shard& shard = *shards_[e.shard];
    if (cfg_.shed_service_seconds > 0.0 && deadline != kNoDeadline) {
      // EDF shedding: if the request cannot finish by its deadline even
      // when everything ahead of it meets the assumed service time, shed
      // it now instead of letting it occupy a queue slot and miss anyway.
      const double projected =
          now + static_cast<double>(shard.queue_depth() + 1) *
                    cfg_.shed_service_seconds;
      if (projected > deadline) {
        return rejected(Admission::kDeadlineUnmeetable, e.shard);
      }
    }
    if (cfg_.fair_admission) {
      std::size_t active = 0;
      for (const auto& [tenant, queued] : tenant_queued_) {
        if (queued > 0) ++active;
      }
      const auto mine = tenant_queued_.find(e.tenant);
      const std::size_t mine_queued =
          mine != tenant_queued_.end() ? mine->second : 0;
      if (mine_queued == 0) ++active;  // this request activates its tenant
      const std::size_t capacity = shards_.size() * cfg_.shard.max_queue;
      const std::size_t cap = std::max(
          cfg_.tenant_min_slots, capacity / std::max<std::size_t>(1, active));
      if (mine_queued >= cap) {
        return rejected(Admission::kTenantOverQuota, e.shard);
      }
    }
    if (const Admission a = shard.admit(*e.session);
        a != Admission::kAccepted) {
      return rejected(a, e.shard);
    }
    typename Shard::Request req;
    req.ticket = next_ticket_++;
    req.deadline = deadline;
    req.z.assign(z.begin(), z.end());
    req.u.assign(u.begin(), u.end());
    req.enqueued = Shard::Clock::now();
    if (cfg_.shard.trace_requests) {
      // Mint the request's trace identity: deterministic in (trace_seed,
      // ticket), so a replayed workload traces identically and tests can
      // predict exemplar trace ids.
      req.ctx = telemetry::TraceContext::mint(cfg_.shard.trace_seed,
                                              req.ticket);
      req.ctx.session = id;
      req.ctx.tenant = e.tenant;
      req.ctx.track = static_cast<std::uint32_t>(id);
      req.ctx.flight = &flight_;
    }
    flight_.record(telemetry::FlightEventKind::kAdmission,
                   to_string(Admission::kAccepted), req.ctx.trace_id, id,
                   req.ticket);
    SubmitResult result{Admission::kAccepted, req.ticket, req.ctx, e.shard,
                        restored};
    shard.enqueue(*e.session, std::move(req));
    ++tenant_queued_[e.tenant];
    e.last_touch = ++touch_clock_;
    if (cnt_accepted_) cnt_accepted_->add(1);
    publish_gauges_locked();
    return result;
  }

  /// Runs one batch on shard `i` (see pump()). A session step that throws
  /// drops only its own request: the rest of the batch completes, the
  /// batch's sessions, tenant slots and in-flight count are released, and
  /// then the first such exception propagates.
  BatchStats pump_shard(std::size_t i) {
    std::unique_lock lock(mutex_);
    return run_batch_locked(i, lock);
  }

  /// One scheduling tick: a batch on every shard, then the shard-imbalance
  /// probe and the LRU residency sweep. Returns the total number of
  /// requests dispatched.
  std::size_t pump() {
    std::unique_lock lock(mutex_);
    ++tick_;
    std::size_t dispatched = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      dispatched += run_batch_locked(i, lock).dispatched;
    }
    if (cfg_.monitor != nullptr) {
      double sum = 0.0, max_depth = -1.0;
      std::size_t argmax = 0;
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        const auto d = static_cast<double>(shards_[i]->queue_depth());
        sum += d;
        if (d > max_depth) {
          max_depth = d;
          argmax = i;
        }
      }
      cfg_.monitor->observe_shard_load(
          tick_, static_cast<std::int64_t>(argmax), max_depth,
          sum / static_cast<double>(shards_.size()));
    }
    enforce_residency_locked();
    publish_gauges_locked();
    return dispatched;
  }

  /// Live migration: moves a resident session to `target` via drain ->
  /// checkpoint -> restore, without dropping queued requests. The
  /// migrated trajectory is bit-identical to an unmigrated one
  /// (test-enforced). For a spilled session only the routing changes (it
  /// restores on the new shard later). False when the id is unknown, the
  /// target is out of range, or the target is at max_sessions (the
  /// session then stays on its source shard).
  bool migrate(SessionId id, std::size_t target) {
    std::unique_lock lock(mutex_);
    if (target >= shards_.size()) return false;
    for (;;) {
      // Re-looked-up every pass: batches drop the lock while stepping,
      // and a concurrent close, spill or migrate may have moved on.
      const auto it = wait_idle_locked(lock, id);
      if (it == sessions_.end()) return false;
      Route& e = it->second;
      if (e.session == nullptr || e.shard == target) {
        e.shard = target;
        return true;
      }
      // The session's queued requests execute exactly where they were
      // admitted, in order; the batches run other sessions' requests too.
      if (!e.session->pending.empty()) {
        run_batch_locked(e.shard, lock);
        continue;
      }
      Shard& dst = *shards_[target];
      if (dst.full()) return false;
      const auto state = decode_checkpoint<T>(shards_[e.shard]->checkpoint(id));
      shards_[e.shard]->erase(id, /*evicted=*/true);
      e.session = &dst.open(id, e.model, e.fcfg, e.tenant, &state);
      e.shard = target;
      if (cnt_migrations_) cnt_migrations_->add(1);
      flight_.record(telemetry::FlightEventKind::kMark, "migrate", 0, id,
                     target);
      return true;
    }
  }

  /// Force-spills an idle resident session to the store (the LRU sweep
  /// does this automatically under a residency budget). False when the
  /// session has queued or in-flight work, the store refuses the blob
  /// (byte budget), or the id is unknown; the session then stays
  /// resident.
  bool spill_session(SessionId id) {
    std::unique_lock lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    if (it->second.session == nullptr) return true;
    return spill_locked(it);
  }

  /// Graceful shutdown: stops admitting (kDraining) and pumps until every
  /// already-admitted request has executed.
  void drain() {
    std::unique_lock lock(mutex_);
    draining_ = true;
    for (;;) {
      lock.unlock();
      const std::size_t dispatched = pump();
      lock.lock();
      if (queue_depth_locked() == 0) return;
      if (dispatched == 0) {
        // Every pending request sits on a session busy in another
        // thread's batch: sleep until a batch completes (idle_cv_ is
        // notified then) instead of spinning. The timeout bounds the wait
        // in case the notify races this wait.
        idle_cv_.wait_for(lock, std::chrono::milliseconds(1));
      }
    }
  }

  [[nodiscard]] bool draining() const {
    std::unique_lock lock(mutex_);
    return draining_;
  }

  /// Total queued requests across shards.
  [[nodiscard]] std::size_t queue_depth() const {
    std::unique_lock lock(mutex_);
    return queue_depth_locked();
  }

  [[nodiscard]] std::size_t session_count() const {
    std::unique_lock lock(mutex_);
    return sessions_.size();
  }

  [[nodiscard]] std::size_t resident_count() const {
    std::unique_lock lock(mutex_);
    return resident_count_locked();
  }

  [[nodiscard]] std::size_t spilled_count() const {
    std::unique_lock lock(mutex_);
    return sessions_.size() - resident_count_locked();
  }

  /// The shard a session currently routes to.
  [[nodiscard]] std::optional<std::size_t> shard_of(SessionId id) const {
    std::unique_lock lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return std::nullopt;
    return it->second.shard;
  }

  /// True when the session is currently spilled.
  [[nodiscard]] std::optional<bool> spilled(SessionId id) const {
    std::unique_lock lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return std::nullopt;
    return it->second.session == nullptr;
  }

  /// Copy of the session's current estimate (waits out an in-flight
  /// step); a spilled session answers from its decoded checkpoint blob
  /// without being restored. nullopt for unknown ids.
  [[nodiscard]] std::optional<std::vector<T>> estimate(SessionId id) {
    std::unique_lock lock(mutex_);
    const auto it = wait_idle_locked(lock, id);
    if (it == sessions_.end()) return std::nullopt;
    if (it->second.session != nullptr) {
      const auto est = it->second.session->filter->estimate();
      return std::vector<T>(est.begin(), est.end());
    }
    const auto state = spilled_state_locked(id);
    if (!state.has_value()) return std::nullopt;
    return state->estimate;
  }

  /// Completed filtering rounds of the session (spilled sessions answer
  /// from the blob header); nullopt for unknown ids.
  [[nodiscard]] std::optional<std::uint64_t> step_index(SessionId id) {
    std::unique_lock lock(mutex_);
    const auto it = wait_idle_locked(lock, id);
    if (it == sessions_.end()) return std::nullopt;
    if (it->second.session != nullptr) {
      return it->second.session->filter->step_index();
    }
    const auto state = spilled_state_locked(id);
    if (!state.has_value()) return std::nullopt;
    return state->step;
  }

  /// Queued requests for one session (0 while spilled).
  [[nodiscard]] std::optional<std::size_t> pending(SessionId id) const {
    std::unique_lock lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return std::nullopt;
    const auto* session = it->second.session;
    return session != nullptr ? session->pending.size() : 0;
  }

  /// Cluster-wide request-latency view: every shard's histogram merged,
  /// consistent with batch completion.
  [[nodiscard]] telemetry::LatencyHistogram merged_latency() const {
    std::unique_lock lock(mutex_);
    return merged_latency_locked();
  }

  /// Dumps the flight ring as `esthera.flight/1` JSONL (on-demand path;
  /// the automatic path fires on monitor events, see ClusterConfig).
  void dump_flight(std::ostream& os) const { flight_.dump_jsonl(os); }

  /// Live introspection: one `esthera.cluster.statusz/1` JSON document --
  /// cluster totals, spill/tenant/reject state, the merged latency
  /// quantiles, one row per shard (its esthera.statusz/1 state under
  /// "detail": per-session busy/pending/cost, in-flight batches, shard
  /// latency, trace and profiler state), one row per session with its
  /// placement and residency, the flight recorder, and recent monitor
  /// events. Never reads a busy filter.
  void write_statusz(std::ostream& os) const {
    std::unique_lock lock(mutex_);
    telemetry::json::JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "esthera.cluster.statusz/1");
    w.kv("draining", draining_);
    w.kv("tick", tick_);
    w.kv("shard_count", static_cast<std::uint64_t>(shards_.size()));
    w.kv("queue_depth", static_cast<std::uint64_t>(queue_depth_locked()));
    const std::size_t resident = resident_count_locked();
    w.key("sessions_summary");
    w.begin_object();
    w.kv("total", static_cast<std::uint64_t>(sessions_.size()));
    w.kv("resident", static_cast<std::uint64_t>(resident));
    w.kv("spilled", static_cast<std::uint64_t>(sessions_.size() - resident));
    w.end_object();
    w.key("spill");
    w.begin_object();
    w.kv("stored", static_cast<std::uint64_t>(spill_.size()));
    w.kv("bytes", static_cast<std::uint64_t>(spill_.bytes()));
    w.kv("budget_bytes", static_cast<std::uint64_t>(spill_.budget_bytes()));
    if (cnt_spills_ != nullptr) {
      w.kv("spills", cnt_spills_->value());
      w.kv("restores", cnt_spill_restores_->value());
      w.kv("rejected", cnt_spill_rejected_->value());
    }
    w.end_object();
    if (cnt_accepted_ != nullptr) {
      w.key("requests");
      w.begin_object();
      w.kv("accepted", cnt_accepted_->value());
      w.kv("completed", cnt_completed_->value());
      w.end_object();
      w.key("rejects");
      w.begin_object();
      for (int a = 1; a < kAdmissionReasonCount; ++a) {
        w.kv(to_string(static_cast<Admission>(a)), cnt_rejected_[a]->value());
      }
      w.end_object();
    }
    const telemetry::LatencyHistogram merged = merged_latency_locked();
    w.key("latency");
    w.begin_object();
    w.kv("count", merged.count());
    w.kv("p50", merged.quantile(0.50));
    w.kv("p95", merged.quantile(0.95));
    w.kv("p99", merged.quantile(0.99));
    w.end_object();
    w.key("tenants");
    w.begin_array();
    for (const auto& [tenant, q] : tenant_queued_) {
      w.begin_object();
      w.kv("tenant", tenant);
      w.kv("queued", static_cast<std::uint64_t>(q));
      w.end_object();
    }
    w.end_array();
    w.key("shards");
    w.begin_array();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      std::size_t spilled_here = 0;
      for (const auto& [id, e] : sessions_) {
        if (e.session == nullptr && e.shard == i) ++spilled_here;
      }
      w.begin_object();
      w.kv("shard", static_cast<std::uint64_t>(i));
      w.kv("sessions", static_cast<std::uint64_t>(shards_[i]->session_count()));
      w.kv("queue_depth",
           static_cast<std::uint64_t>(shards_[i]->queue_depth()));
      w.kv("spilled", static_cast<std::uint64_t>(spilled_here));
      w.key("detail");
      shards_[i]->write_status(w);
      w.end_object();
    }
    w.end_array();
    w.key("sessions");
    w.begin_array();
    for (const auto& [id, e] : sessions_) {
      const auto* s = e.session;
      const std::size_t queued =
          s != nullptr ? s->pending.size() + (s->busy ? 1 : 0) : 0;
      w.begin_object();
      w.kv("id", static_cast<std::uint64_t>(id));
      w.kv("shard", static_cast<std::uint64_t>(e.shard));
      w.kv("state", s != nullptr ? "resident" : "spilled");
      w.kv("tenant", e.tenant);
      w.kv("queued", static_cast<std::uint64_t>(queued));
      w.end_object();
    }
    w.end_array();
    w.key("flight");
    w.begin_object();
    w.kv("occupancy", static_cast<std::uint64_t>(flight_.occupancy()));
    w.kv("capacity", static_cast<std::uint64_t>(flight_.capacity()));
    w.kv("total", flight_.total_recorded());
    w.kv("overwritten", flight_.overwritten());
    w.kv("dropped_threads", flight_.dropped_threads());
    w.end_object();
    if (cfg_.monitor != nullptr) {
      // Lock order: cluster mutex -> monitor mutex (the reverse path, the
      // monitor callback, touches only the lock-free flight recorder and
      // the dump mutex -- never the cluster mutex -- so no cycle).
      w.key("monitor");
      w.begin_object();
      w.kv("events", static_cast<std::uint64_t>(cfg_.monitor->event_count()));
      w.kv("suppressed",
           static_cast<std::uint64_t>(cfg_.monitor->suppressed_count()));
      const auto events = cfg_.monitor->events();
      const std::size_t first = events.size() > 8 ? events.size() - 8 : 0;
      w.key("recent");
      w.begin_array();
      for (std::size_t i = first; i < events.size(); ++i) {
        const monitor::Event& e = events[i];
        w.begin_object();
        w.kv("detector", e.detector);
        w.kv("severity", monitor::to_string(e.severity));
        w.kv("step", static_cast<std::uint64_t>(e.step));
        if (e.group != monitor::HealthMonitor::kNoGroup) {
          w.kv("group", e.group);
        }
        w.kv("value", e.value);
        w.kv("threshold", e.threshold);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_object();
    os << '\n';
  }

  /// OpenMetrics text exposition: an esthera_profile info metric carrying
  /// the profiler mode and the structured unavailable reason, the union
  /// of every shard's serve.* families written once each with per-shard
  /// samples labeled shard="<i>", then the cluster's own cluster.*
  /// families, then "# EOF". Scrape-ready.
  void write_openmetrics(std::ostream& os) const {
    telemetry::openmetrics::Writer w(os);
    // Batches complete under this mutex, so every histogram read here
    // matches a batch boundary (bucket totals equal _count).
    std::unique_lock lock(mutex_);
    const auto& prof = shards_.front()->config().telemetry->profile;
    w.info("profile", "hardware-counter profiler identity",
           {{"mode", profile::to_string(prof.mode())},
            {"unavailable", prof.unavailable_reason()}});
    std::vector<const telemetry::MetricsRegistry*> regs;
    for (const auto& s : shards_) {
      regs.push_back(&s->config().telemetry->registry);
    }
    telemetry::openmetrics::write_labeled_families(w, regs, "shard");
    if (cfg_.telemetry != nullptr) {
      telemetry::openmetrics::write_families(w, cfg_.telemetry->registry);
    }
    w.eof();
  }

 private:
  /// Routing state of one session, resident or spilled.
  struct Route {
    std::size_t shard = 0;  ///< current placement (routing, not identity)
    std::uint64_t tenant = 0;
    /// Retained for migration and spill restore.
    Model model;
    core::FilterConfig fcfg;
    /// The session's state on `shard`; null while spilled.
    typename Shard::Session* session = nullptr;
    std::uint64_t last_touch = 0; ///< LRU clock value of the last submit
    std::uint64_t spill_tick = 0; ///< pump tick of the last spill
  };

  using SessionIter = typename std::map<SessionId, Route>::iterator;

  /// Detector names the monitor can emit, as registered flight codes.
  static constexpr const char* kDetectors[] = {
      "ess_collapse",     "parent_starvation", "entropy_floor",
      "nonfinite_weights", "exchange_anomaly", "metropolis_bias",
      "shard_imbalance",  "spill_thrash"};

  OpenResult open_locked(Model model, core::FilterConfig fcfg,
                         std::uint64_t tenant,
                         const core::FilterState<T>* state) {
    if (draining_) {
      const std::size_t home = ring_.shard_for(next_id_);
      return {note_reject(Admission::kDraining, home), 0, home};
    }
    const SessionId id = next_id_++;
    const std::size_t home = ring_.shard_for(id);
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      const std::size_t s = (home + k) % shards_.size();
      if (shards_[s]->full()) continue;
      auto& session = shards_[s]->open(id, model, fcfg, tenant, state);
      Route e{s, tenant, std::move(model), std::move(fcfg), &session};
      e.last_touch = ++touch_clock_;
      sessions_.emplace(id, std::move(e));
      publish_gauges_locked();
      return {Admission::kAccepted, id, s};
    }
    return {note_reject(Admission::kSessionLimit, home), 0, home};
  }

  /// Flight-records and counts a rejection: cluster.rejected.* and, for
  /// the shard-attributable reasons, serve.rejected.* of `shard`.
  Admission note_reject(Admission why, std::size_t shard) {
    flight_.record(telemetry::FlightEventKind::kAdmission, to_string(why));
    if (telemetry::Counter* c = cnt_rejected_[static_cast<int>(why)]) {
      c->add(1);
    }
    shards_[shard]->count_reject(why);
    return why;
  }

  SubmitResult rejected(Admission why, std::size_t shard) {
    return {note_reject(why, shard), 0, {}, 0};
  }

  /// Selects, steps and finishes one batch on shard `i`, dropping the lock
  /// while the batch steps.
  BatchStats run_batch_locked(std::size_t i,
                              std::unique_lock<std::mutex>& lock) {
    Shard& shard = *shards_[i];
    typename Shard::Batch batch = shard.select();
    BatchStats stats;
    if (batch.entries.empty()) return stats;
    stats.dispatched = batch.entries.size();
    for (const auto& e : batch.entries) stats.tickets.push_back(e.req.ticket);
    lock.unlock();
    shard.step(batch);
    lock.lock();
    const std::size_t completed = shard.finish(batch);
    for (const auto& e : batch.entries) --tenant_queued_[e.session->tenant];
    if (cnt_batches_) cnt_batches_->add(1);
    if (cnt_completed_) cnt_completed_->add(completed);
    publish_gauges_locked();
    idle_cv_.notify_all();
    for (const auto& e : batch.entries) {
      if (e.error) std::rethrow_exception(e.error);
    }
    return stats;
  }

  /// Waits until session `id` is not stepping and returns a fresh
  /// iterator to it, or sessions_.end() when the id is unknown or was
  /// removed while waiting. The session is re-looked-up after every
  /// wakeup: two threads may wait on the same busy session (e.g. close
  /// racing evict on one id), and the first waiter to wake can erase it
  /// -- caching a reference or iterator across the wait would dangle.
  SessionIter wait_idle_locked(std::unique_lock<std::mutex>& lock,
                               SessionId id) {
    for (;;) {
      const auto it = sessions_.find(id);
      if (it == sessions_.end() || it->second.session == nullptr ||
          !it->second.session->busy) {
        return it;
      }
      idle_cv_.wait(lock);
    }
  }

  /// The idle session's checkpoint blob (a spilled one's stored blob).
  std::optional<std::vector<std::uint8_t>> blob_locked(SessionIter it) {
    if (it->second.session != nullptr) {
      return shards_[it->second.shard]->checkpoint(it->first);
    }
    try {
      return spill_.peek(it->first);
    } catch (const CheckpointError&) {
      return std::nullopt;
    }
  }

  std::optional<core::FilterState<T>> spilled_state_locked(SessionId id) const {
    try {
      return decode_checkpoint<T>(spill_.peek(id));
    } catch (const CheckpointError&) {
      return std::nullopt;
    }
  }

  /// Removes an idle session wherever it lives and returns the tenant
  /// slots of its queued requests.
  void forget_locked(SessionIter it, bool evicted) {
    Route& e = it->second;
    if (e.session == nullptr) {
      spill_.erase(it->first);
    } else {
      tenant_queued_[e.tenant] -= e.session->pending.size();
      shards_[e.shard]->erase(it->first, evicted);
    }
    sessions_.erase(it);
    publish_gauges_locked();
  }

  /// Restores a spilled session onto its routed shard. Returns kAccepted,
  /// kRestoreFailed (corrupt or unreadable blob, left in the store for
  /// postmortem), or kSessionLimit when the shard is full.
  Admission restore_from_spill_locked(SessionId id, Route& e) {
    if (shards_[e.shard]->full()) return Admission::kSessionLimit;
    const auto state = spilled_state_locked(id);
    if (!state.has_value()) return Admission::kRestoreFailed;
    spill_.erase(id);
    e.session = &shards_[e.shard]->open(id, e.model, e.fcfg, e.tenant, &*state);
    if (cnt_spill_restores_) cnt_spill_restores_->add(1);
    flight_.record(telemetry::FlightEventKind::kMark, "spill_restore", 0, id,
                   e.shard);
    if (cfg_.monitor != nullptr) {
      cfg_.monitor->observe_spill_restore(
          tick_, static_cast<std::int64_t>(id), tick_ - e.spill_tick);
    }
    return Admission::kAccepted;
  }

  /// Spills one resident session. False when it has queued or in-flight
  /// work or the store refuses the blob; the session stays resident then.
  bool spill_locked(SessionIter it) {
    Route& e = it->second;
    if (e.session->busy || !e.session->pending.empty()) return false;
    Shard& shard = *shards_[e.shard];
    bool stored = false;
    try {
      stored = spill_.put(it->first, shard.checkpoint(it->first));
    } catch (const CheckpointError&) {
    }
    if (!stored) {
      if (cnt_spill_rejected_) cnt_spill_rejected_->add(1);
      return false;
    }
    shard.erase(it->first, /*evicted=*/true);
    e.session = nullptr;
    e.spill_tick = tick_;
    if (cnt_spills_) cnt_spills_->add(1);
    flight_.record(telemetry::FlightEventKind::kMark, "spill", 0, it->first,
                   e.shard);
    return true;
  }

  /// LRU sweep: while the resident count exceeds the budget, spill the
  /// least-recently-touched idle session. Stops when nothing idle is left
  /// or the store refuses a blob.
  void enforce_residency_locked() {
    if (cfg_.max_resident_sessions == 0) return;
    while (resident_count_locked() > cfg_.max_resident_sessions) {
      SessionIter lru = sessions_.end();
      for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
        const Route& e = it->second;
        if (e.session == nullptr || e.session->busy ||
            !e.session->pending.empty()) {
          continue;
        }
        if (lru == sessions_.end() || e.last_touch < lru->second.last_touch) {
          lru = it;
        }
      }
      if (lru == sessions_.end()) return;
      if (!spill_locked(lru)) return;
    }
  }

  [[nodiscard]] std::size_t resident_count_locked() const {
    std::size_t resident = 0;
    for (const auto& s : shards_) resident += s->session_count();
    return resident;
  }

  [[nodiscard]] std::size_t queue_depth_locked() const {
    std::size_t queued = 0;
    for (const auto& s : shards_) queued += s->queue_depth();
    return queued;
  }

  [[nodiscard]] telemetry::LatencyHistogram merged_latency_locked() const {
    telemetry::LatencyHistogram merged;
    for (const auto& s : shards_) merged.merge(s->latency());
    return merged;
  }

  void publish_gauges_locked() {
    if (gauge_queue_ == nullptr) return;
    const std::size_t resident = resident_count_locked();
    gauge_queue_->set(static_cast<double>(queue_depth_locked()));
    gauge_sessions_->set(static_cast<double>(sessions_.size()));
    gauge_resident_->set(static_cast<double>(resident));
    gauge_spilled_->set(static_cast<double>(sessions_.size() - resident));
    gauge_spill_bytes_->set(static_cast<double>(spill_.bytes()));
    gauge_flight_occupancy_->set(static_cast<double>(flight_.occupancy()));
    gauge_flight_overwritten_->set(static_cast<double>(flight_.overwritten()));
  }

  /// Monitor event hook: runs on the observing thread with the monitor's
  /// lock held. Must never take mutex_ (statusz and the cluster probes
  /// hold mutex_ and then the monitor's lock); it touches only the
  /// lock-free flight recorder and the dedicated dump mutex.
  void on_monitor_event(const monitor::Event& e) {
    // Map the detector name back to its registered string literal so the
    // flight recorder stores a resolvable code address.
    const char* code = "monitor";
    for (const char* d : kDetectors) {
      if (e.detector == d) code = d;
    }
    flight_.record(telemetry::FlightEventKind::kMonitor, code, 0,
                   static_cast<std::uint64_t>(e.step),
                   static_cast<std::uint64_t>(e.group));
    if (!cfg_.flight_dump_path.empty()) {
      std::lock_guard dump_lock(flight_dump_mutex_);
      std::ofstream dump(cfg_.flight_dump_path, std::ios::trunc);
      if (dump) flight_.dump_jsonl(dump);
    }
  }

  ClusterConfig cfg_;
  HashRing ring_;
  /// Always-on black box; declared before the shards, which record into it.
  telemetry::FlightRecorder flight_;
  std::mutex flight_dump_mutex_;  ///< serializes automatic dumps
  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;  ///< a batch finished
  std::vector<std::unique_ptr<Shard>> shards_;
  SpillStore spill_;
  std::map<SessionId, Route> sessions_;
  /// Admitted, not yet finished requests per tenant (fair admission).
  std::map<std::uint64_t, std::size_t> tenant_queued_;
  bool draining_ = false;
  SessionId next_id_ = 1;
  std::uint64_t next_ticket_ = 1;
  std::uint64_t touch_clock_ = 0;  ///< LRU clock, bumped per submit
  std::uint64_t tick_ = 0;         ///< pump ticks (spill-thrash time base)
  // Cached cluster.* metrics (null without telemetry).
  telemetry::Counter* cnt_accepted_ = nullptr;
  telemetry::Counter* cnt_completed_ = nullptr;
  telemetry::Counter* cnt_rejected_[kAdmissionReasonCount] = {};
  telemetry::Counter* cnt_batches_ = nullptr;
  telemetry::Counter* cnt_migrations_ = nullptr;
  telemetry::Counter* cnt_spills_ = nullptr;
  telemetry::Counter* cnt_spill_restores_ = nullptr;
  telemetry::Counter* cnt_spill_rejected_ = nullptr;
  telemetry::Gauge* gauge_queue_ = nullptr;
  telemetry::Gauge* gauge_sessions_ = nullptr;
  telemetry::Gauge* gauge_resident_ = nullptr;
  telemetry::Gauge* gauge_spilled_ = nullptr;
  telemetry::Gauge* gauge_spill_bytes_ = nullptr;
  telemetry::Gauge* gauge_flight_occupancy_ = nullptr;
  telemetry::Gauge* gauge_flight_overwritten_ = nullptr;
};

/// Background scheduler: pump() in a loop, sleeping for the batch window
/// after each pass so concurrent submits coalesce into one batch. stop()
/// (also run by the destructor) joins the thread and then drains the
/// cluster -- admitted requests always execute; later submits reject with
/// kDraining.
template <typename Model>
class ClusterPumpLoop {
 public:
  ClusterPumpLoop(ServeCluster<Model>& cluster,
                  std::chrono::microseconds window)
      : cluster_(cluster), window_(window), thread_([this] { loop(); }) {}

  ~ClusterPumpLoop() { stop(); }
  ClusterPumpLoop(const ClusterPumpLoop&) = delete;
  ClusterPumpLoop& operator=(const ClusterPumpLoop&) = delete;

  /// Idempotent: stops the pump thread and drains remaining work.
  void stop() {
    stopping_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    cluster_.drain();
  }

 private:
  void loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
      cluster_.pump();
      std::this_thread::sleep_for(window_);
    }
  }

  ServeCluster<Model>& cluster_;
  std::chrono::microseconds window_;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace esthera::serve
