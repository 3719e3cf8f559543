// esthera::serve -- ServeCluster: the scale-out layer above
// SessionManager, in the shape of an inference-serving router. The paper
// scales particle filters by decomposing them into loosely-coupled
// sub-filters; the serve layer scales the same way: a cluster
// consistent-hashes cluster-global session ids over N SessionManager
// shards, each with its own scheduler pool, shared single-worker device,
// and telemetry registry, so shards never contend on a mutex or a metric.
//
// Three mechanisms ride on the versioned ESCP checkpoint blobs
// (serve/checkpoint.hpp), which make a session's entire trajectory a
// portable value:
//
//   migration   migrate(id, shard): drain the session's queued requests
//               on the source shard, evict it to a blob, restore on the
//               target. Because every session steps inline on a
//               single-worker device, the trajectory is bit-identical to
//               an unmigrated run (test-enforced).
//   spilling    an LRU + byte-budget SpillStore holds cold sessions as
//               blobs (in memory or one file per session). The next
//               submit restores the session transparently -- a spilled
//               session is *known*, never kUnknownSession; only an
//               unrecoverable blob surfaces, as kRestoreFailed.
//   overload    real admission policy ahead of the shard queues:
//               deadline-aware EDF shedding (reject requests that cannot
//               meet their deadline instead of letting them occupy queue
//               slots) and per-tenant fair admission (one hot tenant
//               cannot starve the rest of the shared queue capacity).
//               Both are driven purely by queue state and the caller's
//               monotone `now`, so verdicts are machine-independent.
//
// Observability follows the one-manager-per-monitor rule: shards run
// without monitors; the cluster owns its own flight recorder, cluster.*
// metrics, the shard_imbalance / spill_thrash detectors, and aggregated
// exposition -- statusz (schema esthera.cluster.statusz/1, embedding each
// shard's full document) and OpenMetrics (union of shard families, one
// TYPE header per family, samples labeled shard="<i>").
//
// Locking: cluster mutex -> shard mutex only. pump_shard() calls the
// shard's run_batch() with no cluster lock and only then takes the
// cluster mutex to account finished tickets; shards never call back into
// the cluster, so there is no cycle.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "monitor/monitor.hpp"
#include "serve/session_manager.hpp"
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
/// template; its telemetry/monitor/flight_dump_path fields are ignored
/// (the cluster owns one telemetry instance per shard and shards run
/// monitor-less -- one manager per monitor).
struct ClusterConfig {
  /// Number of SessionManager shards.
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
  /// Cluster-level health monitor (shard_imbalance, spill_thrash); its
  /// events feed the cluster flight recorder. Borrowed; one cluster per
  /// monitor.
  monitor::HealthMonitor* monitor = nullptr;
  /// When non-empty, the cluster flight ring is dumped here every time a
  /// monitor detector fires.
  std::string flight_dump_path;
  /// Per-thread cluster flight-recorder ring capacity, in events.
  std::size_t flight_events_per_thread = 4096;

  /// Throws std::invalid_argument on inconsistent bounds (also validates
  /// the shard template).
  void validate() const;
};

/// N SessionManager shards behind one consistent-hash router with
/// checkpoint-based migration, an LRU spill store, and overload control.
/// Thread-safe like SessionManager; see the file comment for lock order.
template <typename Model>
  requires models::SystemModel<Model>
class ServeCluster {
 public:
  using Manager = SessionManager<Model>;
  using T = typename Model::Scalar;
  using SessionId = std::uint64_t;

  static constexpr double kNoDeadline = Manager::kNoDeadline;

  struct OpenResult {
    Admission admission = Admission::kAccepted;
    SessionId id = 0;          ///< cluster-global session id
    std::size_t shard = 0;     ///< placement decided by the hash ring
    [[nodiscard]] bool ok() const { return admission == Admission::kAccepted; }
  };

  struct SubmitResult {
    Admission admission = Admission::kAccepted;
    std::uint64_t ticket = 0;  ///< shard-local ticket (EDF order handle)
    telemetry::TraceContext trace;
    std::size_t shard = 0;
    /// True when this submit transparently restored the session from the
    /// spill store first.
    bool restored_from_spill = false;
    [[nodiscard]] bool ok() const { return admission == Admission::kAccepted; }
  };

  explicit ServeCluster(ClusterConfig cfg)
      : cfg_(std::move(cfg)),
        ring_(cfg_.shards, cfg_.vnodes_per_shard),
        flight_(cfg_.flight_events_per_thread),
        spill_(cfg_.spill) {
    cfg_.validate();
    for (std::size_t i = 0; i < cfg_.shards; ++i) {
      shard_tel_.push_back(std::make_unique<telemetry::Telemetry>());
      ServeConfig scfg = cfg_.shard;
      scfg.telemetry = shard_tel_.back().get();
      scfg.monitor = nullptr;  // one manager per monitor; cluster owns its own
      scfg.flight_dump_path.clear();
      // Salt the trace seed per shard so tickets minted independently by
      // two shards never collide on a trace id.
      scfg.trace_seed =
          cfg_.shard.trace_seed ^ (0x9e3779b97f4a7c15ull * (i + 1));
      shards_.push_back(std::make_unique<Manager>(scfg));
    }
    for (int a = 0; a < kAdmissionReasonCount; ++a) {
      flight_.register_code(to_string(static_cast<Admission>(a)));
    }
    for (const char* code : {"migrate", "spill", "spill_restore"}) {
      flight_.register_code(code);
    }
    for (const char* d : {"shard_imbalance", "spill_thrash", "monitor"}) {
      flight_.register_code(d);
    }
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
    }
  }

  ~ServeCluster() {
    if (cfg_.monitor != nullptr) cfg_.monitor->set_event_callback({});
  }
  ServeCluster(const ServeCluster&) = delete;
  ServeCluster& operator=(const ServeCluster&) = delete;

  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const Manager& shard(std::size_t i) const {
    return *shards_[i];
  }
  /// Read-only spill-store view; meaningful when the cluster is quiescent
  /// (tests, post-drain inspection).
  [[nodiscard]] const SpillStore& spill_store() const { return spill_; }
  [[nodiscard]] const HashRing& ring() const { return ring_; }

  /// Opens a session, placed by the hash ring on its home shard (falling
  /// over to successive shards when the home shard is at max_sessions).
  /// `model` and `fcfg` are retained for checkpoint-based migration and
  /// spill restore; the cluster id in the result is global, not the
  /// shard-local id.
  [[nodiscard]] OpenResult open_session(Model model, core::FilterConfig fcfg,
                                        std::uint64_t tenant = 0) {
    std::unique_lock lock(mutex_);
    if (draining_) return {note_reject(Admission::kDraining), 0, 0};
    const SessionId id = next_id_++;
    const std::size_t home = ring_.shard_for(id);
    Admission last = Admission::kSessionLimit;
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      const std::size_t s = (home + k) % shards_.size();
      const auto opened = shards_[s]->open_session(model, fcfg, tenant);
      if (opened.ok()) {
        SessionEntry e{s, opened.id, tenant, std::move(model),
                       std::move(fcfg)};
        e.last_touch = ++touch_clock_;
        sessions_.emplace(id, std::move(e));
        publish_gauges_locked();
        return {Admission::kAccepted, id, s};
      }
      last = opened.admission;
      if (last != Admission::kSessionLimit) break;  // draining etc.
    }
    return {note_reject(last), 0, home};
  }

  /// Closes a session wherever it lives (resident or spilled), dropping
  /// queued requests. False when the id is unknown.
  bool close_session(SessionId id) {
    std::unique_lock lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    SessionEntry& e = it->second;
    if (e.spilled) {
      spill_.erase(id);
    } else {
      (void)shards_[e.shard]->close_session(e.local);
    }
    forget_session_locked(it);
    publish_gauges_locked();
    return true;
  }

  /// Admits one observe(z, u) request, restoring the session from the
  /// spill store first when needed. `deadline` and `now` share one
  /// monotone unit (seconds since workload start, say); `now` only
  /// matters when EDF shedding is enabled. Never blocks, never drops
  /// silently.
  [[nodiscard]] SubmitResult submit(SessionId id, std::span<const T> z,
                                    std::span<const T> u = {},
                                    double deadline = kNoDeadline,
                                    double now = 0.0) {
    if (std::isnan(deadline)) deadline = kNoDeadline;
    std::unique_lock lock(mutex_);
    if (draining_) return creject(Admission::kDraining);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return creject(Admission::kUnknownSession);
    SessionEntry& e = it->second;
    bool restored = false;
    if (e.spilled) {
      // A spilled session is known, not "unknown": restore on demand.
      // Only an unrecoverable blob rejects, and then as kRestoreFailed.
      const Admission a = restore_from_spill_locked(id, e);
      if (a != Admission::kAccepted) return creject(a);
      restored = true;
    }
    Manager& m = *shards_[e.shard];
    if (cfg_.shed_service_seconds > 0.0 && deadline != kNoDeadline) {
      // EDF shedding: if the request cannot finish by its deadline even
      // when everything ahead of it meets the assumed service time, shed
      // it now instead of letting it occupy a queue slot and miss anyway.
      const double projected =
          now + static_cast<double>(m.queue_depth() + 1) *
                    cfg_.shed_service_seconds;
      if (projected > deadline) {
        return creject(Admission::kDeadlineUnmeetable);
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
      if (mine_queued >= cap) return creject(Admission::kTenantOverQuota);
    }
    const auto r = m.submit(e.local, z, u, deadline);
    if (!r.ok()) {
      // The shard already counted its reason; mirror it cluster-wide.
      return creject(r.admission);
    }
    ticket_session_[{e.shard, r.ticket}] = id;
    ++e.queued;
    ++tenant_queued_[e.tenant];
    e.last_touch = ++touch_clock_;
    if (cnt_accepted_) cnt_accepted_->add(1);
    publish_gauges_locked();
    return {Admission::kAccepted, r.ticket, r.trace, e.shard, restored};
  }

  /// Runs one batch on shard `i` and accounts the finished tickets.
  /// Returns the number of requests dispatched.
  std::size_t pump_shard(std::size_t i) {
    // run_batch() without the cluster mutex: shards pump concurrently and
    // a long batch never blocks submits to other shards.
    const auto stats = shards_[i]->run_batch();
    std::unique_lock lock(mutex_);
    process_batch_locked(i, stats);
    return stats.dispatched;
  }

  /// One cluster scheduling tick: a batch on every shard, then the
  /// shard-imbalance probe and the LRU residency sweep. Returns the total
  /// number of requests dispatched.
  std::size_t pump() {
    {
      std::unique_lock lock(mutex_);
      ++tick_;
    }
    std::size_t dispatched = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      dispatched += pump_shard(i);
    }
    std::unique_lock lock(mutex_);
    if (cfg_.monitor != nullptr && !shards_.empty()) {
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
  /// evict-to-blob -> restore, without dropping queued requests. The
  /// migrated trajectory is bit-identical to an unmigrated one
  /// (test-enforced). For a spilled session only the routing changes (it
  /// restores on the new shard later). False when the id is unknown, the
  /// target is out of range, or the target refuses the session (the
  /// session then stays on its source shard).
  bool migrate(SessionId id, std::size_t target) {
    std::unique_lock lock(mutex_);
    if (target >= shards_.size()) return false;
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    SessionEntry& e = it->second;
    if (e.spilled) {
      e.shard = target;
      return true;
    }
    if (e.shard == target) return true;
    // Drain the session's queued requests on the source: its requests
    // must execute exactly where they were admitted, in order. Batches
    // run other sessions' requests too -- account their tickets as usual.
    // e.shard is re-read each pass: the lock drops while waiting out an
    // in-flight batch, and a concurrent migrate may have rerouted us.
    for (;;) {
      Manager& src = *shards_[e.shard];
      const auto pending = src.pending(e.local);
      if (!pending.has_value() || *pending == 0) break;
      const auto stats = src.run_batch();
      process_batch_locked(e.shard, stats);
      if (stats.dispatched == 0) {
        // The session is mid-step inside another thread's batch; that
        // batch finishes without the cluster mutex, so yield briefly.
        lock.unlock();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        lock.lock();
        it = sessions_.find(id);
        if (it == sessions_.end()) return false;  // raced a close
      }
    }
    Manager& src = *shards_[e.shard];
    const auto blob = src.evict(e.local);
    if (!blob.has_value()) return false;
    const auto opened =
        shards_[target]->restore_session(e.model, e.fcfg, *blob, e.tenant);
    if (!opened.ok()) {
      // Target refused (e.g. kSessionLimit): put the session back.
      const auto back = src.restore_session(e.model, e.fcfg, *blob, e.tenant);
      if (back.ok()) {
        e.local = back.id;
      } else {
        forget_session_locked(it);  // both shards refused; session is gone
      }
      return false;
    }
    e.shard = target;
    e.local = opened.id;
    if (cnt_migrations_) cnt_migrations_->add(1);
    flight_.record(telemetry::FlightEventKind::kMark, "migrate", 0, id,
                   target);
    return true;
  }

  /// Force-spills an idle resident session to the store (the LRU sweep
  /// does this automatically under a residency budget). False when the
  /// session has queued work, the store refuses the blob (byte budget),
  /// or the id is unknown; the session then stays resident.
  bool spill_session(SessionId id) {
    std::unique_lock lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    if (it->second.spilled) return true;
    return spill_locked(it);
  }

  /// Graceful shutdown: stops admitting, executes everything already
  /// queued, then drains every shard.
  void drain() {
    {
      std::unique_lock lock(mutex_);
      draining_ = true;
    }
    for (;;) {
      const std::size_t dispatched = pump();
      std::unique_lock lock(mutex_);
      std::size_t queued = 0;
      for (const auto& s : shards_) queued += s->queue_depth();
      if (queued == 0) break;
      lock.unlock();
      if (dispatched == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    for (const auto& s : shards_) s->drain();
  }

  [[nodiscard]] bool draining() const {
    std::unique_lock lock(mutex_);
    return draining_;
  }

  /// Total queued requests across shards.
  [[nodiscard]] std::size_t queue_depth() const {
    std::unique_lock lock(mutex_);
    std::size_t queued = 0;
    for (const auto& s : shards_) queued += s->queue_depth();
    return queued;
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
    return it->second.spilled;
  }

  /// Current state estimate; a spilled session answers from its decoded
  /// checkpoint blob without being restored.
  [[nodiscard]] std::optional<std::vector<T>> estimate(SessionId id) const {
    std::unique_lock lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return std::nullopt;
    const SessionEntry& e = it->second;
    if (!e.spilled) return shards_[e.shard]->estimate(e.local);
    try {
      const auto state = decode_checkpoint<T>(spill_.peek(id));
      return state.estimate;
    } catch (const CheckpointError&) {
      return std::nullopt;
    }
  }

  /// Steps taken so far; spilled sessions answer from the blob header.
  [[nodiscard]] std::optional<std::uint64_t> step_index(SessionId id) const {
    std::unique_lock lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return std::nullopt;
    const SessionEntry& e = it->second;
    if (!e.spilled) return shards_[e.shard]->step_index(e.local);
    try {
      return decode_checkpoint<T>(spill_.peek(id)).step;
    } catch (const CheckpointError&) {
      return std::nullopt;
    }
  }

  /// Queued requests for one session (0 while spilled).
  [[nodiscard]] std::optional<std::size_t> pending(SessionId id) const {
    std::unique_lock lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return std::nullopt;
    const SessionEntry& e = it->second;
    if (e.spilled) return std::size_t{0};
    return shards_[e.shard]->pending(e.local);
  }

  /// Cluster-wide request-latency view: every shard's histogram merged
  /// (each snapshot taken under its shard's mutex).
  [[nodiscard]] telemetry::LatencyHistogram merged_latency() const {
    telemetry::LatencyHistogram merged;
    for (const auto& s : shards_) merged.merge(s->latency_snapshot());
    return merged;
  }

  void dump_flight(std::ostream& os) const { flight_.dump_jsonl(os); }

  /// Aggregated introspection: one `esthera.cluster.statusz/1` JSON
  /// document -- cluster totals, spill/tenant/reject state, the merged
  /// latency quantiles, one row per shard (with the shard's full
  /// esthera.statusz/1 document embedded under "detail"), and one row per
  /// session with its placement and residency state.
  void write_statusz(std::ostream& os) const {
    // Shard snapshots are taken outside the cluster mutex (each shard
    // locks itself); the cluster mutex then freezes routing state.
    std::vector<std::string> shard_docs(shards_.size());
    std::vector<telemetry::LatencyHistogram> shard_lat(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      std::ostringstream doc;
      shards_[i]->write_statusz(doc);
      shard_docs[i] = doc.str();
      while (!shard_docs[i].empty() &&
             (shard_docs[i].back() == '\n' || shard_docs[i].back() == '\r')) {
        shard_docs[i].pop_back();
      }
      shard_lat[i] = shards_[i]->latency_snapshot();
    }
    std::unique_lock lock(mutex_);
    telemetry::json::JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "esthera.cluster.statusz/1");
    w.kv("draining", draining_);
    w.kv("tick", tick_);
    w.kv("shard_count", static_cast<std::uint64_t>(shards_.size()));
    std::size_t queued = 0;
    for (const auto& s : shards_) queued += s->queue_depth();
    w.kv("queue_depth", static_cast<std::uint64_t>(queued));
    const std::size_t resident = resident_count_locked();
    w.key("sessions_summary");
    w.begin_object();
    w.kv("total", static_cast<std::uint64_t>(sessions_.size()));
    w.kv("resident", static_cast<std::uint64_t>(resident));
    w.kv("spilled",
         static_cast<std::uint64_t>(sessions_.size() - resident));
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
        w.kv(to_string(static_cast<Admission>(a)),
             cnt_rejected_[a]->value());
      }
      w.end_object();
    }
    {
      telemetry::LatencyHistogram merged;
      for (const auto& h : shard_lat) merged.merge(h);
      w.key("latency");
      w.begin_object();
      w.kv("count", merged.count());
      w.kv("p50", merged.quantile(0.50));
      w.kv("p95", merged.quantile(0.95));
      w.kv("p99", merged.quantile(0.99));
      w.end_object();
    }
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
        if (e.spilled && e.shard == i) ++spilled_here;
      }
      w.begin_object();
      w.kv("shard", static_cast<std::uint64_t>(i));
      w.kv("sessions",
           static_cast<std::uint64_t>(shards_[i]->session_count()));
      w.kv("queue_depth",
           static_cast<std::uint64_t>(shards_[i]->queue_depth()));
      w.kv("spilled", static_cast<std::uint64_t>(spilled_here));
      w.key("detail");
      w.raw_value(shard_docs[i]);
      w.end_object();
    }
    w.end_array();
    w.key("sessions");
    w.begin_array();
    for (const auto& [id, e] : sessions_) {
      w.begin_object();
      w.kv("id", static_cast<std::uint64_t>(id));
      w.kv("shard", static_cast<std::uint64_t>(e.shard));
      w.kv("state", e.spilled ? "spilled" : "resident");
      w.kv("tenant", e.tenant);
      w.kv("queued", static_cast<std::uint64_t>(e.queued));
      w.end_object();
    }
    w.end_array();
    w.key("flight");
    w.begin_object();
    w.kv("occupancy", static_cast<std::uint64_t>(flight_.occupancy()));
    w.kv("capacity", static_cast<std::uint64_t>(flight_.capacity()));
    w.kv("total", flight_.total_recorded());
    w.kv("overwritten", flight_.overwritten());
    w.end_object();
    if (cfg_.monitor != nullptr) {
      w.key("monitor");
      w.begin_object();
      w.kv("events",
           static_cast<std::uint64_t>(cfg_.monitor->event_count()));
      w.kv("suppressed",
           static_cast<std::uint64_t>(cfg_.monitor->suppressed_count()));
      w.end_object();
    }
    w.end_object();
    os << '\n';
  }

  /// Aggregated OpenMetrics exposition: the union of every shard's
  /// serve.* families written once each with per-shard samples labeled
  /// shard="<i>" (histograms from shard-locked snapshots), followed by
  /// the cluster's own cluster.* families, then "# EOF".
  void write_openmetrics(std::ostream& os) const {
    telemetry::openmetrics::Writer w(os);
    std::vector<const telemetry::MetricsRegistry*> regs;
    regs.reserve(shards_.size());
    for (const auto& t : shard_tel_) regs.push_back(&t->registry);
    // Counters and gauges are atomic: read them live. Histograms are
    // copied under each shard's mutex, so every snapshot matches a batch
    // boundary (bucket totals equal _count).
    telemetry::openmetrics::write_labeled_families(
        w, regs, "shard", /*include_histograms=*/false);
    std::set<std::string> hist_names;
    for (const auto* reg : regs) {
      for (auto& n : reg->histogram_names()) hist_names.insert(n);
    }
    for (const auto& name : hist_names) {
      w.family_header(name, "histogram", {});
      for (std::size_t i = 0; i < shards_.size(); ++i) {
        const telemetry::LatencyHistogram* live =
            regs[i]->find_histogram(name);
        if (live == nullptr) continue;
        telemetry::LatencyHistogram snap;
        shards_[i]->with_export_lock([&] { snap = *live; });
        char idx[24];
        std::snprintf(idx, sizeof idx, "%zu", i);
        w.histogram_sample(name, "shard", idx, snap);
      }
    }
    if (cfg_.telemetry != nullptr) {
      std::unique_lock lock(mutex_);
      telemetry::openmetrics::write_families(w, cfg_.telemetry->registry);
    }
    w.eof();
  }

 private:
  struct SessionEntry {
    std::size_t shard = 0;  ///< current placement (routing, not identity)
    typename Manager::SessionId local = 0;  ///< shard-local id (0 spilled)
    std::uint64_t tenant = 0;
    /// Retained for migration and spill restore (restore_session needs
    /// the model and config the session opened with).
    Model model;
    core::FilterConfig fcfg;
    bool spilled = false;
    std::size_t queued = 0;       ///< cluster-tracked queued requests
    std::uint64_t last_touch = 0; ///< LRU clock value of the last submit
    std::uint64_t spill_tick = 0; ///< pump tick of the last spill
  };

  using SessionIter = typename std::map<SessionId, SessionEntry>::iterator;

  Admission note_reject(Admission why) {
    flight_.record(telemetry::FlightEventKind::kAdmission, to_string(why));
    if (telemetry::Counter* c = cnt_rejected_[static_cast<int>(why)]) {
      c->add(1);
    }
    return why;
  }

  SubmitResult creject(Admission why) { return {note_reject(why), 0, {}, 0}; }

  /// Accounts one finished batch of shard `i`: each ticket releases its
  /// tenant's queue slot. Assumes the cluster mutex is held.
  void process_batch_locked(std::size_t i,
                            const typename Manager::BatchStats& stats) {
    for (const std::uint64_t ticket : stats.tickets) {
      const auto mit = ticket_session_.find({i, ticket});
      if (mit == ticket_session_.end()) continue;
      const auto sit = sessions_.find(mit->second);
      if (sit != sessions_.end()) {
        if (sit->second.queued > 0) --sit->second.queued;
        const auto tq = tenant_queued_.find(sit->second.tenant);
        if (tq != tenant_queued_.end() && tq->second > 0) --tq->second;
      }
      ticket_session_.erase(mit);
    }
    if (stats.dispatched > 0) {
      if (cnt_batches_) cnt_batches_->add(1);
      if (cnt_completed_) {
        cnt_completed_->add(static_cast<std::uint64_t>(stats.dispatched));
      }
    }
  }

  /// Restores a spilled session onto its routed shard. Assumes the
  /// cluster mutex is held. Returns kAccepted, kRestoreFailed (corrupt or
  /// unreadable blob; kept in the store for postmortem when possible), or
  /// the shard's structured refusal (e.g. kSessionLimit).
  Admission restore_from_spill_locked(SessionId id, SessionEntry& e) {
    std::vector<std::uint8_t> blob;
    try {
      blob = spill_.take(id);
    } catch (const CheckpointError&) {
      return Admission::kRestoreFailed;
    }
    typename Manager::OpenResult opened;
    try {
      opened = shards_[e.shard]->restore_session(e.model, e.fcfg, blob,
                                                 e.tenant);
    } catch (const CheckpointError&) {
      // Corrupt blob: put it back so an operator can inspect it.
      try {
        (void)spill_.put(id, blob);
      } catch (const CheckpointError&) {
      }
      return Admission::kRestoreFailed;
    }
    if (!opened.ok()) {
      try {
        (void)spill_.put(id, blob);
      } catch (const CheckpointError&) {
      }
      return opened.admission;
    }
    e.spilled = false;
    e.local = opened.id;
    if (cnt_spill_restores_) cnt_spill_restores_->add(1);
    flight_.record(telemetry::FlightEventKind::kMark, "spill_restore", 0, id,
                   e.shard);
    if (cfg_.monitor != nullptr) {
      cfg_.monitor->observe_spill_restore(
          tick_, static_cast<std::int64_t>(id), tick_ - e.spill_tick);
    }
    return Admission::kAccepted;
  }

  /// Spills one idle resident session. Assumes the cluster mutex is held
  /// and `it` is resident. False when the session has queued work or the
  /// store refuses the blob; the session stays resident either way.
  bool spill_locked(SessionIter it) {
    SessionEntry& e = it->second;
    if (e.queued > 0) return false;
    Manager& m = *shards_[e.shard];
    const auto pending = m.pending(e.local);
    if (!pending.has_value() || *pending != 0) return false;
    const auto blob = m.evict(e.local);  // waits for an in-flight step
    if (!blob.has_value()) return false;
    bool stored = false;
    try {
      stored = spill_.put(it->first, *blob);
    } catch (const CheckpointError&) {
      stored = false;
    }
    if (!stored) {
      const auto back = m.restore_session(e.model, e.fcfg, *blob, e.tenant);
      if (back.ok()) {
        e.local = back.id;
      } else {
        forget_session_locked(it);  // cannot hold it anywhere; drop it
      }
      if (cnt_spill_rejected_) cnt_spill_rejected_->add(1);
      return false;
    }
    e.spilled = true;
    e.local = 0;
    e.spill_tick = tick_;
    if (cnt_spills_) cnt_spills_->add(1);
    flight_.record(telemetry::FlightEventKind::kMark, "spill", 0, it->first,
                   e.shard);
    return true;
  }

  /// LRU sweep: while the resident count exceeds the budget, spill the
  /// least-recently-touched idle session. Stops when nothing idle is left
  /// or the store refuses a blob. Assumes the cluster mutex is held.
  void enforce_residency_locked() {
    if (cfg_.max_resident_sessions == 0) return;
    while (resident_count_locked() > cfg_.max_resident_sessions) {
      SessionIter lru = sessions_.end();
      for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
        const SessionEntry& e = it->second;
        if (e.spilled || e.queued > 0) continue;
        if (lru == sessions_.end() ||
            e.last_touch < lru->second.last_touch) {
          lru = it;
        }
      }
      if (lru == sessions_.end()) return;
      if (!spill_locked(lru)) return;
    }
  }

  [[nodiscard]] std::size_t resident_count_locked() const {
    std::size_t resident = 0;
    for (const auto& [id, e] : sessions_) {
      if (!e.spilled) ++resident;
    }
    return resident;
  }

  /// Drops a session's routing entry and releases every slot it still
  /// held (queued counts, ticket map). Assumes the cluster mutex is held.
  void forget_session_locked(SessionIter it) {
    const SessionId id = it->first;
    const SessionEntry& e = it->second;
    const auto tq = tenant_queued_.find(e.tenant);
    if (tq != tenant_queued_.end()) {
      tq->second -= std::min(tq->second, e.queued);
    }
    for (auto mit = ticket_session_.begin(); mit != ticket_session_.end();) {
      if (mit->second == id) {
        mit = ticket_session_.erase(mit);
      } else {
        ++mit;
      }
    }
    sessions_.erase(it);
  }

  void publish_gauges_locked() {
    if (gauge_queue_ != nullptr) {
      std::size_t queued = 0;
      for (const auto& s : shards_) queued += s->queue_depth();
      gauge_queue_->set(static_cast<double>(queued));
    }
    if (gauge_sessions_ != nullptr) {
      const std::size_t resident = resident_count_locked();
      gauge_sessions_->set(static_cast<double>(sessions_.size()));
      gauge_resident_->set(static_cast<double>(resident));
      gauge_spilled_->set(static_cast<double>(sessions_.size() - resident));
      gauge_spill_bytes_->set(static_cast<double>(spill_.bytes()));
    }
  }

  [[nodiscard]] static const char* detector_code(const std::string& name) {
    for (const char* d : {"shard_imbalance", "spill_thrash"}) {
      if (name == d) return d;
    }
    return "monitor";
  }

  /// Monitor hook: observing thread, monitor lock held. Touches only the
  /// lock-free flight recorder and the dump mutex -- never mutex_ (the
  /// probes are called with mutex_ held, so taking it here would
  /// deadlock).
  void on_monitor_event(const monitor::Event& e) {
    flight_.record(telemetry::FlightEventKind::kMonitor,
                   detector_code(e.detector), 0,
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
  /// One telemetry instance per shard: the serve.* metric names would
  /// collide in a shared registry, and per-shard trace/flight state must
  /// stay independent. Declared before shards_ (the managers borrow).
  std::vector<std::unique_ptr<telemetry::Telemetry>> shard_tel_;
  std::vector<std::unique_ptr<Manager>> shards_;
  telemetry::FlightRecorder flight_;
  mutable std::mutex flight_dump_mutex_;
  mutable std::mutex mutex_;
  SpillStore spill_;
  std::map<SessionId, SessionEntry> sessions_;
  /// (shard, shard-local ticket) -> cluster session id, for releasing
  /// tenant queue slots as batches finish.
  std::map<std::pair<std::size_t, std::uint64_t>, SessionId> ticket_session_;
  std::map<std::uint64_t, std::size_t> tenant_queued_;
  bool draining_ = false;
  SessionId next_id_ = 1;
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
};

/// Background scheduler for a cluster, mirroring BatchLoop: pump() in a
/// loop, sleeping for the window when a pass dispatched nothing. stop()
/// (also run by the destructor) joins the thread and drains the cluster.
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
