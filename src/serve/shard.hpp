// detail::Shard: one shard of a ServeCluster (see cluster.hpp). A shard is
// the part of the serving engine that owns sessions:
//
//   * the session table (keyed by the cluster's session id), each session
//     a DistributedParticleFilter on the shard's single-worker device;
//   * each session's FIFO request queue;
//   * EDF batch selection: at most one request per session, earliest
//     deadline first, ties broken by descending session cost, then id;
//   * batch stepping over the shard's ThreadPool (chunk = 1);
//   * the shard's serve.* metrics and request/queue_wait/batch spans, in
//     the shard's own Telemetry.
//
// Admission, routing, spill, migration, checkpoint/evict/restore, the
// flight recorder, the monitor hook and the expositions live once, in the
// owning ServeCluster. Its mutex guards every member here: all methods
// except step() run with it held; step() runs without it, the batch's
// sessions pinned by their busy flag.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/distributed_pf.hpp"
#include "device/device.hpp"
#include "mcore/thread_pool.hpp"
#include "serve/checkpoint.hpp"
#include "serve/serve.hpp"
#include "telemetry/context.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace esthera::serve::detail {

template <typename Model>
  requires models::SystemModel<Model>
class Shard {
 public:
  using T = typename Model::Scalar;
  using Filter = core::DistributedParticleFilter<Model>;
  using SessionId = std::uint64_t;
  using Clock = std::chrono::steady_clock;

  struct Request {
    std::uint64_t ticket = 0;
    double deadline = kNoDeadline;
    std::vector<T> z;
    std::vector<T> u;
    Clock::time_point enqueued;
    /// Minted trace identity (trace_id == 0 when tracing is off).
    telemetry::TraceContext ctx;
  };

  struct Session {
    std::uint64_t tenant = 0;  ///< owner tag propagated into spans/statusz
    std::unique_ptr<Filter> filter;
    std::deque<Request> pending;
    bool busy = false;            ///< currently stepping inside a batch
    std::uint64_t completed = 0;  ///< requests executed
    std::uint64_t cost = 0;       ///< deterministic per-step work estimate
    /// Live work counters of the session's own telemetry (null without
    /// it); when present, `cost` tracks the measured per-step average of
    /// (compare-exchanges + RNG draws) since open instead of the static
    /// model. Both are machine-independent.
    const telemetry::Counter* work_cmpex = nullptr;
    const telemetry::Counter* work_rng = nullptr;
    std::uint64_t work_base = 0;  ///< counter sum when the session opened
  };

  struct Entry {
    SessionId id = 0;
    Session* session = nullptr;
    Request req;
    /// The request's batch-residency span context; the filter's round
    /// span parents under it, completing the request -> queue_wait /
    /// batch -> step -> kernels tree.
    telemetry::TraceContext bctx;
    /// What the session's step threw, if it threw: the request is then
    /// dropped, the rest of the batch completes normally.
    std::exception_ptr error;
  };

  struct Batch {
    std::uint64_t seq = 0;  ///< batch sequence (span step + child salt)
    Clock::time_point dispatched;
    std::vector<Entry> entries;  ///< dispatch (EDF) order
  };

  /// `cfg.telemetry` is replaced by the shard's own Telemetry; flight
  /// events go to the owning server's recorder.
  Shard(ServeConfig cfg, telemetry::FlightRecorder& flight)
      : cfg_(std::move(cfg)),
        pool_(cfg_.workers == 0 ? mcore::ThreadPool::default_worker_count()
                                : cfg_.workers),
        // One emulated device for every session of the shard, with an
        // inline (single-worker) pool: session steps parallelize across
        // sessions via pool_, never inside one session. This is what makes
        // each session's trajectory independent of the worker count.
        device_(std::make_shared<device::Device>(1)),
        flight_(flight),
        cnt_accepted_(tel_.registry.counter("serve.requests.accepted")),
        cnt_completed_(tel_.registry.counter("serve.requests.completed")),
        cnt_batches_(tel_.registry.counter("serve.batches")),
        cnt_opened_(tel_.registry.counter("serve.sessions.opened")),
        cnt_closed_(tel_.registry.counter("serve.sessions.closed")),
        cnt_evicted_(tel_.registry.counter("serve.sessions.evicted")),
        cnt_restored_(tel_.registry.counter("serve.sessions.restored")),
        cnt_checkpoints_(tel_.registry.counter("serve.checkpoints")),
        gauge_queue_(tel_.registry.gauge("serve.queue.depth")),
        gauge_sessions_(tel_.registry.gauge("serve.sessions.open")),
        gauge_ckpt_bytes_(tel_.registry.gauge("serve.checkpoint.bytes")),
        gauge_dropped_spans_(tel_.registry.gauge("trace.dropped_spans")),
        hist_latency_(tel_.registry.histogram("serve.request.latency")),
        hist_batch_(tel_.registry.histogram("serve.batch.size")) {
    cfg_.telemetry = &tel_;
    // The shard-attributable reject reasons; the cluster-level policies
    // (shedding, fair share, spill restore) count under cluster.rejected.*.
    for (const Admission a :
         {Admission::kQueueFull, Admission::kSessionBacklog,
          Admission::kUnknownSession, Admission::kDraining,
          Admission::kSessionLimit}) {
      cnt_rejected_[static_cast<int>(a)] = &tel_.registry.counter(
          std::string("serve.rejected.") + to_string(a));
    }
    // Hardware-counter attribution for request batches: one "serve.batch"
    // accumulator fed by a profile::Scope around each batch dispatch. The
    // pool captures the scope, so the steps each worker executes accrue
    // their hardware deltas here alongside the batch-size and latency
    // histograms.
    auto& prof = tel_.profile;
    tel_.registry.gauge("profile.mode").set(static_cast<double>(prof.mode()));
    tel_.registry.gauge("profile.unavailable")
        .set(prof.unavailable_reason().empty() ? 0.0 : 1.0);
    if (prof.enabled()) {
      batch_accum_ = &prof.accumulator("serve.batch");
      gauge_batch_ipc_ = &tel_.registry.gauge("profile.serve.batch.ipc");
      gauge_batch_cpu_ns_ =
          &tel_.registry.gauge("profile.serve.batch.cpu_ns_per_request");
    }
  }

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// The shard's configuration; `telemetry` points at the shard's own
  /// serve.* registry, trace recorder and profiler.
  [[nodiscard]] const ServeConfig& config() const { return cfg_; }

  [[nodiscard]] std::size_t queue_depth() const { return queue_size_; }
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] bool full() const {
    return sessions_.size() >= cfg_.max_sessions;
  }
  [[nodiscard]] const telemetry::LatencyHistogram& latency() const {
    return hist_latency_;
  }

  /// Opens session `id` running `model` under `fcfg` on the shard's
  /// device; `state` (when given) continues a checkpointed trajectory. The
  /// returned session stays valid until erase(id).
  Session& open(SessionId id, const Model& model,
                const core::FilterConfig& fcfg, std::uint64_t tenant,
                const core::FilterState<T>* state) {
    auto filter = std::make_unique<Filter>(model, fcfg, device_);
    if (state != nullptr) filter->import_state(*state);
    Session s;
    s.tenant = tenant;
    s.cost = step_cost_model(fcfg, filter->model().state_dim());
    if (fcfg.telemetry != nullptr) {
      auto& reg = fcfg.telemetry->registry;
      s.work_cmpex = &reg.counter("work.compare_exchanges");
      s.work_rng = &reg.counter("work.rng_draws");
      s.work_base = s.work_cmpex->value() + s.work_rng->value();
    }
    s.filter = std::move(filter);
    Session& session = sessions_.emplace(id, std::move(s)).first->second;
    (state != nullptr ? cnt_restored_ : cnt_opened_).add(1);
    publish();
    return session;
  }

  /// Serializes an idle session to a versioned checkpoint blob.
  [[nodiscard]] std::vector<std::uint8_t> checkpoint(SessionId id) {
    auto blob = encode_checkpoint<T>(sessions_.at(id).filter->export_state());
    cnt_checkpoints_.add(1);
    gauge_ckpt_bytes_.set(static_cast<double>(blob.size()));
    return blob;
  }

  /// Removes an idle session, dropping its queued requests; `evicted`
  /// picks the counter (serve.sessions.evicted vs .closed).
  void erase(SessionId id, bool evicted) {
    const auto it = sessions_.find(id);
    queue_size_ -= it->second.pending.size();
    sessions_.erase(it);
    (evicted ? cnt_evicted_ : cnt_closed_).add(1);
    publish();
  }

  /// kAccepted, or the shard bound one more request on `s` would break.
  [[nodiscard]] Admission admit(const Session& s) const {
    if (queue_size_ >= cfg_.max_queue) return Admission::kQueueFull;
    if (s.pending.size() >= cfg_.max_pending_per_session) {
      return Admission::kSessionBacklog;
    }
    return Admission::kAccepted;
  }

  void enqueue(Session& s, Request req) {
    s.pending.push_back(std::move(req));
    ++queue_size_;
    cnt_accepted_.add(1);
    publish();
  }

  void count_reject(Admission why) {
    if (telemetry::Counter* c = cnt_rejected_[static_cast<int>(why)]) c->add(1);
  }

  /// Takes the next batch off the queues: up to max_batch idle sessions
  /// with pending work, one request each, in (deadline, cost desc, id)
  /// order. The batch's sessions stay busy until finish().
  [[nodiscard]] Batch select() {
    std::vector<std::pair<SessionId, Session*>> ready;
    for (auto& [id, s] : sessions_) {
      if (!s.busy && !s.pending.empty()) ready.emplace_back(id, &s);
    }
    std::sort(ready.begin(), ready.end(), [](const auto& a, const auto& b) {
      const double da = a.second->pending.front().deadline;
      const double db = b.second->pending.front().deadline;
      if (da != db) return da < db;
      if (a.second->cost != b.second->cost) {
        return a.second->cost > b.second->cost;
      }
      return a.first < b.first;
    });
    if (ready.size() > cfg_.max_batch) ready.resize(cfg_.max_batch);
    Batch batch;
    batch.entries.reserve(ready.size());
    for (auto& [id, s] : ready) {
      s->busy = true;
      batch.entries.push_back({id, s, std::move(s->pending.front()), {}, {}});
      s->pending.pop_front();
      --queue_size_;
    }
    if (!batch.entries.empty()) {
      batch.seq = next_batch_++;
      ++in_flight_batches_;
      publish();
    }
    return batch;
  }

  /// Steps every entry's session once, concurrently over the pool. Runs
  /// without the server mutex. A step that throws records the exception in
  /// its entry instead of unwinding a pool thread.
  void step(Batch& batch) {
    batch.dispatched = Clock::now();
    for (const Entry& e : batch.entries) {
      if (!e.req.ctx) continue;
      // queue_wait: admission to batch selection, parented to the request
      // span (recorded at completion).
      telemetry::TraceSpan qs = span(e, "queue_wait", e.req.enqueued,
                                     batch.dispatched);
      qs.span_id = telemetry::TraceContext::derive_span(e.req.ctx.span_id,
                                                        "queue_wait");
      tel_.trace.record_span(std::move(qs));
    }
    flight_.record(telemetry::FlightEventKind::kSpanBegin, "batch", 0,
                   batch.seq, batch.entries.size());
    // Batch-level profiling scope: the pool captures it at dispatch, so
    // every worker's share of the batch accrues into "serve.batch".
    // Session filters with their own profilers nest stage scopes inside
    // and restore this share on exit.
    profile::Scope prof_scope(batch_accum_ != nullptr ? &tel_.profile : nullptr,
                              batch_accum_);
    // chunk = 1: the batch is ordered costliest-first (LPT, see
    // serve.hpp), which balances only if each worker claims one session
    // at a time. The pool's default contiguous blocks would hand the
    // costliest sessions to one worker.
    pool_.run(
        batch.entries.size(),
        [&](std::size_t i, std::size_t /*worker*/) {
          Entry& e = batch.entries[i];
          try {
            if (e.req.ctx) {
              e.bctx = e.req.ctx.child("batch", batch.seq);
              e.session->filter->step(e.req.z, e.req.u, &e.bctx);
            } else {
              e.session->filter->step(e.req.z, e.req.u);
            }
          } catch (...) {
            e.error = std::current_exception();
          }
        },
        /*chunk=*/1);
  }

  /// Releases the batch's sessions and records latency, spans and
  /// completion metrics for every entry whose step returned. Returns how
  /// many did.
  std::size_t finish(const Batch& batch) {
    flight_.record(telemetry::FlightEventKind::kSpanEnd, "batch", 0,
                   batch.seq, batch.entries.size());
    const auto now = Clock::now();
    std::size_t completed = 0;
    for (const Entry& e : batch.entries) {
      Session& s = *e.session;
      s.busy = false;
      if (e.error) continue;
      ++completed;
      ++s.completed;
      if (s.work_cmpex != nullptr) {
        s.cost = (s.work_cmpex->value() + s.work_rng->value() - s.work_base) /
                 s.completed;
      }
      // One latency value feeds the histogram sample, its exemplar, and
      // the request span's duration, so an exemplar's trace resolves to a
      // request span with the bit-identical duration.
      const double lat_us =
          std::chrono::duration<double, std::micro>(now - e.req.enqueued)
              .count();
      hist_latency_.record(lat_us * 1e-6, e.req.ctx.trace_id);
      if (!e.req.ctx) continue;
      telemetry::TraceSpan bs = span(e, "batch", batch.dispatched, now);
      bs.step = batch.seq;
      bs.span_id = e.bctx.span_id;
      tel_.trace.record_span(std::move(bs));
      telemetry::TraceSpan rs = span(e, "request", e.req.enqueued, now);
      rs.dur_us = lat_us;
      rs.step = e.req.ticket;
      rs.span_id = e.req.ctx.span_id;
      rs.parent_span_id = 0;
      rs.deadline = e.req.deadline;
      tel_.trace.record_span(std::move(rs));
    }
    cnt_completed_.add(completed);
    cnt_batches_.add(1);
    hist_batch_.record(static_cast<double>(batch.entries.size()));
    if (batch_accum_ != nullptr) {
      // Derived batch-profile gauges from the lifetime sums; per-request
      // normalization uses the completed-request counter updated above.
      const auto sums = batch_accum_->sums();
      const auto done = static_cast<double>(cnt_completed_.value());
      if (done > 0.0) gauge_batch_cpu_ns_->set(sums.task_clock_ns / done);
      if (sums.hardware_samples > 0) gauge_batch_ipc_->set(sums.ipc());
    }
    --in_flight_batches_;
    publish();
    return completed;
  }

  /// The shard's esthera.statusz/1 object: queue, sessions, in-flight
  /// batches, latency quantiles, request counts, trace and profiler
  /// state. Reads only shard-owned state, never a busy filter.
  void write_status(telemetry::json::JsonWriter& w) const {
    w.begin_object();
    w.kv("schema", "esthera.statusz/1");
    w.kv("workers", static_cast<std::uint64_t>(pool_.worker_count()));
    w.kv("queue_depth", static_cast<std::uint64_t>(queue_size_));
    w.kv("sessions_open", static_cast<std::uint64_t>(sessions_.size()));
    w.kv("batches_in_flight", static_cast<std::uint64_t>(in_flight_batches_));
    w.key("sessions");
    w.begin_array();
    for (const auto& [id, s] : sessions_) {
      w.begin_object();
      w.kv("id", static_cast<std::uint64_t>(id));
      w.kv("tenant", s.tenant);
      w.kv("pending", static_cast<std::uint64_t>(s.pending.size()));
      w.kv("busy", s.busy);
      w.kv("completed", s.completed);
      w.kv("cost", s.cost);
      w.end_object();
    }
    w.end_array();
    w.key("latency");
    w.begin_object();
    w.kv("count", hist_latency_.count());
    w.kv("p50", hist_latency_.quantile(0.50));
    w.kv("p95", hist_latency_.quantile(0.95));
    w.kv("p99", hist_latency_.quantile(0.99));
    w.end_object();
    w.key("requests");
    w.begin_object();
    w.kv("accepted", cnt_accepted_.value());
    w.kv("completed", cnt_completed_.value());
    std::uint64_t rejected = 0;
    for (const telemetry::Counter* c : cnt_rejected_) {
      if (c != nullptr) rejected += c->value();
    }
    w.kv("rejected", rejected);
    w.end_object();
    w.key("trace");
    w.begin_object();
    w.kv("spans", static_cast<std::uint64_t>(tel_.trace.span_count()));
    w.kv("dropped_spans", tel_.trace.dropped_spans());
    w.end_object();
    // Profiler identity + batch attribution: the mode is fixed at
    // telemetry construction, and a non-empty unavailable reason is the
    // structured signal that a hardware request degraded to software.
    const auto& prof = tel_.profile;
    w.key("profile");
    w.begin_object();
    w.kv("mode", profile::to_string(prof.mode()));
    if (!prof.unavailable_reason().empty()) {
      w.kv("unavailable", prof.unavailable_reason());
    }
    if (batch_accum_ != nullptr) {
      const auto sums = batch_accum_->sums();
      w.kv("batch_samples", sums.samples);
      w.kv("batch_cpu_ns", sums.task_clock_ns);
      if (sums.hardware_samples > 0) {
        w.kv("batch_ipc", sums.ipc());
        w.kv("batch_cycles", sums.cycles);
        w.kv("batch_cache_misses", sums.cache_misses);
      }
    }
    w.end_object();
    w.end_object();
  }

 private:
  /// A span of entry `e`'s request tree over [from, to], parented to the
  /// request span and tagged with its session, tenant and track.
  telemetry::TraceSpan span(const Entry& e, const char* name,
                            Clock::time_point from, Clock::time_point to) {
    telemetry::TraceSpan s;
    s.name = name;
    s.ts_us = tel_.trace.us_since_epoch(from);
    s.dur_us = std::chrono::duration<double, std::micro>(to - from).count();
    s.track = e.req.ctx.track;
    s.trace_id = e.req.ctx.trace_id;
    s.parent_span_id = e.req.ctx.span_id;
    s.session = e.req.ctx.session;
    s.tenant = e.req.ctx.tenant;
    return s;
  }

  void publish() {
    gauge_queue_.set(static_cast<double>(queue_size_));
    gauge_sessions_.set(static_cast<double>(sessions_.size()));
    gauge_dropped_spans_.set(static_cast<double>(tel_.trace.dropped_spans()));
  }

  /// Declared first: the metric references below point into it.
  telemetry::Telemetry tel_;
  ServeConfig cfg_;
  mcore::ThreadPool pool_;
  std::shared_ptr<device::Device> device_;
  telemetry::FlightRecorder& flight_;
  std::map<SessionId, Session> sessions_;
  std::size_t queue_size_ = 0;
  std::size_t in_flight_batches_ = 0;  ///< batches between select and finish
  std::uint64_t next_batch_ = 1;
  telemetry::Counter& cnt_accepted_;
  telemetry::Counter& cnt_completed_;
  telemetry::Counter& cnt_batches_;
  telemetry::Counter& cnt_opened_;
  telemetry::Counter& cnt_closed_;
  telemetry::Counter& cnt_evicted_;
  telemetry::Counter& cnt_restored_;
  telemetry::Counter& cnt_checkpoints_;
  telemetry::Counter* cnt_rejected_[kAdmissionReasonCount] = {};
  telemetry::Gauge& gauge_queue_;
  telemetry::Gauge& gauge_sessions_;
  telemetry::Gauge& gauge_ckpt_bytes_;
  telemetry::Gauge& gauge_dropped_spans_;
  telemetry::LatencyHistogram& hist_latency_;
  telemetry::LatencyHistogram& hist_batch_;
  // Batch-level hardware-counter attribution (null when
  // ESTHERA_PROFILE=off).
  profile::StageAccum* batch_accum_ = nullptr;
  telemetry::Gauge* gauge_batch_ipc_ = nullptr;
  telemetry::Gauge* gauge_batch_cpu_ns_ = nullptr;
};

}  // namespace esthera::serve::detail
