// esthera::serve -- the multi-tenant filter serving runtime. The filters
// under core/ are single-owner objects driven by one bench loop; this
// layer is what the ROADMAP's "heavy traffic from millions of users"
// north star needs on top of them. One engine, ServeCluster
// (serve/cluster.hpp), owns many independent tracking sessions (each a
// DistributedParticleFilter with its own seed, model parameters, and
// optional telemetry/monitor) spread over N shards. Each shard
// coalesces pending observe(z, u) requests across its sessions into bulk
// steps dispatched over the shard's mcore::ThreadPool; admission control
// bounds the request queues and rejects with a structured reason instead
// of blocking or dropping silently; and session checkpoint/restore
// (serve/checkpoint.hpp) serializes a session to a versioned binary blob
// so idle sessions can be evicted, spilled, migrated between shards, and
// crashed servers recovered. A single-node server is a one-shard cluster.
//
// Scheduling is earliest-deadline-first within a batch window, load-aware
// in the spirit of non-proportional allocation (see PAPERS.md): among
// requests with equal deadlines the costliest session dispatches first
// (longest-processing-time order), so the pool's dynamic chunking fills
// the stragglers' shadow with cheap sessions. Session cost comes from the
// session's own deterministic work counters when it carries telemetry,
// and from the closed-form per-step work model below otherwise -- both
// are machine-independent, so scheduling decisions are reproducible.
//
// Determinism: every session's filter runs its device inline (one worker)
// and touches only its own state, so with a fixed per-session seed the
// estimate() trajectory is bit-identical regardless of the shard count,
// worker count, batch interleaving, or an intervening checkpoint/restore,
// spill or migration -- test-enforced, like the telemetry/monitor
// bit-identity guarantees.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/config.hpp"

namespace esthera::serve {

/// No deadline: schedulable last, after every deadlined request.
inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// Admission-control verdicts. kAccepted is the success value; everything
/// else is a structured rejection reason surfaced to the caller (and
/// counted under serve.rejected.* when telemetry is attached).
enum class Admission : std::uint8_t {
  kAccepted,        ///< request/session admitted
  kQueueFull,       ///< shard pending-request queue at ServeConfig::max_queue
  kSessionBacklog,  ///< session at ServeConfig::max_pending_per_session
  /// No session with that id: closed, evicted, or never opened. NOT used
  /// for sessions spilled to the spill store -- those are still known and
  /// are restored transparently on the next submit; only an
  /// unrecoverable restore surfaces (as kRestoreFailed, never as
  /// kUnknownSession).
  kUnknownSession,
  kDraining,        ///< server is draining / shut down; not admitting work
  kSessionLimit,    ///< every shard already holds ServeConfig::max_sessions
  /// Cluster overload control: the request's deadline cannot be met even
  /// if admitted now (EDF shedding; see ClusterConfig::shed_service_seconds).
  kDeadlineUnmeetable,
  /// Cluster fair admission: the tenant is over its fair share of queue
  /// capacity while other tenants have queued work.
  kTenantOverQuota,
  /// A spilled session's checkpoint blob failed to decode/restore
  /// (corrupt or unreadable spill file). Structured, never a crash; the
  /// blob is kept on disk for postmortem.
  kRestoreFailed,
};

/// Number of Admission enumerators (for reject-counter arrays and
/// flight-code registration loops).
inline constexpr int kAdmissionReasonCount = 9;

[[nodiscard]] const char* to_string(Admission a);

/// Per-shard configuration (the ClusterConfig::shard template): queue
/// bounds, batch shape, worker count and request tracing.
struct ServeConfig {
  /// Cap on queued (admitted, not yet executed) requests per shard.
  std::size_t max_queue = 1024;
  /// Per-session cap on queued requests (backpressure for one hot tenant).
  std::size_t max_pending_per_session = 8;
  /// Most requests dispatched per shard batch (at most one per session
  /// per batch; a session's requests execute in submission order).
  std::size_t max_batch = 64;
  /// Cap on concurrently open sessions per shard.
  std::size_t max_sessions = 1024;
  /// Worker threads of each shard's scheduler pool (0 = auto, honouring
  /// ESTHERA_WORKERS / the --workers override).
  std::size_t workers = 0;
  /// The shard's own serve.* metrics sink (docs/OBSERVABILITY.md). Set by
  /// the cluster for each shard (read it via ServeCluster::shard(i)
  /// .config().telemetry); ignored in the ClusterConfig template.
  telemetry::Telemetry* telemetry = nullptr;
  /// Mint a TraceContext per admitted request (request/queue_wait/batch/
  /// step spans + flight span events). Purely passive: per-session
  /// estimates are bit-identical either way (test-enforced).
  bool trace_requests = true;
  /// Seed for SplitMix64-derived trace ids: same (seed, ticket) -> same
  /// trace id, so replayed workloads trace identically.
  std::uint64_t trace_seed = 0x657374686572ull;  // "esther"

  /// Throws std::invalid_argument on inconsistent bounds (zero queue or
  /// batch capacity, per-session cap above the queue cap).
  void validate() const;
};

/// Deterministic per-step cost model of one distributed-filter round, in
/// abstract work units: the dominating closed-form tallies behind the
/// work.* counters (bitonic compare-exchanges, RNG draws, and per-particle
/// sampling work). Used for load-aware batch ordering when a session has
/// no live work counters of its own.
[[nodiscard]] std::uint64_t step_cost_model(const core::FilterConfig& cfg,
                                            std::size_t state_dim);

}  // namespace esthera::serve
