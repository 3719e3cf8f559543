// TraceContext: the request-scoped identity that connects one
// ServeCluster::submit() to every span it causes -- admission, queue
// wait, batch residency, the session step, and the six kernel launches
// under it -- so a single Chrome-trace/Perfetto view shows the whole
// causal tree for one request.
//
// Identities are SplitMix64-derived from (trace_seed, ticket): no
// wall-clock randomness, so a replayed workload mints the same trace ids
// and a test can predict the exemplar a histogram bucket retains. A
// context names one span (`span_id`); children derive their ids from the
// parent id and their stage name, so the tree is reconstructible from ids
// alone even if spans arrive out of order from different threads.
//
// Propagation is passive: a context never touches filter state and
// consumes no filter RNG, so estimates are bit-identical with tracing on
// or off (test-enforced, like telemetry attach).
#pragma once

#include <cstdint>
#include <string_view>

#include "prng/mt19937.hpp"

namespace esthera::telemetry {

class FlightRecorder;

/// Identity of one request-scoped span tree node. Zero trace_id means
/// "not traced" (contexts are cheap to pass by value; ~48 bytes).
struct TraceContext {
  std::uint64_t trace_id = 0;  ///< whole-request identity (never 0 when traced)
  std::uint64_t span_id = 0;   ///< the span this context denotes
  std::uint64_t session = 0;   ///< owning serve session (0 outside serve)
  std::uint64_t tenant = 0;    ///< tenant tag of the session
  std::uint32_t track = 0;     ///< Chrome "tid" the tree renders on
  /// Optional always-on flight recorder: spans opened under this context
  /// also log compact begin/end events into it. Borrowed, may be null.
  FlightRecorder* flight = nullptr;

  [[nodiscard]] explicit operator bool() const { return trace_id != 0; }

  /// Deterministically mints the root (request) context for `ticket`
  /// under `seed`: same (seed, ticket) -> same ids, across runs and
  /// worker counts.
  [[nodiscard]] static TraceContext mint(std::uint64_t seed,
                                         std::uint64_t ticket) {
    prng::SplitMix64 mix(seed ^
                         (0x9e3779b97f4a7c15ull * (ticket + 1)));
    TraceContext ctx;
    do {
      ctx.trace_id = mix();
    } while (ctx.trace_id == 0);
    ctx.span_id = mix();
    return ctx;
  }

  /// Child-span id for stage `name` under parent span `parent`: a pure
  /// function of (parent, name, salt), so concurrent producers agree on
  /// ids without coordination.
  [[nodiscard]] static std::uint64_t derive_span(std::uint64_t parent,
                                                 std::string_view name,
                                                 std::uint64_t salt = 0) {
    // FNV-1a over the stage name folded into a SplitMix64 finalizer.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    return prng::SplitMix64(parent ^ h ^ (salt * 0xd1342543de82ef95ull))();
  }

  /// Context denoting a child span of this one (same trace, ids derived).
  [[nodiscard]] TraceContext child(std::string_view name,
                                   std::uint64_t salt = 0) const {
    TraceContext c = *this;
    c.span_id = derive_span(span_id, name, salt);
    return c;
  }
};

}  // namespace esthera::telemetry
