// OpenMetrics text exposition for the MetricsRegistry: the standard
// scrape format (Prometheus & friends), so esthera metrics plug into
// off-the-shelf collection without a bespoke exporter. Counters become
// `<name>_total`, gauges map directly, and LatencyHistograms export their
// 64 geometric buckets as cumulative `le` buckets with a terminal `+Inf`,
// `_sum`/`_count`, and per-bucket exemplars carrying the retained trace
// id -- the OpenMetrics mirror of the JSON exemplar export.
//
// Output is deterministic: families are written in sorted (registry map)
// order and all floats use fixed printf formats, so identical metric
// values yield byte-identical documents regardless of worker count
// (test-enforced).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace esthera::telemetry {

class LatencyHistogram;
class MetricsRegistry;

namespace openmetrics {

/// Maps an internal dotted metric name onto the OpenMetrics name charset
/// [a-zA-Z_:][a-zA-Z0-9_:]* with an "esthera_" prefix:
/// "serve.request.latency" -> "esthera_serve_request_latency". Any byte
/// outside the charset becomes '_'; a leading digit gets a '_' prefix.
[[nodiscard]] std::string sanitize_name(std::string_view name);

/// Escapes a label value: backslash, double quote, and line feed become
/// \\ \" \n per the OpenMetrics ABNF.
[[nodiscard]] std::string escape_label(std::string_view value);

/// Escapes HELP text: backslash and line feed (double quotes are legal
/// inside HELP and pass through).
[[nodiscard]] std::string escape_help(std::string_view text);

/// Streaming writer for one exposition document. Families must be written
/// with unique names; call eof() last (the spec's required terminator).
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Monotonic counter; the sample line gets the spec's _total suffix.
  void counter(std::string_view name, std::string_view help,
               std::uint64_t value);

  void gauge(std::string_view name, std::string_view help, double value);

  /// Full histogram family: cumulative le buckets (terminal +Inf), _sum,
  /// _count, and one exemplar per bucket that retained a trace id
  /// (rendered as trace_id="0x<16 hex>").
  void histogram(std::string_view name, std::string_view help,
                 const LatencyHistogram& h);

  /// Info metric (constant 1 with identifying labels), e.g. build or
  /// profiler identity.
  void info(std::string_view name, std::string_view help,
            const std::vector<std::pair<std::string, std::string>>& labels);

  /// Writes the required "# EOF" terminator.
  void eof();

  // -- multi-sample families (sharded exposition) -----------------------
  // One family may carry several samples distinguished by a label (the
  // cluster uses shard="<i>"). TYPE/HELP must appear exactly once per
  // family, so the caller opens the family once and then appends one
  // labeled sample per shard.

  /// TYPE (+ optional HELP) header for a family whose samples follow via
  /// the *_sample calls. `type` is "counter", "gauge", or "histogram".
  void family_header(std::string_view name, std::string_view type,
                     std::string_view help);
  /// One labeled counter sample (`<name>_total{label="value"} v`).
  void counter_sample(std::string_view name, std::string_view label,
                      std::string_view label_value, std::uint64_t value);
  /// One labeled gauge sample.
  void gauge_sample(std::string_view name, std::string_view label,
                    std::string_view label_value, double value);
  /// One labeled histogram sample set: cumulative le buckets (the extra
  /// label first, le last), _sum, and _count, each carrying the label.
  void histogram_sample(std::string_view name, std::string_view label,
                        std::string_view label_value,
                        const LatencyHistogram& h);

 private:
  std::ostream& os_;
};

/// Writes every counter, gauge, and histogram in `registry` (sorted name
/// order) through `w`, without the terminator -- for callers that append
/// their own families (e.g. ServeCluster's profile info) before eof().
void write_families(Writer& w, const MetricsRegistry& registry);

/// Writes every counter, gauge, and histogram in `registry` (sorted
/// name order) followed by "# EOF".
void write_registry(std::ostream& os, const MetricsRegistry& registry);

/// Sharded exposition: takes the union of family names across
/// `registries` (sorted order) and writes each family once -- TYPE header
/// followed by one sample per registry that has the family, labeled
/// `label="<index>"`. Registries must agree on a family's kind (they do:
/// all shards register the same serve.* catalogue). No terminator, so the
/// caller can append cluster-level families before eof(). A histogram read
/// while its owner still records is race-free but may mix fields from
/// before and after a sample (a bucket total off from _count): pass
/// include_histograms = false then, and write histogram families yourself
/// from owner-locked snapshots (family_header + histogram_sample).
void write_labeled_families(Writer& w,
                            const std::vector<const MetricsRegistry*>&
                                registries,
                            std::string_view label,
                            bool include_histograms = true);

}  // namespace openmetrics
}  // namespace esthera::telemetry
