// Randomized-corruption tests for the JSON DOM parser behind bench_compare:
// seed-driven byte flips, truncations, splices, kind swaps and nesting past
// the parser's depth limit, all starting from the checked-in
// esthera.bench/1 regression-gate baseline. The contract under ANY input is
// "a value, or nullopt with a non-empty error, agreeing with validate()" -
// never a crash or an out-of-bounds read (the sanitizer jobs run this suite
// under ASan+UBSan). Every mutated report that still parses goes through
// the comparator against the original, both ways round, which must return
// a verdict.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "bench_util/compare.hpp"
#include "telemetry/json.hpp"

namespace {

using namespace esthera;
using telemetry::json::Value;

/// Deepest value nesting the parser accepts, the innermost scalar counted
/// (kMaxDepth in telemetry/json.cpp).
constexpr std::size_t kMaxDepth = 256;

void emit(telemetry::json::JsonWriter& w, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull: w.null(); break;
    case Value::Kind::kBool: w.value(v.as_bool()); break;
    case Value::Kind::kNumber: w.value(v.as_number()); break;
    case Value::Kind::kString: w.value(v.as_string()); break;
    case Value::Kind::kArray:
      w.begin_array();
      for (const Value& item : v.as_array()) emit(w, item);
      w.end_array();
      break;
    case Value::Kind::kObject:
      w.begin_object();
      for (const auto& [key, member] : v.as_object()) {
        w.key(key);
        emit(w, member);
      }
      w.end_object();
      break;
  }
}

std::string to_text(const Value& v) {
  std::ostringstream os;
  telemetry::json::JsonWriter w(os);
  emit(w, v);
  return os.str();
}

/// `v` with every array cut to its first `keep` items: the baseline's
/// structure (build stamp, values, tables, counters, histograms, series)
/// at a size that affords thousands of mutations.
Value shrink(const Value& v, std::size_t keep) {
  if (v.is_array()) {
    std::vector<Value> items;
    for (std::size_t i = 0; i < v.as_array().size() && i < keep; ++i) {
      items.push_back(shrink(v.as_array()[i], keep));
    }
    return Value::make_array(std::move(items));
  }
  if (v.is_object()) {
    std::vector<Value::Member> members;
    for (const auto& [key, member] : v.as_object()) {
      members.emplace_back(key, shrink(member, keep));
    }
    return Value::make_object(std::move(members));
  }
  return v;
}

/// The corpus every mutation starts from: the checked-in baseline report,
/// arrays shortened, re-emitted by the writer the benches use.
const std::string& corpus_text() {
  static const std::string text = [] {
    std::ifstream in(ESTHERA_BENCH_BASELINE, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    const auto v = telemetry::json::parse(os.str());
    if (!v.has_value()) return std::string();
    return to_text(shrink(*v, 8));
  }();
  return text;
}

const Value& corpus() {
  static const Value v = telemetry::json::parse(corpus_text()).value_or(Value());
  return v;
}

/// Checks the parser's contract on `text`; a parsed report is then
/// compared with the corpus both ways round. Returns whether it parsed.
bool check(std::string_view text) {
  std::string error;
  const std::optional<Value> v = telemetry::json::parse(text, &error);
  std::string verror;
  EXPECT_EQ(telemetry::json::validate(text, &verror), v.has_value())
      << "parse and validate disagree: " << error << " / " << verror;
  if (!v.has_value()) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  for (const auto& r : {bench_util::compare::compare_reports(corpus(), *v),
                        bench_util::compare::compare_reports(*v, corpus())}) {
    EXPECT_GE(r.exit_status(), 0);
    EXPECT_LE(r.exit_status(), 2);
    if (r.fatal) {
      EXPECT_FALSE(r.fatal_reason.empty());
    }
  }
  return true;
}

class JsonParseFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_FALSE(corpus_text().empty())
        << "cannot read " << ESTHERA_BENCH_BASELINE;
    ASSERT_EQ(telemetry::json::parse(corpus_text())->find("schema")->as_string(),
              "esthera.bench/1");
  }
};

TEST_F(JsonParseFuzz, CorpusComparesCleanWithItself) {
  const auto r = bench_util::compare::compare_reports(corpus(), corpus());
  EXPECT_EQ(r.exit_status(), 0);
  EXPECT_FALSE(r.deltas.empty());
}

TEST_F(JsonParseFuzz, ByteFlipsYieldValueOrError) {
  const std::string& base = corpus_text();
  std::mt19937_64 rng(0xF11Bu);
  std::size_t parsed = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = base;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      text[rng() % text.size()] ^= static_cast<char>(1 + rng() % 255);
    }
    parsed += check(text) ? 1 : 0;
  }
  // Flips inside numbers and strings keep the document well-formed, so
  // both outcomes must occur.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, 3000u);
}

TEST_F(JsonParseFuzz, TruncationsYieldError) {
  const std::string& base = corpus_text();
  // Every strict prefix of an object is malformed.
  for (std::size_t len = 0; len < base.size(); len += 1 + len / 256) {
    EXPECT_FALSE(check(std::string_view(base).substr(0, len))) << "len=" << len;
  }
}

TEST_F(JsonParseFuzz, SplicesYieldValueOrError) {
  const std::string& base = corpus_text();
  std::mt19937_64 rng(0x5911CEu);
  for (int trial = 0; trial < 2000; ++trial) {
    // Copy a random span of the report over, or into, another place.
    const std::size_t from = rng() % base.size();
    const std::size_t len = 1 + rng() % std::min<std::size_t>(64, base.size() - from);
    const std::size_t to = rng() % base.size();
    std::string text = base;
    if (trial % 2 == 0) {
      text.insert(to, base, from, len);
    } else {
      text.replace(to, std::min(len, text.size() - to), base, from, len);
    }
    check(text);
  }
}

/// `v` with node number `target` (pre-order) replaced by a value of a
/// random kind; `counter` walks the pre-order numbering.
Value swap_kind(const Value& v, std::size_t target, std::size_t& counter,
                std::mt19937_64& rng) {
  if (counter++ == target) {
    switch (rng() % 6) {
      case 0: return Value::make_null();
      case 1: return Value::make_bool(true);
      case 2: return Value::make_number(-1e300);
      case 3: return Value::make_string("\xff\x01");
      case 4: return Value::make_array({Value::make_number(1.0)});
      default: return Value::make_object({});
    }
  }
  if (v.is_array()) {
    std::vector<Value> items;
    for (const Value& item : v.as_array()) {
      items.push_back(swap_kind(item, target, counter, rng));
    }
    return Value::make_array(std::move(items));
  }
  if (v.is_object()) {
    std::vector<Value::Member> members;
    for (const auto& [key, member] : v.as_object()) {
      members.emplace_back(key, swap_kind(member, target, counter, rng));
    }
    return Value::make_object(std::move(members));
  }
  return v;
}

TEST_F(JsonParseFuzz, KindSwappedReportsCompareToAVerdict) {
  // Well-formed but wrong-shaped reports: any node of the baseline turned
  // into a value of a random kind (a table into null, a counter into a string, ...).
  std::size_t nodes = 0;
  std::mt19937_64 unused;
  (void)swap_kind(corpus(), SIZE_MAX, nodes, unused);
  ASSERT_GT(nodes, 100u);
  std::mt19937_64 rng(0x4B1Du);
  for (int trial = 0; trial < 600; ++trial) {
    std::size_t counter = 0;
    const Value mutated = swap_kind(corpus(), rng() % nodes, counter, rng);
    EXPECT_TRUE(check(to_text(mutated)));
  }
}

TEST_F(JsonParseFuzz, NestingPastMaxDepthIsAnError) {
  // `levels` containers around one scalar: levels + 1 nested values.
  const auto nested = [](std::size_t levels, std::string_view open,
                         std::string_view close) {
    std::string s;
    for (std::size_t i = 0; i < levels; ++i) s += open;
    s += "0";
    for (std::size_t i = 0; i < levels; ++i) s += close;
    return s;
  };
  for (const auto& [open, close, per] :
       {std::tuple<std::string_view, std::string_view, std::size_t>{"[", "]", 1},
        {"{\"k\":", "}", 1},
        {"[{\"k\":", "}]", 2}}) {
    const std::size_t deepest = (kMaxDepth - 1) / per;
    EXPECT_TRUE(check(nested(deepest, open, close))) << open;
    for (const std::size_t levels :
         {deepest + 1, 4 * kMaxDepth, std::size_t{100000}}) {
      EXPECT_FALSE(check(nested(levels, open, close))) << open << " x" << levels;
    }
  }
  // Unclosed nesting: the depth limit fires before the missing closers.
  EXPECT_FALSE(check(std::string(100000, '[')));
  // Deep nesting spliced into the report as a table header: within the
  // limit the report still parses, past it the depth alone rejects it.
  const std::size_t at = corpus_text().find("\"headers\":[");
  ASSERT_NE(at, std::string::npos);
  for (const auto& [depth, ok] :
       {std::pair{kMaxDepth - 8, true}, std::pair{kMaxDepth, false}}) {
    std::string text = corpus_text();
    text.insert(at + 11, nested(depth, "[", "]") + ",");
    EXPECT_EQ(check(text), ok) << "depth " << depth;
  }
}

}  // namespace
