// End-to-end request-tracing tests: deterministic TraceContext minting and
// span-id derivation, the bounded multi-threaded TraceRecorder (cap +
// dropped_spans), spans surviving exceptions (including a model that
// throws mid-kernel), the lock-free FlightRecorder ring (wrap, thread
// slots, JSONL schema, unregistered codes), the monitor -> flight
// auto-dump hook, the serve request span tree (request -> queue_wait /
// batch -> step -> kernels with session and tenant tags), exemplar
// retention determinism across worker counts, statusz, a throwing session
// step releasing its whole batch, and the bit-identity guarantee: tracing
// + flight + monitor attached changes no estimate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/distributed_pf.hpp"
#include "monitor/monitor.hpp"
#include "serve/cluster.hpp"
#include "sim/ground_truth.hpp"
#include "telemetry/context.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace esthera;

using ArmModel = models::RobotArmModel<float>;
using Server = serve::ServeCluster<ArmModel>;

/// A one-shard server: the single-node shape of the serving engine.
serve::ClusterConfig one_shard(std::size_t workers = 0) {
  serve::ClusterConfig ccfg;
  ccfg.shards = 1;
  ccfg.shard.workers = workers;
  return ccfg;
}

core::FilterConfig small_config(std::uint64_t seed = 21) {
  core::FilterConfig cfg;
  cfg.particles_per_filter = 16;
  cfg.num_filters = 4;
  cfg.seed = seed;
  cfg.workers = 1;
  return cfg;
}

struct Traffic {
  std::vector<std::vector<float>> z;
  std::vector<std::vector<float>> u;

  explicit Traffic(std::uint64_t scenario_seed, std::size_t steps) {
    sim::RobotArmScenario scenario;
    scenario.reset(scenario_seed);
    for (std::size_t k = 0; k < steps; ++k) {
      const auto step = scenario.advance();
      z.emplace_back(step.z.begin(), step.z.end());
      u.emplace_back(step.u.begin(), step.u.end());
    }
  }
};

ArmModel make_model(std::uint64_t scenario_seed) {
  sim::RobotArmScenario scenario;
  scenario.reset(scenario_seed);
  return scenario.make_model<float>();
}

/// Asserts every non-empty line of `text` is one well-formed JSON value.
void expect_valid_jsonl(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::string error;
    EXPECT_TRUE(telemetry::json::validate(line, &error))
        << "line " << lines << ": " << error << "\n" << line;
    ++lines;
  }
  EXPECT_GT(lines, 0u);
}

// ---------------------------------------------------------------- context

TEST(TraceContext, MintIsDeterministicNonzeroAndTicketSensitive) {
  const auto a = telemetry::TraceContext::mint(42, 7);
  const auto b = telemetry::TraceContext::mint(42, 7);
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, b.span_id);
  EXPECT_NE(a.trace_id, 0u);
  EXPECT_TRUE(static_cast<bool>(a));

  EXPECT_NE(telemetry::TraceContext::mint(42, 8).trace_id, a.trace_id);
  EXPECT_NE(telemetry::TraceContext::mint(43, 7).trace_id, a.trace_id);
  EXPECT_FALSE(static_cast<bool>(telemetry::TraceContext{}));
}

TEST(TraceContext, DerivedSpanIdsDependOnParentNameAndSalt) {
  const std::uint64_t parent = 0x1234u;
  const auto s1 = telemetry::TraceContext::derive_span(parent, "batch", 1);
  EXPECT_EQ(telemetry::TraceContext::derive_span(parent, "batch", 1), s1);
  EXPECT_NE(telemetry::TraceContext::derive_span(parent, "step", 1), s1);
  EXPECT_NE(telemetry::TraceContext::derive_span(parent, "batch", 2), s1);
  EXPECT_NE(telemetry::TraceContext::derive_span(parent + 1, "batch", 1), s1);

  auto ctx = telemetry::TraceContext::mint(1, 1);
  ctx.session = 5;
  ctx.tenant = 9;
  const auto child = ctx.child("batch", 3);
  EXPECT_EQ(child.trace_id, ctx.trace_id);
  EXPECT_EQ(child.session, 5u);
  EXPECT_EQ(child.tenant, 9u);
  EXPECT_EQ(child.span_id,
            telemetry::TraceContext::derive_span(ctx.span_id, "batch", 3));
}

// --------------------------------------------------------------- recorder

TEST(TraceRecorder, CapBoundsRetainedSpansAndCountsDrops) {
  telemetry::TraceRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    telemetry::TraceSpan s;
    s.name = "s" + std::to_string(i);
    rec.record_span(std::move(s));
  }
  EXPECT_EQ(rec.span_count(), 4u);
  EXPECT_EQ(rec.dropped_spans(), 6u);
  EXPECT_EQ(rec.spans().size(), 4u);
  EXPECT_EQ(rec.max_spans(), 4u);
  // The retained spans are the first four (single-threaded FIFO admission).
  EXPECT_EQ(rec.spans()[0].name, "s0");
  EXPECT_EQ(rec.spans()[3].name, "s3");

  rec.clear();
  EXPECT_EQ(rec.span_count(), 0u);
  EXPECT_EQ(rec.dropped_spans(), 0u);
}

TEST(TraceRecorder, MergesPerThreadBuffersCompletely) {
  telemetry::TraceRecorder rec;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 50;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        telemetry::TraceSpan s;
        s.name = "t" + std::to_string(t);
        s.step = i;
        rec.record_span(std::move(s));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), kThreads * kPerThread);
  EXPECT_EQ(rec.dropped_spans(), 0u);
  std::map<std::string, std::size_t> per_thread;
  for (const auto& s : spans) ++per_thread[s.name];
  for (const auto& [name, n] : per_thread) EXPECT_EQ(n, kPerThread) << name;
}

TEST(TraceRecorder, ScopedSpanRecordsWhenRegionThrows) {
  telemetry::TraceRecorder rec;
  try {
    telemetry::ScopedSpan span(&rec, "doomed", 0, 1, 3);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "doomed");
  EXPECT_TRUE(spans[0].thrown);
  EXPECT_EQ(spans[0].step, 3u);
  EXPECT_GE(spans[0].dur_us, 0.0);
}

/// Pendulum-style 1-d model whose log-likelihood throws when the
/// observation carries the poison value -- exercises span recording when
/// the traced kernel itself unwinds.
template <typename T>
class ThrowingModel {
 public:
  using Scalar = T;
  [[nodiscard]] std::size_t state_dim() const { return 1; }
  [[nodiscard]] std::size_t measurement_dim() const { return 1; }
  [[nodiscard]] std::size_t control_dim() const { return 0; }
  [[nodiscard]] std::size_t noise_dim() const { return 1; }
  [[nodiscard]] std::size_t init_noise_dim() const { return 1; }
  [[nodiscard]] std::size_t measurement_noise_dim() const { return 1; }

  void sample_initial(std::span<T> x, std::span<const T> normals) const {
    x[0] = normals[0];
  }
  void sample_transition(std::span<const T> x_prev, std::span<T> x,
                         std::span<const T> /*u*/, std::span<const T> normals,
                         std::size_t /*step*/) const {
    x[0] = T(0.9) * x_prev[0] + T(0.1) * normals[0];
  }
  void sample_measurement(std::span<const T> x, std::span<T> z,
                          std::span<const T> normals) const {
    z[0] = x[0] + T(0.1) * normals[0];
  }
  [[nodiscard]] T log_likelihood(std::span<const T> x,
                                 std::span<const T> z) const {
    if (z[0] > T(1e30)) throw std::runtime_error("poisoned observation");
    const T e = z[0] - x[0];
    return -T(0.5) * e * e * T(100);
  }
};

TEST(TraceRecorder, ThrowingModelStillRecordsKernelAndRoundSpans) {
  telemetry::Telemetry tel;
  core::FilterConfig cfg = small_config(3);
  cfg.telemetry = &tel;
  core::DistributedParticleFilter<ThrowingModel<float>> pf(ThrowingModel<float>{},
                                                           cfg);
  const std::vector<float> good{0.25f};
  pf.step(good);
  const std::size_t healthy = tel.trace.span_count();
  EXPECT_GT(healthy, 0u);

  const std::vector<float> poison{1e31f};
  EXPECT_THROW(pf.step(poison), std::runtime_error);

  // The weighting kernel and the enclosing round span must both have been
  // recorded despite the unwind, flagged as thrown.
  bool weigh_thrown = false;
  bool round_thrown = false;
  for (const auto& s : tel.trace.spans()) {
    if (s.thrown && s.name == "sampling+weighting") weigh_thrown = true;
    if (s.thrown && s.name == "step") round_thrown = true;
  }
  EXPECT_TRUE(weigh_thrown);
  EXPECT_TRUE(round_thrown);
  EXPECT_GT(tel.trace.span_count(), healthy);

  // The chrome export flags the thrown spans and stays well-formed.
  std::ostringstream os;
  tel.trace.write_chrome_trace(os);
  std::string error;
  EXPECT_TRUE(telemetry::json::validate(os.str(), &error)) << error;
  EXPECT_NE(os.str().find("\"thrown\":true"), std::string::npos);
}

// ----------------------------------------------------------------- flight

TEST(FlightRecorder, RingWrapKeepsMostRecentEvents) {
  telemetry::FlightRecorder flight(/*events_per_thread=*/8, /*max_threads=*/4);
  static const char* kCode = "wrap";
  flight.register_code(kCode);
  for (std::uint64_t i = 0; i < 20; ++i) {
    flight.record(telemetry::FlightEventKind::kMark, kCode, 0, i, 0);
  }
  EXPECT_EQ(flight.occupancy(), 8u);
  EXPECT_EQ(flight.total_recorded(), 20u);
  EXPECT_EQ(flight.overwritten(), 12u);
  const auto events = flight.events();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 12 + i);  // only the most recent survive
    EXPECT_EQ(events[i].code, "wrap");
  }
  flight.clear();
  EXPECT_EQ(flight.occupancy(), 0u);
  EXPECT_EQ(flight.total_recorded(), 0u);
}

TEST(FlightRecorder, DumpsValidJsonlAndNeverDereferencesUnknownCodes) {
  telemetry::FlightRecorder flight(16, 2);
  static const char* kKnown = "known_code";
  flight.register_code(kKnown);
  const char* unregistered = "unregistered_code";
  flight.record(telemetry::FlightEventKind::kSpanBegin, kKnown, 0xabcd, 1, 2);
  flight.record(telemetry::FlightEventKind::kMark, unregistered, 0, 3, 4);

  std::ostringstream os;
  flight.dump_jsonl(os);
  expect_valid_jsonl(os.str());
  EXPECT_NE(os.str().find("esthera.flight/1"), std::string::npos);
  EXPECT_NE(os.str().find("known_code"), std::string::npos);
  EXPECT_NE(os.str().find("\"code\":\"?\""), std::string::npos);
  EXPECT_EQ(os.str().find("unregistered_code"), std::string::npos);
  EXPECT_NE(os.str().find("0x000000000000abcd"), std::string::npos);
}

TEST(FlightRecorder, ThreadsBeyondMaxAreCountedNotCrashed) {
  telemetry::FlightRecorder flight(8, /*max_threads=*/1);
  static const char* kCode = "slot";
  flight.register_code(kCode);
  flight.record(telemetry::FlightEventKind::kMark, kCode);  // claims slot 0
  std::thread extra([&] {
    for (int i = 0; i < 5; ++i) {
      flight.record(telemetry::FlightEventKind::kMark, kCode);
    }
  });
  extra.join();
  EXPECT_EQ(flight.dropped_threads(), 5u);
  EXPECT_EQ(flight.occupancy(), 1u);
}

// --------------------------------------------------------- serve plumbing

TEST(ServeTracing, MonitorEventFeedsFlightAndAutoDumpsRing) {
  const std::string dump_path =
      testing::TempDir() + "/esthera_flight_dump.jsonl";
  std::remove(dump_path.c_str());

  monitor::HealthMonitor mon;
  serve::ClusterConfig ccfg = one_shard();
  ccfg.monitor = &mon;
  ccfg.flight_dump_path = dump_path;
  Server server(ccfg);

  const auto opened = server.open_session(make_model(5), small_config(5), 3);
  ASSERT_TRUE(opened.ok());
  const Traffic traffic(5, 2);
  ASSERT_TRUE(server.submit(opened.id, traffic.z[0], traffic.u[0]).ok());
  server.pump();

  // Force an ess_collapse emission through the monitor's own probe; the
  // server's callback must log it into the flight ring and dump the ring.
  mon.observe_group(/*step=*/1, /*group=*/0, /*ess_fraction=*/0.001,
                    /*unique_parent=*/1.0, /*normalized_entropy=*/1.0,
                    /*degenerate=*/false, /*nonfinite_weights=*/0);
  ASSERT_EQ(mon.count("ess_collapse"), 1u);

  std::ifstream is(dump_path);
  ASSERT_TRUE(is.good()) << "auto-dump did not create " << dump_path;
  std::stringstream buffer;
  buffer << is.rdbuf();
  expect_valid_jsonl(buffer.str());
  EXPECT_NE(buffer.str().find("ess_collapse"), std::string::npos);
  EXPECT_NE(buffer.str().find("\"kind\":\"monitor\""), std::string::npos);
  // The ring also kept the earlier request lifecycle events.
  EXPECT_NE(buffer.str().find("\"kind\":\"admission\""), std::string::npos);
  std::remove(dump_path.c_str());
}

TEST(ServeTracing, RequestTreeIsFullyParentedWithSessionAndTenantTags) {
  Server server(one_shard(1));
  telemetry::Telemetry& tel = *server.shard(0).config().telemetry;

  // Sessions share the shard's telemetry, so the filter's step/kernel
  // spans land in the same recorder as the serve layer's
  // request/queue_wait/batch spans -- one tree, one trace file.
  core::FilterConfig fcfg1 = small_config(5);
  core::FilterConfig fcfg2 = small_config(6);
  fcfg1.telemetry = &tel;
  fcfg2.telemetry = &tel;
  const auto s1 = server.open_session(make_model(5), fcfg1, /*tenant=*/7);
  const auto s2 = server.open_session(make_model(6), fcfg2, /*tenant=*/9);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());

  const Traffic t1(5, 3), t2(6, 3);
  std::vector<Server::SubmitResult> submits;
  for (std::size_t k = 0; k < 3; ++k) {
    submits.push_back(server.submit(s1.id, t1.z[k], t1.u[k], /*deadline=*/k));
    submits.push_back(server.submit(s2.id, t2.z[k], t2.u[k], /*deadline=*/k));
    ASSERT_TRUE(submits[submits.size() - 2].ok());
    ASSERT_TRUE(submits.back().ok());
  }
  server.drain();

  const auto spans = tel.trace.spans();
  for (const auto& submit : submits) {
    const std::uint64_t trace_id = submit.trace.trace_id;
    ASSERT_NE(trace_id, 0u);

    // Collect this request's spans by name.
    std::map<std::string, const telemetry::TraceSpan*> by_name;
    std::vector<const telemetry::TraceSpan*> kernels;
    for (const auto& s : spans) {
      if (s.trace_id != trace_id) continue;
      if (s.name == "request" || s.name == "queue_wait" || s.name == "batch" ||
          s.name == "step") {
        EXPECT_EQ(by_name.count(s.name), 0u) << "duplicate " << s.name;
        by_name[s.name] = &s;
      } else {
        kernels.push_back(&s);
      }
    }
    ASSERT_EQ(by_name.count("request"), 1u);
    ASSERT_EQ(by_name.count("queue_wait"), 1u);
    ASSERT_EQ(by_name.count("batch"), 1u);
    ASSERT_EQ(by_name.count("step"), 1u);
    EXPECT_GE(kernels.size(), 6u);  // prng, weigh, sort, estimate, 2x exchange, ...

    const auto* request = by_name["request"];
    EXPECT_EQ(request->parent_span_id, 0u);
    EXPECT_EQ(request->span_id, submit.trace.span_id);
    EXPECT_EQ(by_name["queue_wait"]->parent_span_id, request->span_id);
    EXPECT_EQ(by_name["batch"]->parent_span_id, request->span_id);
    EXPECT_EQ(by_name["step"]->parent_span_id, by_name["batch"]->span_id);
    for (const auto* k : kernels) {
      EXPECT_EQ(k->parent_span_id, by_name["step"]->span_id) << k->name;
    }

    // Session/tenant tags and a common track on every span of the tree.
    const std::uint64_t session = request->session;
    const std::uint64_t tenant = request->tenant;
    EXPECT_TRUE(session == s1.id || session == s2.id);
    EXPECT_EQ(tenant, session == s1.id ? 7u : 9u);
    for (const auto& [name, s] : by_name) {
      EXPECT_EQ(s->session, session) << name;
      EXPECT_EQ(s->tenant, tenant) << name;
      EXPECT_EQ(s->track, static_cast<std::uint32_t>(session)) << name;
    }
  }

  // The whole capture exports as one well-formed Chrome trace with the
  // request-tree tags present.
  std::ostringstream os;
  tel.trace.write_chrome_trace(os);
  std::string error;
  ASSERT_TRUE(telemetry::json::validate(os.str(), &error)) << error;
  EXPECT_NE(os.str().find("\"trace\":"), std::string::npos);
  EXPECT_NE(os.str().find("\"parent\":"), std::string::npos);
  EXPECT_NE(os.str().find("\"tenant\":"), std::string::npos);
  EXPECT_NE(os.str().find("\"deadline\":"), std::string::npos);
}

TEST(ServeTracing, TracingFlightAndMonitorDoNotPerturbEstimates) {
  const Traffic traffic(11, 6);
  const auto run = [&](bool observed) {
    telemetry::Telemetry tel;
    monitor::HealthMonitor mon;
    serve::ClusterConfig ccfg = one_shard();
    ccfg.shard.trace_requests = observed;
    if (observed) {
      ccfg.telemetry = &tel;
      ccfg.monitor = &mon;
    }
    Server server(ccfg);
    core::FilterConfig fcfg = small_config(77);
    if (observed) {
      fcfg.telemetry = &tel;
      fcfg.monitor = &mon;
    }
    const auto opened = server.open_session(make_model(11), fcfg, 4);
    EXPECT_TRUE(opened.ok());
    for (std::size_t k = 0; k < traffic.z.size(); ++k) {
      EXPECT_TRUE(server.submit(opened.id, traffic.z[k], traffic.u[k]).ok());
      server.pump();
    }
    return *server.estimate(opened.id);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(ServeTracing, ExemplarRetentionIsDeterministicAcrossWorkerCounts) {
  const Traffic t1(31, 4), t2(32, 4), t3(33, 4);
  std::vector<std::uint64_t> minted_reference;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    Server server(one_shard(workers));
    const telemetry::Telemetry& tel = *server.shard(0).config().telemetry;
    const auto s1 = server.open_session(make_model(31), small_config(31), 1);
    const auto s2 = server.open_session(make_model(32), small_config(32), 2);
    const auto s3 = server.open_session(make_model(33), small_config(33), 3);
    ASSERT_TRUE(s1.ok() && s2.ok() && s3.ok());

    std::vector<std::uint64_t> minted;
    for (std::size_t k = 0; k < 4; ++k) {
      for (const auto& [id, tr] :
           {std::pair(s1.id, &t1), std::pair(s2.id, &t2), std::pair(s3.id, &t3)}) {
        const auto submit = server.submit(id, tr->z[k], tr->u[k]);
        ASSERT_TRUE(submit.ok());
        minted.push_back(submit.trace.trace_id);
      }
      server.pump();
    }
    server.drain();

    // Trace ids are a pure function of (seed, ticket): identical across
    // worker counts.
    if (minted_reference.empty()) {
      minted_reference = minted;
    } else {
      EXPECT_EQ(minted, minted_reference) << "workers=" << workers;
    }

    // Recover each request's recorded latency from its request span; the
    // shard records the histogram sample as exactly dur_us * 1e-6, so
    // the expected exemplar (max value, tie -> min trace id) is
    // reconstructible bit-exactly.
    std::map<std::size_t, std::pair<double, std::uint64_t>> expected;
    std::size_t requests_seen = 0;
    for (const auto& s : tel.trace.spans()) {
      if (s.name != "request") continue;
      ++requests_seen;
      const double value = s.dur_us * 1e-6;
      const std::size_t b = telemetry::LatencyHistogram::bucket_index(value);
      auto [it, fresh] = expected.try_emplace(b, value, s.trace_id);
      if (!fresh && (value > it->second.first ||
                     (value == it->second.first &&
                      s.trace_id < it->second.second))) {
        it->second = {value, s.trace_id};
      }
    }
    EXPECT_EQ(requests_seen, minted.size()) << "workers=" << workers;

    const auto& hist = *tel.registry.find_histogram("serve.request.latency");
    for (std::size_t b = 0; b < telemetry::LatencyHistogram::kBucketCount; ++b) {
      const auto it = expected.find(b);
      if (it == expected.end()) {
        EXPECT_EQ(hist.exemplar_trace(b), 0u) << "workers=" << workers;
      } else {
        EXPECT_EQ(hist.exemplar_trace(b), it->second.second)
            << "workers=" << workers << " bucket=" << b;
        EXPECT_EQ(hist.exemplar_value(b), it->second.first)
            << "workers=" << workers << " bucket=" << b;
      }
    }
  }
}

TEST(ServeTracing, StatuszIsValidJsonWithLiveState) {
  telemetry::Telemetry tel;
  monitor::HealthMonitor mon;
  serve::ClusterConfig ccfg = one_shard();
  ccfg.telemetry = &tel;
  ccfg.monitor = &mon;
  Server server(ccfg);

  const auto s1 = server.open_session(make_model(5), small_config(5), 7);
  const auto s2 = server.open_session(make_model(6), small_config(6), 9);
  ASSERT_TRUE(s1.ok() && s2.ok());
  const Traffic traffic(5, 3);
  for (std::size_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(server.submit(s1.id, traffic.z[k], traffic.u[k]).ok());
  }
  server.pump();
  mon.observe_group(1, 0, 0.001, 1.0, 1.0, false, 0);

  std::ostringstream os;
  server.write_statusz(os);
  std::string error;
  const auto doc = telemetry::json::parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;

  EXPECT_EQ(doc->find("schema")->as_string(), "esthera.cluster.statusz/1");
  EXPECT_EQ(doc->find("queue_depth")->as_number(), 2.0);  // 3 submitted, 1 ran
  // The shard row carries the per-shard state.
  const auto& shards = doc->find("shards")->as_array();
  ASSERT_EQ(shards.size(), 1u);
  const auto* shard = shards[0].find("detail");
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->find("schema")->as_string(), "esthera.statusz/1");
  EXPECT_EQ(shard->find("sessions_open")->as_number(), 2.0);
  EXPECT_EQ(shard->find("queue_depth")->as_number(), 2.0);
  EXPECT_EQ(shard->find("batches_in_flight")->as_number(), 0.0);

  const auto& sessions = shard->find("sessions")->as_array();
  ASSERT_EQ(sessions.size(), 2u);
  std::set<double> tenants;
  for (const auto& s : sessions) {
    tenants.insert(s.find("tenant")->as_number());
    EXPECT_FALSE(s.find("busy")->as_bool());
  }
  EXPECT_EQ(tenants, (std::set<double>{7.0, 9.0}));

  ASSERT_NE(doc->find("latency"), nullptr);
  EXPECT_EQ(doc->find("latency")->find("count")->as_number(), 1.0);
  ASSERT_NE(shard->find("latency"), nullptr);
  EXPECT_EQ(shard->find("latency")->find("count")->as_number(), 1.0);
  ASSERT_NE(doc->find("flight"), nullptr);
  EXPECT_GT(doc->find("flight")->find("occupancy")->as_number(), 0.0);
  ASSERT_NE(shard->find("trace"), nullptr);
  EXPECT_GT(shard->find("trace")->find("spans")->as_number(), 0.0);
  ASSERT_NE(doc->find("monitor"), nullptr);
  EXPECT_EQ(doc->find("monitor")->find("events")->as_number(), 1.0);
  const auto& recent = doc->find("monitor")->find("recent")->as_array();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].find("detector")->as_string(), "ess_collapse");
}

// Regression: a session step that throws inside a batch must not leave
// the batch's other sessions busy forever. The poisoned and the healthy
// session share one batch; after the throw the healthy one has stepped,
// and it closes, estimates and checkpoints without blocking, with nothing
// left queued or in flight. With one worker the poisoned step runs on the
// calling thread; with two, either thread may run it.
TEST(ServeTracing, ThrowingStepReleasesEveryBatchSession) {
  using ThrowingServer = serve::ServeCluster<ThrowingModel<float>>;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    auto server = std::make_unique<ThrowingServer>(one_shard(workers));
    const auto poisoned =
        server->open_session(ThrowingModel<float>{}, small_config(61));
    const auto healthy =
        server->open_session(ThrowingModel<float>{}, small_config(62));
    ASSERT_TRUE(poisoned.ok() && healthy.ok());
    const std::vector<float> poison{1e31f};
    const std::vector<float> good{0.25f};
    ASSERT_TRUE(server->submit(poisoned.id, poison, {}, 0.0).ok());
    ASSERT_TRUE(server->submit(healthy.id, good, {}, 1.0).ok());
    EXPECT_THROW(server->pump(), std::runtime_error) << "workers=" << workers;

    // Bounded wait: a session left busy would block these calls forever.
    auto released = std::async(std::launch::async, [&s = *server, &healthy] {
      const bool stepped = s.step_index(healthy.id) == 1u;
      const bool estimated = s.estimate(healthy.id).has_value();
      const bool checkpointed = s.checkpoint(healthy.id).has_value();
      return stepped && estimated && checkpointed &&
             s.close_session(healthy.id);
    });
    if (released.wait_for(std::chrono::seconds(2)) !=
        std::future_status::ready) {
      ADD_FAILURE() << "healthy session still busy 2 s after the throw, "
                    << "workers=" << workers;
      // Leak the server and the blocked task rather than hang on teardown.
      (void)server.release();
      new auto(std::move(released));
      return;
    }
    EXPECT_TRUE(released.get()) << "workers=" << workers;
    EXPECT_EQ(server->queue_depth(), 0u);
    std::ostringstream os;
    server->write_statusz(os);
    const auto doc = telemetry::json::parse(os.str());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("shards")->as_array()[0].find("detail")->find(
                  "batches_in_flight")->as_number(),
              0.0);
  }
}

// -------------------------------------------------------------- exemplars

TEST(Exemplars, RetentionRuleIsMaxValueThenMinTraceId) {
  telemetry::LatencyHistogram h;
  const double v = 3e-3;  // all land in one bucket
  const std::size_t b = telemetry::LatencyHistogram::bucket_index(v);
  h.record(v, 50);
  EXPECT_EQ(h.exemplar_trace(b), 50u);
  h.record(v * 1.01, 90);  // larger value wins
  EXPECT_EQ(h.exemplar_trace(b), 90u);
  h.record(v, 10);  // smaller value does not displace
  EXPECT_EQ(h.exemplar_trace(b), 90u);
  h.record(v * 1.01, 40);  // tie -> smaller trace id
  EXPECT_EQ(h.exemplar_trace(b), 40u);
  h.record(v * 1.01, 80);  // tie, larger id -> unchanged
  EXPECT_EQ(h.exemplar_trace(b), 40u);
  h.record(v * 1.02, 0);  // untraced: counted but never an exemplar
  EXPECT_EQ(h.exemplar_trace(b), 40u);
  EXPECT_EQ(h.count(), 6u);

  h.reset();
  EXPECT_EQ(h.exemplar_trace(b), 0u);
}

TEST(Exemplars, SnapshotExportCarriesExemplarTraceIds) {
  telemetry::Telemetry tel;
  tel.registry.histogram("serve.request.latency").record(2e-3, 0xdeadbeefull);
  std::ostringstream os;
  telemetry::json::JsonWriter w(os);
  w.begin_object();
  telemetry::write_snapshot_fields(w, tel);
  w.end_object();
  std::string error;
  ASSERT_TRUE(telemetry::json::validate(os.str(), &error)) << error;
  EXPECT_NE(os.str().find("\"exemplars\""), std::string::npos);
  EXPECT_NE(os.str().find("0x00000000deadbeef"), std::string::npos);
}

}  // namespace
