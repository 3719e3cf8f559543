// Serving-runtime throughput: N independent robot-arm tracking sessions
// behind one ServeCluster, driven by an open-loop arrival schedule (the
// submit side never waits for completions, like real ingress traffic).
// Arrivals past the admission bounds are rejected with a structured
// reason and counted -- an open-loop client loses those samples, it does
// not retry. By default the server has one shard, and the report carries
// that shard's serve.* telemetry: end-to-end request latency quantiles
// (serve.request.latency), the batch-size histogram, and the
// serve.rejected.* counters via the standard telemetry snapshot.
//
// With --trace the report also carries trace_overhead_p50_ratio, the
// measured cost of request tracing itself: a closed-loop run (every
// session submits its next request, the server pumps until its queue is
// empty) times each pump per request it ran, untraced (trace_requests
// off) and traced, in five alternating pairs; the ratio is the median
// over the pairs of traced / untraced median service time. No request
// waits behind a burst of arrivals there, so queueing cannot masquerade
// as tracing cost.
//
//   --sessions S     concurrent tracking sessions (default 8, --full 32)
//   --requests K     observe() requests per session (default 100, --full 500)
//   --rate R         total arrival rate in requests/second across sessions;
//                    0 (default) = unthrottled, every request arrives at t=0,
//                    deliberately saturating admission control
//   --max-batch B    scheduler batch capacity (default 16)
//   --max-queue Q    per-shard admission bound (default 256)
//   --flight-dump P  dump the server's flight-recorder ring to P as
//                    esthera.flight/1 JSONL after the run
//   --statusz P      dump one esthera.cluster.statusz/1 document to P after
//                    the run
//
// With --shards N (N > 1) the workload becomes a sweep: the same
// open-loop schedule at 1x, 4x, and 10x the configured session count
// through an N-shard cluster, reporting per-point p99 request latency and
// the reject mix from the cluster.* counters. Sweep extras:
//
//   --shards N             shards behind the hash ring
//   --spill-budget BYTES   spill-store byte budget; also caps resident
//                          sessions at 3/4 of the sweep point's session
//                          count so the LRU spiller actually engages
//   --cluster-statusz P    dump the esthera.cluster.statusz/1 document
//                          (largest sweep point) to P
//   --cluster-openmetrics P  dump the shard-labeled OpenMetrics exposition
//                          (largest sweep point) to P
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/cluster.hpp"

namespace {

using namespace esthera;
using Clock = std::chrono::steady_clock;
using Cluster = serve::ServeCluster<models::RobotArmModel<float>>;

struct SessionTraffic {
  std::vector<std::vector<float>> z;
  std::vector<std::vector<float>> u;
};

struct WorkloadResult {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t batches = 0;
  std::uint64_t spills = 0;
  std::uint64_t spill_restores = 0;
  double wall = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Writes one document to `path` through `write`; exits on I/O failure.
template <typename Write>
void dump(const std::string& path, const char* what, Write&& write) {
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "error: cannot write " << what << " to " << path << '\n';
    std::exit(1);
  }
  write(os);
  std::cout << what << ": " << path << '\n';
}

struct Dumps {
  std::string flight, statusz, openmetrics;
};

struct Fleet {
  std::vector<Cluster::SessionId> ids;
  std::vector<SessionTraffic> traffic;
};

// Opens `sessions` robot-arm sessions on `cluster` and pre-generates each
// one's observation stream, so a measured loop is submit + schedule +
// step, nothing else. Traffic comes from the same scenario seeds each
// call, so every run sees identical request streams. Sessions record into
// `session_tel` when given.
Fleet open_fleet(Cluster& cluster, std::size_t sessions, std::size_t requests,
                 telemetry::Telemetry* session_tel) {
  Fleet fleet;
  fleet.traffic.resize(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    sim::RobotArmScenario scenario;
    scenario.reset(1000 + s);
    core::FilterConfig fcfg;
    fcfg.particles_per_filter = 32;
    fcfg.num_filters = 8;
    fcfg.seed = 100 + s;
    fcfg.telemetry = session_tel;
    // Tenant tag: spread sessions over three synthetic owners so traces,
    // flight events, and statusz show per-tenant attribution.
    const auto opened =
        cluster.open_session(scenario.make_model<float>(), fcfg, 1 + s % 3);
    if (!opened.ok()) {
      std::cerr << "error: open_session: " << serve::to_string(opened.admission)
                << '\n';
      std::exit(1);
    }
    fleet.ids.push_back(opened.id);
    auto& traffic = fleet.traffic[s];
    traffic.z.reserve(requests);
    traffic.u.reserve(requests);
    for (std::size_t k = 0; k < requests; ++k) {
      const auto step = scenario.advance();
      traffic.z.emplace_back(step.z.begin(), step.z.end());
      traffic.u.emplace_back(step.u.begin(), step.u.end());
    }
  }
  return fleet;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

// Median per-request service time of one closed-loop run: each round every
// session submits its next request and the server pumps until its queue is
// empty; each pump's wall time is divided by the requests it ran.
double service_p50(serve::ClusterConfig ccfg, std::size_t sessions,
                   std::size_t requests, bool trace_requests) {
  ccfg.shard.trace_requests = trace_requests;
  telemetry::Telemetry session_tel;
  Cluster cluster(ccfg);
  const Fleet fleet = open_fleet(cluster, sessions, requests, &session_tel);
  std::vector<double> per_request;
  per_request.reserve(requests);
  for (std::size_t k = 0; k < requests; ++k) {
    const double at = static_cast<double>(k);
    for (std::size_t s = 0; s < sessions; ++s) {
      const auto& traffic = fleet.traffic[s];
      (void)cluster.submit(fleet.ids[s], traffic.z[k], traffic.u[k], at, at);
    }
    while (cluster.queue_depth() > 0) {
      const auto t0 = Clock::now();
      const std::size_t ran = cluster.pump();
      const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
      if (ran > 0) per_request.push_back(dt / static_cast<double>(ran));
    }
  }
  cluster.drain();
  return median(std::move(per_request));
}

// One open-loop run against a fresh cluster (traffic from open_fleet).
// Pumped from this thread only; per-session trajectories stay
// deterministic, the measured quantity is scheduling + stepping. Shard 0's
// serve.* telemetry is folded into `session_tel` after the run;
// `cluster_tel` receives the cluster.* catalogue.
WorkloadResult run_workload(serve::ClusterConfig ccfg, std::size_t sessions,
                            std::size_t requests, double rate,
                            std::size_t spill_budget,
                            telemetry::Telemetry* cluster_tel,
                            telemetry::Telemetry* session_tel,
                            const Dumps& dumps = {}) {
  ccfg.telemetry = cluster_tel;
  if (spill_budget > 0) {
    ccfg.spill.budget_bytes = spill_budget;
    // A spill budget without residency pressure never spills; cap the
    // resident set so the LRU sweep has work to do.
    ccfg.max_resident_sessions = std::max<std::size_t>(1, sessions * 3 / 4);
  }
  Cluster cluster(ccfg);
  const Fleet fleet = open_fleet(cluster, sessions, requests, session_tel);
  const auto& ids = fleet.ids;
  const auto& traffic = fleet.traffic;

  // Open-loop schedule: request k of session s arrives at global index
  // k*sessions + s, spaced 1/rate seconds apart (all at t=0 when
  // unthrottled). The deadline is the arrival time, so EDF serves the
  // oldest traffic first.
  const std::size_t total = sessions * requests;
  WorkloadResult result;
  std::size_t next = 0;
  const auto t0 = Clock::now();
  while (next < total || cluster.queue_depth() > 0) {
    const double now = std::chrono::duration<double>(Clock::now() - t0).count();
    while (next < total) {
      const double at = rate > 0.0 ? static_cast<double>(next) / rate : 0.0;
      if (at > now) break;
      const std::size_t s = next % sessions;
      const std::size_t k = next / sessions;
      const auto verdict =
          cluster.submit(ids[s], traffic[s].z[k], traffic[s].u[k], at, now);
      verdict.ok() ? ++result.accepted : ++result.rejected;
      ++next;
    }
    if (cluster.pump() > 0) {
      ++result.batches;
    } else if (next < total) {
      // Ahead of the arrival schedule: yield until the next request is due.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  result.wall = std::chrono::duration<double>(Clock::now() - t0).count();
  cluster.drain();

  const auto merged = cluster.merged_latency();
  result.p50 = merged.quantile(0.50);
  result.p99 = merged.quantile(0.99);
  if (cluster_tel != nullptr) {
    result.spills = cluster_tel->registry.counter("cluster.spills").value();
    result.spill_restores =
        cluster_tel->registry.counter("cluster.spill.restores").value();
  }
  dump(dumps.flight, "flight", [&](std::ostream& os) { cluster.dump_flight(os); });
  dump(dumps.statusz, "statusz",
       [&](std::ostream& os) { cluster.write_statusz(os); });
  dump(dumps.openmetrics, "openmetrics",
       [&](std::ostream& os) { cluster.write_openmetrics(os); });
  if (session_tel != nullptr) {
    bench::fold_telemetry(*cluster.shard(0).config().telemetry, *session_tel);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench_util::Cli::parse_or_exit(
      argc, argv,
      bench::standard_flags({"--sessions", "--requests", "--rate",
                             "--max-batch", "--max-queue", "--flight-dump",
                             "--statusz", "--shards", "--spill-budget",
                             "--cluster-statusz", "--cluster-openmetrics"}));
  bench::Report report(
      cli, "Serving throughput",
      "Open-loop multi-tenant serving: independent tracking sessions behind "
      "one ServeCluster; latency quantiles and admission rejects in the "
      "telemetry snapshot.");
  report.print_header();

  const std::size_t sessions = cli.get_size("--sessions", cli.full_scale() ? 32 : 8);
  const std::size_t requests = cli.get_size("--requests", cli.full_scale() ? 500 : 100);
  const double rate = cli.get_double("--rate", 0.0);

  serve::ClusterConfig ccfg;
  ccfg.shards = cli.get_size("--shards", 1);
  ccfg.shard.max_batch = cli.get_size("--max-batch", 16);
  ccfg.shard.max_queue = cli.get_size("--max-queue", 256);
  ccfg.shard.max_pending_per_session = 8;

  const std::size_t shards = ccfg.shards;
  if (shards > 1) {
    // Cluster mode: the same open-loop schedule swept over 1x / 4x / 10x
    // the configured session count -- the scale-out question is how p99
    // and the reject mix hold up as the session population grows past
    // what one shard serves.
    const std::size_t spill_budget = cli.get_size("--spill-budget", 0);
    report.add_value("cluster_shards", static_cast<double>(shards));
    report.add_value("cluster_spill_budget_bytes",
                     static_cast<double>(spill_budget));
    bench_util::Table table({"sessions", "accepted", "rejected", "p50 (s)",
                             "p99 (s)", "req/s", "spills"});
    const std::size_t multipliers[] = {1, 4, 10};
    for (const std::size_t m : multipliers) {
      const std::size_t n = sessions * m;
      telemetry::Telemetry tel;  // fresh counters per sweep point
      const bool last = m == 10;
      Dumps dumps;
      if (last) {
        dumps.statusz = cli.get("--cluster-statusz", "");
        dumps.openmetrics = cli.get("--cluster-openmetrics", "");
      }
      const WorkloadResult r = run_workload(ccfg, n, requests, rate,
                                            spill_budget, &tel, nullptr, dumps);
      const double throughput =
          r.wall > 0.0 ? static_cast<double>(r.accepted) / r.wall : 0.0;
      const std::string tag = "cluster_x" + std::to_string(m) + "_";
      report.add_value(tag + "sessions", static_cast<double>(n));
      report.add_value(tag + "accepted", static_cast<double>(r.accepted));
      report.add_value(tag + "rejected", static_cast<double>(r.rejected));
      report.add_value(tag + "latency_p50", r.p50);
      report.add_value(tag + "latency_p99", r.p99);
      report.add_value(tag + "throughput_hz", throughput);
      report.add_value(tag + "spills", static_cast<double>(r.spills));
      report.add_value(tag + "spill_restores",
                       static_cast<double>(r.spill_restores));
      // Reject mix: every structured reason the cluster counted this point.
      for (int a = 1; a < serve::kAdmissionReasonCount; ++a) {
        const auto reason = serve::to_string(static_cast<serve::Admission>(a));
        if (const auto* c = tel.registry.find_counter(
                std::string("cluster.rejected.") + reason)) {
          if (c->value() > 0) {
            report.add_value(tag + "rejected_" + reason,
                             static_cast<double>(c->value()));
          }
        }
      }
      table.add_row({bench_util::Table::num(n),
                     bench_util::Table::num(static_cast<std::size_t>(r.accepted)),
                     bench_util::Table::num(static_cast<std::size_t>(r.rejected)),
                     bench_util::Table::num(r.p50, 6),
                     bench_util::Table::num(r.p99, 6),
                     bench_util::Table::num(throughput, 1),
                     bench_util::Table::num(static_cast<std::size_t>(r.spills))});
    }
    table.print(std::cout);
    report.add_table("cluster_sweep", table);
    std::cout << '\n';
    return report.write();
  }

  // Tracing overhead, when a trace export was requested: closed-loop
  // service time untraced vs traced, in alternating pairs (the order flips
  // every pair, so a drifting host load favours neither side). Same
  // traffic and admission bounds; only request tracing differs.
  constexpr int kOverheadPairs = 5;
  std::vector<double> untraced_p50s, traced_p50s, ratios;
  if (cli.has("--trace")) {
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
      double untraced = 0.0, traced = 0.0;
      for (const bool traced_run : {pair % 2 == 1, pair % 2 == 0}) {
        const double p50 = service_p50(ccfg, sessions, requests, traced_run);
        (traced_run ? traced : untraced) = p50;
      }
      untraced_p50s.push_back(untraced);
      traced_p50s.push_back(traced);
      ratios.push_back(untraced > 0.0 ? traced / untraced : 0.0);
    }
  }

  Dumps dumps;
  dumps.flight = cli.get("--flight-dump", "");
  dumps.statusz = cli.get("--statusz", "");
  const WorkloadResult r = run_workload(ccfg, sessions, requests, rate, 0,
                                        nullptr, report.telemetry(), dumps);

  const std::size_t total = sessions * requests;
  const double throughput =
      r.wall > 0.0 ? static_cast<double>(r.accepted) / r.wall : 0.0;
  report.add_value("sessions", static_cast<double>(sessions));
  report.add_value("requests_total", static_cast<double>(total));
  report.add_value("requests_accepted", static_cast<double>(r.accepted));
  report.add_value("requests_rejected", static_cast<double>(r.rejected));
  report.add_value("batches", static_cast<double>(r.batches));
  report.add_value("wall_seconds", r.wall);
  report.add_value("throughput_hz", throughput);
  if (cli.has("--trace")) {
    report.add_value("service_p50_untraced", median(untraced_p50s));
    report.add_value("service_p50_traced", median(traced_p50s));
    report.add_value("trace_overhead_p50_ratio", median(ratios));
  }

  bench_util::Table table({"quantity", "value"});
  table.add_row({"sessions", bench_util::Table::num(sessions)});
  table.add_row(
      {"requests accepted", bench_util::Table::num(static_cast<std::size_t>(r.accepted))});
  table.add_row(
      {"requests rejected", bench_util::Table::num(static_cast<std::size_t>(r.rejected))});
  table.add_row({"batches", bench_util::Table::num(static_cast<std::size_t>(r.batches))});
  table.add_row({"throughput (req/s)", bench_util::Table::num(throughput, 1)});
  table.print(std::cout);
  report.add_table("serve", table);
  std::cout << '\n';

  if (report.telemetry() == nullptr) {
    std::cerr << "warning: no telemetry attached (pass --json or --telemetry); "
                 "the report will carry no serve.* metrics\n";
  }
  return report.write();
}
