// Perf-regression gate workload: a reduced-scale, pinned-seed run of both
// filter architectures that emits an esthera.bench/1 report containing
// only machine-independent quantities - estimation RMSE (deterministic up
// to libm) and the deterministic work counters (lockstep phases, barriers,
// compare-exchanges, scan sweeps, RNG draws). No wall-clock scalar enters
// the report, so bench_compare can gate it exactly across machines; the
// stage histograms still carry latencies, but only their invocation
// counts are compared. CI runs this per PR and diffs the output against
// the checked-in BENCH_BASELINE.json.
#include <cmath>
#include <cstddef>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "serve/cluster.hpp"

namespace {

using namespace esthera;

/// Reduced-scale protocol: small enough for a CI minute, long enough to
/// exercise resampling, exchange, and the degenerate-weight paths.
bench::Protocol gate_protocol() {
  bench::Protocol proto;
  proto.runs = 2;
  proto.steps = 30;
  proto.warmup = 5;
  proto.seed = 7;
  return proto;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench_util::Cli::parse_or_exit(argc, argv,
                                                  bench::standard_flags());
  bench::Report report(
      cli, "Perf regression gate",
      "Reduced-scale pinned-seed workload; every gated quantity is "
      "machine-independent (work counters) or deterministic up to libm "
      "(RMSE). Compare runs with bench_compare.");
  report.print_header();

  const auto proto = gate_protocol();
  bench_util::Table table({"configuration", "RMSE"});

  // Distributed filter, RWS resampling (the paper's configuration).
  core::FilterConfig rws_cfg;
  rws_cfg.particles_per_filter = 64;
  rws_cfg.num_filters = 64;
  rws_cfg.seed = 11;
  rws_cfg.telemetry = report.telemetry();
  const double rmse_rws = bench::distributed_arm_error(rws_cfg, proto);
  report.add_value("rmse_distributed_rws", rmse_rws);
  table.add_row({"distributed m=64 N=64 RWS", bench_util::Table::num(rmse_rws, 4)});

  // Systematic resampling exercises the other scan-consuming path.
  core::FilterConfig sys_cfg = rws_cfg;
  sys_cfg.resample = core::ResampleAlgorithm::kSystematic;
  const double rmse_sys = bench::distributed_arm_error(sys_cfg, proto);
  report.add_value("rmse_distributed_systematic", rmse_sys);
  table.add_row(
      {"distributed m=64 N=64 systematic", bench_util::Table::num(rmse_sys, 4)});

  // Collective-free resamplers: Metropolis with a pinned chain length (so
  // work.metropolis_steps has a closed form) and rejection, whose
  // work.rejection_trials is data-dependent but still deterministic for a
  // pinned seed.
  core::FilterConfig metro_cfg = rws_cfg;
  metro_cfg.resample = core::ResampleAlgorithm::kMetropolis;
  metro_cfg.metropolis_steps = 16;
  const double rmse_metro = bench::distributed_arm_error(metro_cfg, proto);
  report.add_value("rmse_distributed_metropolis", rmse_metro);
  table.add_row({"distributed m=64 N=64 Metropolis B=16",
                 bench_util::Table::num(rmse_metro, 4)});

  core::FilterConfig rej_cfg = rws_cfg;
  rej_cfg.resample = core::ResampleAlgorithm::kRejection;
  const double rmse_rej = bench::distributed_arm_error(rej_cfg, proto);
  report.add_value("rmse_distributed_rejection", rmse_rej);
  table.add_row({"distributed m=64 N=64 rejection",
                 bench_util::Table::num(rmse_rej, 4)});

  // Centralized double-precision reference with telemetry attached so its
  // work.rng_draws / work.scan_sweeps land in the same registry.
  {
    estimation::ErrorAccumulator err;
    sim::RobotArmScenario scenario;
    const std::size_t j = sim::RobotArmScenarioConfig{}.arm.n_joints;
    for (std::size_t r = 0; r < proto.runs; ++r) {
      scenario.reset(proto.seed + r);
      core::CentralizedOptions opts;
      opts.seed = 1000 + r * 7919;
      opts.telemetry = report.telemetry();
      core::CentralizedParticleFilter<models::RobotArmModel<double>> pf(
          scenario.make_model<double>(), 256, opts);
      for (std::size_t k = 0; k < proto.steps; ++k) {
        const auto step = scenario.advance();
        pf.step(step.z, step.u);
        if (k >= proto.warmup) {
          const double ex = pf.estimate()[j + 0] - step.truth[j + 0];
          const double ey = pf.estimate()[j + 1] - step.truth[j + 1];
          err.add_step(std::vector<double>{ex, ey});
        }
      }
    }
    const double rmse_central = err.rmse();
    report.add_value("rmse_centralized_vose", rmse_central);
    table.add_row(
        {"centralized n=256 Vose", bench_util::Table::num(rmse_central, 4)});
  }

  // Serving runtime: a closed-loop, fixed submit pattern through a
  // one-shard ServeCluster -- deliberate per-session saturation
  // (deterministic admission rejects), batched EDF scheduling, and a
  // mid-run evict/restore cycle. Every gated quantity (the shard's serve.*
  // counters, folded into the report below, the histogram invocation
  // counts, and the estimate checksum) is machine-independent; request
  // latency values are not compared.
  {
    serve::ClusterConfig ccfg;
    ccfg.shards = 1;
    // Inline batches: the gated counts do not depend on the worker
    // count, and one thread keeps the gate run small.
    ccfg.shard.workers = 1;
    ccfg.shard.max_queue = 8;
    ccfg.shard.max_pending_per_session = 2;
    ccfg.shard.max_batch = 3;
    serve::ServeCluster<models::RobotArmModel<float>> server(ccfg);

    constexpr std::size_t kSessions = 3;
    constexpr std::size_t kRounds = 10;
    std::vector<sim::RobotArmScenario> scenarios(kSessions);
    std::vector<std::uint64_t> ids;
    for (std::size_t s = 0; s < kSessions; ++s) {
      scenarios[s].reset(300 + s);
      core::FilterConfig fcfg;
      fcfg.particles_per_filter = 32;
      fcfg.num_filters = 8;
      fcfg.seed = 77 + s;
      fcfg.telemetry = report.telemetry();
      const auto opened = server.open_session(scenarios[s].make_model<float>(), fcfg);
      if (!opened.ok()) {
        std::cerr << "error: serve gate open_session: "
                  << serve::to_string(opened.admission) << '\n';
        return 1;
      }
      ids.push_back(opened.id);
    }

    std::uint64_t rejected = 0;
    std::vector<float> z, u;
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        // Three submits against a per-session cap of two: the third is a
        // deterministic backlog rejection every round.
        for (int burst = 0; burst < 3; ++burst) {
          const auto step = scenarios[s].advance();
          z.assign(step.z.begin(), step.z.end());
          u.assign(step.u.begin(), step.u.end());
          const auto verdict =
              server.submit(ids[s], z, u, static_cast<double>(round));
          if (!verdict.ok()) ++rejected;
        }
      }
      while (server.pump() > 0) {
      }
      if (round == kRounds / 2) {
        const auto blob = server.evict(ids[1]);
        if (!blob) return 1;
        scenarios[1].reset(301);
        core::FilterConfig fcfg;
        fcfg.particles_per_filter = 32;
        fcfg.num_filters = 8;
        fcfg.seed = 78;
        fcfg.telemetry = report.telemetry();
        const auto restored =
            server.restore_session(scenarios[1].make_model<float>(), fcfg, *blob);
        if (!restored.ok()) return 1;
        ids[1] = restored.id;
      }
    }
    server.drain();
    if (report.telemetry() != nullptr) {
      bench::fold_telemetry(*server.shard(0).config().telemetry,
                            *report.telemetry());
    }

    // Deterministic up to libm, like the RMSE values: the summed absolute
    // final estimates across sessions.
    double estimate_l1 = 0.0;
    for (std::size_t s = 0; s < kSessions; ++s) {
      const auto est = *server.estimate(ids[s]);
      for (const float v : est) estimate_l1 += std::abs(static_cast<double>(v));
    }
    report.add_value("serve_rejected", static_cast<double>(rejected));
    report.add_value("serve_estimate_l1", estimate_l1);
    table.add_row({"serve 3 sessions 10 rounds (L1)",
                   bench_util::Table::num(estimate_l1, 4)});
  }

  // Sharded serving: the same fixed submit pattern through a 2-shard
  // ServeCluster, with a deterministic mid-run migration and one
  // spill/restore cycle. Pumped sequentially from this thread, sessions
  // stepping on inline single-worker devices: the estimate checksum and
  // the cluster.* counters (accepted, migrations, spills, restores, the
  // per-reason rejects) are machine-independent. Session telemetry stays
  // detached -- the per-shard serve.* registries are cluster-owned and the
  // report only gates the cluster.* catalogue.
  {
    serve::ClusterConfig ccfg;
    ccfg.shards = 2;
    ccfg.shard.workers = 1;
    ccfg.shard.max_queue = 8;
    ccfg.shard.max_pending_per_session = 2;
    ccfg.shard.max_batch = 3;
    ccfg.telemetry = report.telemetry();
    serve::ServeCluster<models::RobotArmModel<float>> cluster(ccfg);

    constexpr std::size_t kSessions = 3;
    constexpr std::size_t kRounds = 10;
    std::vector<sim::RobotArmScenario> scenarios(kSessions);
    std::vector<std::uint64_t> ids;
    for (std::size_t s = 0; s < kSessions; ++s) {
      scenarios[s].reset(400 + s);
      core::FilterConfig fcfg;
      fcfg.particles_per_filter = 32;
      fcfg.num_filters = 8;
      fcfg.seed = 87 + s;
      const auto opened =
          cluster.open_session(scenarios[s].make_model<float>(), fcfg, 1 + s);
      if (!opened.ok()) {
        std::cerr << "error: cluster gate open_session: "
                  << serve::to_string(opened.admission) << '\n';
        return 1;
      }
      ids.push_back(opened.id);
    }

    std::uint64_t rejected = 0;
    std::vector<float> z, u;
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        // Per-session cap of two, three submits: one deterministic
        // backlog rejection per session per round, cluster-counted.
        for (int burst = 0; burst < 3; ++burst) {
          const auto step = scenarios[s].advance();
          z.assign(step.z.begin(), step.z.end());
          u.assign(step.u.begin(), step.u.end());
          const auto verdict =
              cluster.submit(ids[s], z, u, static_cast<double>(round));
          if (!verdict.ok()) ++rejected;
        }
      }
      while (cluster.pump() > 0) {
      }
      if (round == kRounds / 2) {
        // Deterministic mid-run churn: migrate session 1 to the other
        // shard and push session 2 through a spill/restore cycle.
        const std::size_t from = *cluster.shard_of(ids[1]);
        if (!cluster.migrate(ids[1], (from + 1) % 2)) return 1;
        if (!cluster.spill_session(ids[2])) return 1;
      }
    }
    cluster.drain();

    double estimate_l1 = 0.0;
    for (std::size_t s = 0; s < kSessions; ++s) {
      const auto est = cluster.estimate(ids[s]);
      if (!est) return 1;
      for (const float v : *est) estimate_l1 += std::abs(static_cast<double>(v));
    }
    report.add_value("cluster_rejected", static_cast<double>(rejected));
    report.add_value("cluster_estimate_l1", estimate_l1);
    table.add_row({"cluster 2 shards 3 sessions (L1)",
                   bench_util::Table::num(estimate_l1, 4)});
  }

  table.print(std::cout);
  report.add_table("gate", table);
  std::cout << '\n';

  if (report.telemetry() == nullptr) {
    std::cerr << "warning: no telemetry attached (pass --json or --telemetry); "
                 "the report will carry no work counters\n";
  }
  return report.write();
}
