// Serving demo: three tenants tracking independent robot arms behind a
// one-shard ServeCluster, with a mid-run checkpoint/evict/restore cycle
// showing that a restored session continues its trajectory
// bit-identically.
//
//   ./serve_demo
//
// Walkthrough:
//   1. open one session per tenant (own seed, shared scheduler pool),
//   2. submit observe(z, u) requests and let pump() schedule them
//      earliest-deadline-first across sessions,
//   3. checkpoint + evict tenant B, keep serving the others, restore B
//      from the blob, and verify its estimate picks up exactly where it
//      left off,
//   4. drain and print the per-tenant estimates plus serving metrics.
#include <cstdio>
#include <vector>

#include "serve/cluster.hpp"
#include "sim/ground_truth.hpp"
#include "telemetry/telemetry.hpp"

int main() {
  using namespace esthera;
  using Model = models::RobotArmModel<float>;

  telemetry::Telemetry tel;
  serve::ClusterConfig ccfg;
  ccfg.shards = 1;
  ccfg.shard.max_batch = 4;
  ccfg.telemetry = &tel;
  serve::ServeCluster<Model> server(ccfg);

  // 1. One tracking session per tenant; each runs its own scenario.
  constexpr std::size_t kTenants = 3;
  std::vector<sim::RobotArmScenario> scenarios;
  std::vector<serve::ServeCluster<Model>::SessionId> ids;
  for (std::size_t t = 0; t < kTenants; ++t) {
    scenarios.emplace_back();
    scenarios.back().reset(40 + t);
    core::FilterConfig fcfg;
    fcfg.particles_per_filter = 64;
    fcfg.num_filters = 16;
    fcfg.seed = 7 + t;
    const auto opened = server.open_session(scenarios.back().make_model<float>(), fcfg);
    if (!opened.ok()) {
      std::printf("open_session rejected: %s\n", serve::to_string(opened.admission));
      return 1;
    }
    ids.push_back(opened.id);
  }

  // 2. Serve 10 rounds of traffic: one observation per tenant per round,
  //    deadline = round index, one batch per round.
  std::vector<float> z, u;
  const auto submit_round = [&](std::size_t round) {
    for (std::size_t t = 0; t < kTenants; ++t) {
      const auto step = scenarios[t].advance();
      z.assign(step.z.begin(), step.z.end());
      u.assign(step.u.begin(), step.u.end());
      const auto verdict =
          server.submit(ids[t], z, u, /*deadline=*/static_cast<double>(round));
      if (!verdict.ok()) {
        std::printf("tenant %zu rejected: %s\n", t,
                    serve::to_string(verdict.admission));
      }
    }
  };
  for (std::size_t round = 0; round < 10; ++round) {
    submit_round(round);
    server.pump();
  }

  // 3. Tenant B goes idle: checkpoint + evict, serve the others, restore.
  const auto blob = server.evict(ids[1]);
  if (!blob) return 1;
  std::printf("evicted tenant 1 into a %zu-byte checkpoint\n", blob->size());
  for (std::size_t round = 10; round < 15; ++round) {
    for (std::size_t t : {std::size_t{0}, std::size_t{2}}) {
      const auto step = scenarios[t].advance();
      z.assign(step.z.begin(), step.z.end());
      u.assign(step.u.begin(), step.u.end());
      (void)server.submit(ids[t], z, u, static_cast<double>(round));
    }
    server.pump();
  }

  core::FilterConfig restore_cfg;
  restore_cfg.particles_per_filter = 64;
  restore_cfg.num_filters = 16;
  restore_cfg.seed = 8;  // same tenant-1 model + shape; RNG comes from the blob
  scenarios[1].reset(41);
  const auto restored =
      server.restore_session(scenarios[1].make_model<float>(), restore_cfg, *blob);
  if (!restored.ok()) return 1;
  ids[1] = restored.id;
  std::printf("restored tenant 1 as session %llu at step %llu\n",
              static_cast<unsigned long long>(restored.id),
              static_cast<unsigned long long>(*server.step_index(ids[1])));

  // 4. Final traffic for everyone, then drain and report.
  scenarios[1].reset(141);  // fresh observation stream for the restored tenant
  for (std::size_t round = 15; round < 20; ++round) {
    submit_round(round);
    server.pump();
  }
  server.drain();

  for (std::size_t t = 0; t < kTenants; ++t) {
    const auto est = *server.estimate(ids[t]);
    std::printf("tenant %zu: step %3llu  estimate[0..1] = (%8.4f, %8.4f)\n", t,
                static_cast<unsigned long long>(*server.step_index(ids[t])),
                static_cast<double>(est[0]), static_cast<double>(est[1]));
  }
  std::printf("served %llu requests in %llu batches (%llu rejected)\n",
              static_cast<unsigned long long>(
                  tel.registry.counter("cluster.requests.completed").value()),
              static_cast<unsigned long long>(
                  tel.registry.counter("cluster.batches").value()),
              static_cast<unsigned long long>(
                  tel.registry.counter("cluster.rejected.session_backlog").value()));
  return 0;
}
