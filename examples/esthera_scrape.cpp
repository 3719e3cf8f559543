// esthera_scrape: file-serving OpenMetrics exposition for the serve
// runtime. It drives a small multi-session workload on a one-shard
// ServeCluster behind a background ClusterPumpLoop and, once per
// interval, snapshots ServeCluster::write_openmetrics() into a scrape
// file -- the "node-exporter textfile collector" integration style: point
// a Prometheus textfile collector (or `cat`) at the output and every
// serve and cluster counter, latency histogram (with trace-id exemplars),
// and profile.* gauge is scrape-ready. Each snapshot is written to <out>.tmp and
// renamed into place, so a concurrent scraper never observes a torn
// document.
//
//   ./esthera_scrape [--out <path>] [--scrapes <n>] [--interval <ms>]
//     --out <path>     scrape file (default metrics.om; "-" for stdout)
//     --scrapes <n>    number of snapshots to write (default 3)
//     --interval <ms>  time between snapshots (default 100)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/cluster.hpp"
#include "sim/ground_truth.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace esthera;
using Model = models::RobotArmModel<float>;

bool write_scrape_file(serve::ServeCluster<Model>& server,
                       const std::string& out) {
  if (out == "-") {
    server.write_openmetrics(std::cout);
    return true;
  }
  const std::string tmp = out + ".tmp";
  {
    std::ofstream os(tmp);
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", tmp.c_str());
      return false;
    }
    server.write_openmetrics(os);
  }
  if (std::rename(tmp.c_str(), out.c_str()) != 0) {
    std::fprintf(stderr, "error: cannot rename %s -> %s\n", tmp.c_str(),
                 out.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "metrics.om";
  std::size_t scrapes = 3;
  long interval_ms = 100;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--scrapes") == 0 && i + 1 < argc) {
      scrapes = static_cast<std::size_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      interval_ms = std::atol(argv[++i]);
      if (interval_ms < 0) interval_ms = 0;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out <path>] [--scrapes <n>] "
                   "[--interval <ms>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (scrapes == 0) scrapes = 1;

  telemetry::Telemetry tel;
  serve::ClusterConfig ccfg;
  ccfg.shards = 1;
  ccfg.shard.max_batch = 4;
  ccfg.telemetry = &tel;
  serve::ServeCluster<Model> server(ccfg);

  constexpr std::size_t kSessions = 4;
  std::vector<sim::RobotArmScenario> scenarios;
  std::vector<serve::ServeCluster<Model>::SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    scenarios.emplace_back();
    scenarios.back().reset(90 + s);
    core::FilterConfig fcfg;
    fcfg.particles_per_filter = 64;
    fcfg.num_filters = 16;
    fcfg.seed = 23 + s;
    const auto opened =
        server.open_session(scenarios.back().make_model<float>(), fcfg, 1 + s % 2);
    if (!opened.ok()) {
      std::fprintf(stderr, "open_session rejected: %s\n",
                   serve::to_string(opened.admission));
      return 1;
    }
    ids.push_back(opened.id);
  }

  {
    serve::ClusterPumpLoop<Model> loop(server, std::chrono::microseconds(200));
    std::vector<float> z, u;
    for (std::size_t scrape = 0; scrape < scrapes; ++scrape) {
      for (std::size_t round = 0; round < 4; ++round) {
        for (std::size_t s = 0; s < kSessions; ++s) {
          const auto step = scenarios[s].advance();
          z.assign(step.z.begin(), step.z.end());
          u.assign(step.u.begin(), step.u.end());
          (void)server.submit(ids[s], z, u,
                           static_cast<double>(scrape * 4 + round));
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      if (!write_scrape_file(server, out)) return 1;
      if (out != "-") {
        std::fprintf(stderr, "scrape %zu/%zu: %s\n", scrape + 1, scrapes,
                     out.c_str());
      }
    }
  }  // ClusterPumpLoop drains on scope exit

  // One final snapshot after the drain, so the file reflects the
  // completed workload (requests completed == requests submitted).
  if (!write_scrape_file(server, out)) return 1;
  return 0;
}
