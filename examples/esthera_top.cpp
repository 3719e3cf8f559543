// esthera_top: a top(1)-style text renderer over the serve runtime's
// aggregated statusz introspection. It drives a small multi-tenant
// workload over a 3-shard ServeCluster behind a background
// ClusterPumpLoop, snapshots ServeCluster::write_statusz() once per
// frame, re-parses the JSON with the telemetry parser (the same
// round-trip an external dashboard would do), and renders the
// cluster-wide queue depth, merged latency quantiles, spill occupancy,
// one row per shard (sessions, queue depth, spilled count), and one row
// per session (placement, residency state) as a live table. The resident
// budget is set below the session count, so the LRU spiller visibly
// moves cold sessions in and out of the spill store while the frames
// refresh.
//
//   ./esthera_top [frames] [--interval <ms>] [--once]
//     frames          number of snapshots (default 5)
//     --interval <ms> time between snapshots (default 100)
//     --once          single snapshot, then exit (frames = 1)
//
// When stdout is a terminal each frame redraws the screen in place; when
// it is a pipe or file the renderer is skipped and each snapshot is
// emitted as one raw esthera.cluster.statusz/1 JSON document per line
// (JSONL), so `esthera_top --once > status.json` and cron-style
// collection both work.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "serve/cluster.hpp"
#include "sim/ground_truth.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace esthera;
using Model = models::RobotArmModel<float>;

double num(const telemetry::json::Value& v, const char* key) {
  const telemetry::json::Value* m = v.find(key);
  return m != nullptr ? m->as_number() : 0.0;
}

const std::string& str(const telemetry::json::Value& v, const char* key) {
  static const std::string empty;
  const telemetry::json::Value* m = v.find(key);
  return m != nullptr ? m->as_string() : empty;
}

void render_frame(std::size_t frame, const telemetry::json::Value& status) {
  std::printf("-- esthera top · frame %zu %s\n", frame,
              std::string(44, '-').c_str());
  const auto* summary = status.find("sessions_summary");
  std::printf(
      "queue %3.0f | shards %1.0f | sessions %2.0f (%2.0f resident, %2.0f "
      "spilled) | %s\n",
      num(status, "queue_depth"), num(status, "shard_count"),
      summary != nullptr ? num(*summary, "total") : 0.0,
      summary != nullptr ? num(*summary, "resident") : 0.0,
      summary != nullptr ? num(*summary, "spilled") : 0.0,
      status.find("draining") != nullptr && status.find("draining")->as_bool()
          ? "DRAINING"
          : "serving");
  if (const auto* lat = status.find("latency"); lat != nullptr) {
    std::printf("latency: n=%5.0f  p50=%8.1f us  p95=%8.1f us  p99=%8.1f us\n",
                num(*lat, "count"), num(*lat, "p50") * 1e6,
                num(*lat, "p95") * 1e6, num(*lat, "p99") * 1e6);
  }
  if (const auto* sp = status.find("spill"); sp != nullptr) {
    std::printf("spill:   %3.0f blobs, %6.0f bytes (%.0f spills, %.0f "
                "restores, %.0f refused)\n",
                num(*sp, "stored"), num(*sp, "bytes"), num(*sp, "spills"),
                num(*sp, "restores"), num(*sp, "rejected"));
  }
  if (const auto* fl = status.find("flight"); fl != nullptr) {
    std::printf("flight:  %5.0f/%5.0f events (%.0f overwritten)\n",
                num(*fl, "occupancy"), num(*fl, "capacity"),
                num(*fl, "overwritten"));
  }
  // Per-shard load: one row per shard behind the hash ring.
  std::printf("%5s %8s %6s %7s\n", "shard", "sessions", "queue", "spilled");
  if (const auto* shards = status.find("shards");
      shards != nullptr && shards->is_array()) {
    for (const auto& row : shards->as_array()) {
      std::printf("%5.0f %8.0f %6.0f %7.0f\n", num(row, "shard"),
                  num(row, "sessions"), num(row, "queue_depth"),
                  num(row, "spilled"));
    }
  }
  // Per-session placement and residency.
  std::printf("%4s %5s %6s %8s %6s\n", "id", "shard", "tenant", "state",
              "queued");
  if (const auto* sessions = status.find("sessions");
      sessions != nullptr && sessions->is_array()) {
    for (const auto& s : sessions->as_array()) {
      std::printf("%4.0f %5.0f %6.0f %8s %6.0f\n", num(s, "id"),
                  num(s, "shard"), num(s, "tenant"), str(s, "state").c_str(),
                  num(s, "queued"));
    }
  }
  std::printf("\n");
}

bool stdout_is_tty() {
#if defined(__unix__) || defined(__APPLE__)
  return ::isatty(::fileno(stdout)) != 0;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t frames = 5;
  long interval_ms = 100;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--once") == 0) {
      frames = 1;
    } else if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      interval_ms = std::atol(argv[++i]);
      if (interval_ms < 0) interval_ms = 0;
    } else if (argv[i][0] != '-') {
      frames = static_cast<std::size_t>(std::atoi(argv[i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [frames] [--interval <ms>] [--once]\n", argv[0]);
      return 2;
    }
  }
  const bool tty = stdout_is_tty();

  telemetry::Telemetry tel;
  serve::ClusterConfig ccfg;
  ccfg.shards = 3;
  ccfg.shard.max_batch = 4;
  // Budget below the session count: the LRU sweep keeps spilling the
  // coldest idle session, and the next submit restores it -- live churn
  // for the spill columns.
  ccfg.max_resident_sessions = 4;
  ccfg.telemetry = &tel;
  serve::ServeCluster<Model> cluster(ccfg);

  // Three tenants, two sessions each, all fed by one submitter thread
  // while the ClusterPumpLoop schedules in the background.
  constexpr std::size_t kSessions = 6;
  std::vector<sim::RobotArmScenario> scenarios;
  std::vector<serve::ServeCluster<Model>::SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    scenarios.emplace_back();
    scenarios.back().reset(70 + s);
    core::FilterConfig fcfg;
    fcfg.particles_per_filter = 64;
    fcfg.num_filters = 16;
    fcfg.seed = 11 + s;
    const auto opened = cluster.open_session(scenarios.back().make_model<float>(),
                                             fcfg, 1 + s % 3);
    if (!opened.ok()) {
      std::printf("open_session rejected: %s\n",
                  serve::to_string(opened.admission));
      return 1;
    }
    ids.push_back(opened.id);
  }

  {
    serve::ClusterPumpLoop<Model> loop(cluster, std::chrono::microseconds(200));
    std::vector<float> z, u;
    for (std::size_t frame = 0; frame < frames; ++frame) {
      // A skewed burst of traffic (later sessions submit less often, so
      // the LRU spiller has cold sessions to pick), then one aggregated
      // statusz snapshot rendered as text.
      for (std::size_t round = 0; round < 4; ++round) {
        for (std::size_t s = 0; s < kSessions; ++s) {
          if (s >= 4 && (frame + round) % 3 != 0) continue;
          const auto step = scenarios[s].advance();
          z.assign(step.z.begin(), step.z.end());
          u.assign(step.u.begin(), step.u.end());
          (void)cluster.submit(ids[s], z, u,
                               static_cast<double>(frame * 4 + round));
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      std::ostringstream doc;
      cluster.write_statusz(doc);
      if (!tty) {
        // Non-interactive consumers get the raw document, one per line
        // (JSONL); no screen control sequences, no rendered table.
        std::string line = doc.str();
        while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
          line.pop_back();
        }
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
        continue;
      }
      std::string error;
      const auto status = telemetry::json::parse(doc.str(), &error);
      if (!status) {
        std::printf("statusz parse error: %s\n", error.c_str());
        return 1;
      }
      // Redraw in place: cursor home + clear-to-end, like top(1).
      if (frame > 0) std::printf("\x1b[H\x1b[J");
      render_frame(frame, *status);
    }
  }  // ClusterPumpLoop drains on scope exit

  if (tty) {
    std::printf("served %llu requests in %llu batches (%llu spills, %llu "
                "restores)\n",
                static_cast<unsigned long long>(
                    tel.registry.counter("cluster.requests.completed").value()),
                static_cast<unsigned long long>(
                    tel.registry.counter("cluster.batches").value()),
                static_cast<unsigned long long>(
                    tel.registry.counter("cluster.spills").value()),
                static_cast<unsigned long long>(
                    tel.registry.counter("cluster.spill.restores").value()));
  }
  return 0;
}
