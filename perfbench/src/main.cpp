// perfbench_run: one workload, one seed, one timed run. Prints the run
// record (host, build type, calibration score), the correctness verdict and
// every metric by name and unit, then, as the last line of standard
// output, one JSON object {correct, attempted, failed, metrics}.
//
//   perfbench_run --workload <filter_large|filter_small|serve_churn>
//                 --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that yields the per-layer metrics. Exit status is
// 0 when the run completed (whatever the verdict), 2 on bad arguments and
// 1 when the workload itself threw.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_run: " << why
            << "\nusage: perfbench_run --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> [--out-dir <dir>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--out-dir") {
        opt.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds >= 1.0 && opt.seconds <= 600.0)) {
    usage("--seconds must lie in [1, 600]");
  }
  return opt;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void write_spans(const Options& opt) {
  if (opt.out_dir.empty()) return;
  const auto spans = SpanLog::instance().collect();
  if (spans.empty()) return;
  const std::string path = opt.out_dir + "/spans-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".jsonl";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "warning: cannot write span log " << path << '\n';
    return;
  }
  const auto self = self_times_us(spans);
  os.precision(17);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
       << ",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
       << ",\"self_us\":" << self[i] << "}\n";
  }
  std::cout << "spans: " << spans.size() << " written to " << path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const bool filter = opt.workload == "filter_large" || opt.workload == "filter_small";
  const bool serve = opt.workload == "serve_churn";
  if (!filter && !serve) usage("unknown workload " + opt.workload);

  const double calib = calib_score();
  std::cout << "run: workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
            << " build=" << PERFBENCH_BUILD_TYPE << " host=\"" << host_stamp()
            << "\" host.calib_score=" << calib << '\n';
  SpanLog::instance().set_enabled(opt.trace);

  RunResult res;
  try {
    res = filter ? run_filter(opt) : run_serve(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_run: " << opt.workload << " failed: " << e.what() << '\n';
    return 1;
  }
  if (opt.trace) res.metrics.set("host.calib_score", calib, "Mops/s");
  write_spans(opt);

  for (const auto& [name, vu] : res.metrics.items()) {
    if (!std::isfinite(vu.first)) res.verdict.check(false, "metric " + name + " is not finite");
  }

  std::cout << "verdict " << opt.workload << ": "
            << (res.verdict.ok() ? "PASS" : "FAIL") << '\n';
  for (const auto& c : res.verdict.passed()) std::cout << "  ok   " << c << '\n';
  for (const auto& c : res.verdict.failures()) std::cout << "  FAIL " << c << '\n';
  std::cout << "metrics (" << (opt.trace ? "per-layer, traced" : "end-to-end, untraced")
            << "):\n";
  for (const auto& [name, vu] : res.metrics.items()) {
    std::printf("  %-40s %16.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }

  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (res.verdict.ok() ? "true" : "false")
     << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : res.metrics.items()) {
    // A non-finite value already failed the verdict; keep the JSON valid.
    const double v = std::isfinite(vu.first) ? vu.first : -1.0;
    js << (first ? "" : ", ") << '"' << json_escape(name) << "\": {\"value\": " << v
       << ", \"unit\": \"" << json_escape(vu.second) << "\"}";
    first = false;
  }
  js << "}}";
  std::cout.flush();
  std::cout << js.str() << std::endl;
  return 0;
}
