// incprof_perfbench: the repo's end-to-end benchmark program.
//
//   incprof_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--work-dir <dir>]
//
// Runs one workload's set-up, measures it for --seconds, checks the
// program's outputs, and prints one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 runs the layer-timed traced
// run and reports the per-layer metrics. Layers a workload does not
// exercise report 0. Diagnostics go to stderr.
#include "workloads.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

namespace {

using perfbench::Options;
using perfbench::RunResult;

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"op_p50_ms", "ms"},
    {"op_cpu_ms", "ms"},
    {"goodput_per_s", "1/s"},
};

const std::vector<MetricDef> kPerLayer = {
    // Workload-level readings from the traced run's untraced operations.
    {"analyze_ms", "ms"},
    {"analyze_cpu_ms", "ms"},
    {"event_p50_us", "us"},
    {"event_p99_us", "us"},
    {"intervals_per_s", "1/s"},
    {"session_open_p50_us", "us"},
    {"session_open_p99_us", "us"},
    {"sessions_per_s", "1/s"},
    {"fleet_pull_ms", "ms"},
    // gmon
    {"gmon.format_us", "us"},
    {"gmon.parse_us", "us"},
    {"gmon.load_ms", "ms"},
    // core
    {"core.differencing_ms", "ms"},
    {"core.features_ms", "ms"},
    {"core.detect_ms", "ms"},
    {"core.rank_ms", "ms"},
    {"core.sites_ms", "ms"},
    {"core.observe_us", "us"},
    {"core.tracker_state_bytes", "bytes"},
    {"core.intervals", "count"},
    {"core.functions", "count"},
    {"core.phases", "count"},
    {"core.sites", "count"},
    // cluster
    {"cluster.distance_cache_ms", "ms"},
    {"cluster.sweep_k_ms", "ms"},
    {"cluster.silhouette_ms", "ms"},
    {"cluster.distance_cache_mb", "MB"},
    // service
    {"service.encode_us", "us"},
    {"service.send_us", "us"},
    {"service.decode_p50_us", "us"},
    {"service.enqueue_p50_us", "us"},
    {"service.process_p50_us", "us"},
    {"service.frames_received", "count"},
    {"service.frames_dropped", "count"},
    {"service.snapshots_observed", "count"},
    {"service.phase_events_sent", "count"},
    {"service.sessions_opened", "count"},
    {"service.sessions_closed", "count"},
    {"service.control_queries", "count"},
    {"service.open_fds", "count"},
    {"service.maps", "count"},
    {"service.threads", "count"},
    // fleet
    {"fleet.hop_us", "us"},
    {"fleet.open_hop_us", "us"},
    {"fleet.state_bytes", "bytes"},
    {"fleet.retained_sessions", "count"},
    // obs
    {"obs.trace_overhead_frac", "ratio"},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_apps|wide_trace|fleet_stream "
               "--seed n --seconds s --trace 0|1 [--work-dir dir]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !(opt.seconds > 0)) return usage(argv[0]);

  RunResult res;
  try {
    std::filesystem::create_directories(opt.work_dir);
    if (opt.workload == "paper_apps" || opt.workload == "wide_trace") {
      res = perfbench::run_offline(opt);
    } else if (opt.workload == "fleet_stream") {
      res = perfbench::run_online(opt);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
  for (const std::string& note : res.notes) {
    std::fprintf(stderr, "note: %s\n", note.c_str());
  }

  // Report exactly the contract's metric set for this mode.
  RunResult out = res;
  out.metrics.clear();
  for (const MetricDef& m : opt.trace ? kPerLayer : kEndToEnd) {
    const auto it = res.metrics.find(m.name);
    if (it == res.metrics.end() && !opt.trace) {
      std::fprintf(stderr, "internal error: metric %s was not measured\n",
                   m.name);
      return 1;
    }
    out.set(m.name, it == res.metrics.end() ? 0.0 : it->second.first, m.unit);
  }
  if (out.attempted == 0) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }
  std::printf("%s\n", perfbench::to_json(out).c_str());
  return 0;
}
