// stage_probe — per-stage wall time of the offline analysis facade, read
// from the facade's own pipeline_stage_ns histograms (DESIGN §5.1), on
// perfbench's two offline inputs with perfbench's configurations:
//
//   stage_probe paper_apps [--seed s]
//       collects the five paper apps once, then times 15 operations of
//       five analyze_snapshots calls (text round trip, serial engine);
//   stage_probe wide_trace <dump_dir>
//       times 15 analyze_dump_dir calls (binary dumps, every hardware
//       thread) on a dump directory perfbench's wide_trace wrote;
//   stage_probe tier
//       prints the SIMD tier the libraries pick on this host.
//
// Prints one JSON line: per stage, the median and quartiles over the
// operations of the stage's nanoseconds in one operation, in ms; or
// {"simd_tier": ...}.
#include "bench_common.hpp"

#include "apps/harness.hpp"
#include "cluster/simd/simd.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

namespace {

using namespace incprof;

/// Timed operations per probe, after one warm-up operation.
constexpr int kOps = 15;

constexpr const char* kStages[] = {
    "load_binary_dumps", "text_round_trip", "differencing", "features",
    "kmeans_sweep",      "silhouette",      "rank",         "site_selection",
};

std::uint64_t stage_sum(const char* stage) {
  return obs::default_registry()
      .histogram("pipeline_stage_ns", {{"stage", stage}})
      .sum();
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s paper_apps [--seed s]\n"
               "       %s wide_trace <dump_dir>\n"
               "       %s tier\n",
               argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string workload = argv[1];
  if (workload == "tier" && argc == 2) {
    std::printf("{\"simd_tier\": \"%s\"}\n",
                cluster::simd::tier_name(cluster::simd::detected_tier()));
    return 0;
  }
  const bool wide = workload == "wide_trace";
  if (!wide && workload != "paper_apps") return usage(argv[0]);
  int i = 2;
  std::string dump_dir;
  if (wide) {
    if (argc < 3) return usage(argv[0]);
    dump_dir = argv[i++];
  }
  std::uint64_t seed = 1;
  if (!wide && argc == 4 && std::strcmp(argv[2], "--seed") == 0) {
    seed = std::strtoull(argv[3], nullptr, 10);
    i = 4;
  }
  if (i != argc) return usage(argv[0]);

  core::PipelineConfig cfg = bench::paper_pipeline_config();
  cfg.text_round_trip = !wide;
  cfg.threads = wide ? 0 : 1;
  std::vector<std::vector<gmon::ProfileSnapshot>> apps;
  if (!wide) {
    apps::RunConfig run = bench::paper_run_config();
    run.seed = seed;
    for (const std::string& name : apps::app_names()) {
      auto app = apps::make_app(name, {});
      apps.push_back(apps::run_profiled(*app, run).snapshots);
    }
  }
  auto op = [&] {
    if (wide) {
      core::analyze_dump_dir(dump_dir, cfg);
    } else {
      for (const auto& snaps : apps) core::analyze_snapshots(snaps, cfg);
    }
  };
  op();  // warm-up

  constexpr std::size_t kCount = std::size(kStages);
  std::vector<std::vector<double>> per_op(kCount);
  for (int r = 0; r < kOps; ++r) {
    std::uint64_t before[kCount];
    for (std::size_t s = 0; s < kCount; ++s) before[s] = stage_sum(kStages[s]);
    op();
    for (std::size_t s = 0; s < kCount; ++s) {
      per_op[s].push_back(
          static_cast<double>(stage_sum(kStages[s]) - before[s]) / 1e6);
    }
  }

  std::printf("{\"workload\": \"%s\", \"ops\": %d, \"stages_ms\": {",
              workload.c_str(), kOps);
  const char* sep = "";
  for (std::size_t s = 0; s < kCount; ++s) {
    if (quantile(per_op[s], 1.0) <= 0.0) continue;  // stage not on this path
    std::printf("%s\"%s\": {\"median\": %.4f, \"q1\": %.4f, \"q3\": %.4f}",
                sep, kStages[s], quantile(per_op[s], 0.5),
                quantile(per_op[s], 0.25), quantile(per_op[s], 0.75));
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
