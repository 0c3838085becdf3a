// The benchmark's workloads. Each runs its set-up, measures for
// Options::seconds, checks the program's outputs, and fills a RunResult
// (see perfbench/README.md for the metric definitions).
#pragma once

#include "probe.hpp"

#include <cstdint>
#include <string>

namespace perfbench {

/// Arguments every workload receives.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for generated inputs and the span
  /// dump of a traced run.
  std::string work_dir = ".bench_build/work";
};

/// paper_apps and wide_trace: the offline analysis path.
RunResult run_offline(const Options& opt);

/// fleet_stream: the online gateway + shard path.
RunResult run_online(const Options& opt);

}  // namespace perfbench
