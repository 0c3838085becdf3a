// Ablation: offline k-means vs streaming leader clustering. The paper's
// deployment goal (tracking production behaviour as it happens) needs an
// online detector; this bench measures how much phase quality the
// streaming tracker gives up relative to the offline pipeline on the
// same dumps. The text comes from bench::render_online_ablation, which
// Reproduction.OnlineTracker pins against bench/ref/ablation_online.txt.
#include "bench_common.hpp"

#include <cstdio>

int main() {
  std::fputs(incprof::bench::render_online_ablation().c_str(), stdout);
  return 0;
}
