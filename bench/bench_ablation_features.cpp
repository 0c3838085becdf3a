// Ablation: feature families (paper, Section V-A: "We have experimented
// with including or using other profiling data (number of calls,
// execution time of children, etc.) but have not found these to improve
// the results, and sometimes to worsen them"). Each variant re-clusters
// the same interval data; stability is scored by ARI against the
// paper's self-time-only configuration. Standardization is included as a
// fourth variant because it changes the induced geometry drastically.
#include "bench_common.hpp"

#include "cluster/quality.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

#include <cstdio>

namespace {

using namespace incprof;

struct Variant {
  const char* label;
  core::FeatureOptions options;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  {
    Variant v{"self (paper)", {}};
    out.push_back(v);
  }
  {
    Variant v{"self+calls", {}};
    v.options.use_calls = true;
    out.push_back(v);
  }
  {
    Variant v{"self+children", {}};
    v.options.use_children = true;
    out.push_back(v);
  }
  {
    Variant v{"self z-scored", {}};
    v.options.standardize = true;
    out.push_back(v);
  }
  return out;
}

}  // namespace

int main() {
  std::printf("==== Ablation: clustering feature families ====\n\n");

  util::TextTable t;
  t.set_header({"App", "variant", "k", "silhouette", "ARI vs paper cfg",
                "unique sites"});
  t.set_align(2, util::Align::kRight);
  t.set_align(3, util::Align::kRight);
  t.set_align(4, util::Align::kRight);
  t.set_align(5, util::Align::kRight);

  for (const auto& name : apps::app_names()) {
    auto app = apps::make_app(name, {});
    const apps::ProfiledRun run =
        apps::run_profiled(*app, bench::paper_run_config());

    std::vector<std::size_t> reference;
    for (const auto& variant : variants()) {
      core::PipelineConfig cfg = bench::paper_pipeline_config();
      // Children time does not survive the gprof text form; compare all
      // variants on the binary-exact path so the ablation isolates the
      // feature choice.
      cfg.text_round_trip = false;
      cfg.features = variant.options;
      const auto analysis = core::analyze_snapshots(run.snapshots, cfg);
      if (reference.empty()) reference = analysis.detection.assignments;
      const double ari = cluster::adjusted_rand_index(
          analysis.detection.assignments, reference);
      t.add_row({name, variant.label,
                 std::to_string(analysis.detection.num_phases),
                 util::format_fixed(
                     cluster::mean_silhouette(analysis.features.features,
                                              analysis.detection.assignments),
                     3),
                 util::format_fixed(ari, 3),
                 std::to_string(analysis.sites.num_unique_sites())});
    }
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("expectation: extra families and z-scoring mostly reshuffle "
              "or fragment the self-time phases (ARI <= 1) without "
              "reducing the site count — the paper's reason for "
              "clustering raw self time only.\n");
  return 0;
}
