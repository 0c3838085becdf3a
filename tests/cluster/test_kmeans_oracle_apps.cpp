// The bounded Lloyd loop against the plain one on the five paper apps'
// own feature matrices: every cell of the pipeline's k x restart sweep,
// bit for bit, at the scalar tier and at the host's detected tier.
#include "kmeans_oracle.hpp"

#include "bench_common.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace incprof::cluster {
namespace {

void expect_sweep_matches_oracle(const std::string& app) {
  const bench::PaperApp* paper = bench::find_paper_app(app);
  ASSERT_NE(paper, nullptr);
  const core::PipelineConfig cfg = bench::paper_pipeline_config();
  const bench::PaperTable table = bench::render_table(*paper, cfg);
  const Matrix& m = table.analysis.features.features;
  ASSERT_GT(m.rows(), 0u);

  const simd::Tier saved = simd::active_tier();
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::detected_tier() != simd::Tier::kScalar) {
    tiers.push_back(simd::detected_tier());
  }
  for (simd::Tier tier : tiers) {
    ASSERT_TRUE(simd::set_active_tier(tier));
    for (std::size_t k = 1; k <= cfg.detector.k_max; ++k) {
      KMeansConfig kc;
      kc.k = k;
      kc.max_iters = cfg.detector.kmeans_max_iters;
      kc.seed = cfg.detector.seed;
      // The sweep's RNG streams: a fresh Rng(seed) per k, split per
      // restart (cluster::sweep_k).
      util::Rng rng(kc.seed);
      for (std::size_t s = 0; s < cfg.detector.kmeans_restarts; ++s) {
        util::Rng mine = rng.split();
        util::Rng theirs = mine;
        oracle::expect_bit_identical(kmeans_run(m, kc, mine),
                                     oracle::kmeans_run(m, kc, theirs));
        if (::testing::Test::HasFailure()) {
          ADD_FAILURE() << app << " tier=" << simd::tier_name(tier)
                        << " k=" << k << " restart=" << s;
          simd::set_active_tier(saved);
          return;
        }
      }
    }
  }
  simd::set_active_tier(saved);
}

TEST(KMeansOracle, PaperApps) {
  for (const char* app :
       {"graph500", "minife", "miniamr", "lammps", "gadget"}) {
    expect_sweep_matches_oracle(app);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace incprof::cluster
