// The paper reproduction, pinned: for each of the five paper apps, the
// Table II-VI text and the Figure 2-6 heartbeat CSVs that bench_paper
// prints and writes must equal the committed goldens in bench/ref/.
// The table must match both on the serial engine with the scalar SIMD
// tier and on four threads with the host's detected tier (the DESIGN §6
// determinism contract, on real apps). EXPERIMENTS.md says how to
// regenerate a golden.
#include "bench_common.hpp"

#include "cluster/simd/simd.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace incprof {
namespace {

std::string read_ref(const std::string& name) {
  const std::string path =
      std::string(INCPROF_SOURCE_ROOT) + "/bench/ref/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void reproduce(const std::string& app) {
  const bench::PaperApp* paper = bench::find_paper_app(app);
  ASSERT_NE(paper, nullptr);
  const std::string table = read_ref("table_" + app + ".txt");

  core::PipelineConfig cfg = bench::paper_pipeline_config();
  const cluster::simd::Tier saved = cluster::simd::active_tier();
  cfg.threads = 1;
  ASSERT_TRUE(cluster::simd::set_active_tier(cluster::simd::Tier::kScalar));
  const bench::PaperTable serial = bench::render_table(*paper, cfg);
  cfg.threads = 4;
  ASSERT_TRUE(
      cluster::simd::set_active_tier(cluster::simd::detected_tier()));
  const bench::PaperTable parallel = bench::render_table(*paper, cfg);
  cluster::simd::set_active_tier(saved);
  EXPECT_EQ(serial.text, table) << "threads = 1, scalar tier";
  EXPECT_EQ(parallel.text, table) << "threads = 4, detected tier";

  const bench::PaperFigure figure =
      bench::run_figure(*paper, parallel.analysis.sites);
  EXPECT_EQ(bench::render_series_csv(figure.discovered),
            read_ref("fig_" + app + "_discovered.csv"));
  EXPECT_EQ(bench::render_series_csv(figure.manual),
            read_ref("fig_" + app + "_manual.csv"));
}

TEST(Reproduction, graph500) { reproduce("graph500"); }
TEST(Reproduction, minife) { reproduce("minife"); }
TEST(Reproduction, miniamr) { reproduce("miniamr"); }
TEST(Reproduction, lammps) { reproduce("lammps"); }
TEST(Reproduction, gadget) { reproduce("gadget"); }

}  // namespace
}  // namespace incprof
