// Per-file rule behavior, directory profiles, baselines and output
// formats — everything the incprof_lint CLI composes.
#include "analysis/rules.hpp"

#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "analysis/lexer.hpp"
#include "analysis/scope.hpp"

namespace {

namespace analysis = incprof::analysis;

std::vector<analysis::Finding> check(const std::string& path,
                                     const std::string& snippet,
                                     const analysis::LockOrder* order =
                                         nullptr) {
  const analysis::FileViews views = analysis::make_views(snippet);
  const analysis::LockAnalysis locks = analysis::analyze_locks(views);
  analysis::FileProfile profile = analysis::profile_for_path(path);
  if (order == nullptr) profile.rules.lock_order = false;

  analysis::FileCheckInput input;
  input.display_path = path;
  input.views = &views;
  input.locks = &locks;
  input.order = order;
  input.rules = profile.rules;
  input.is_annotations_header =
      path == "src/util/thread_annotations.hpp";
  std::vector<analysis::Finding> findings;
  analysis::check_file(input, findings);
  return findings;
}

TEST(Profiles, DirectoryTable) {
  const analysis::FileProfile src =
      analysis::profile_for_path("src/service/server.cpp");
  EXPECT_TRUE(src.rules.bare_mutex);
  EXPECT_TRUE(src.rules.naked_new);
  EXPECT_TRUE(src.rules.lock_across_io);
  EXPECT_FALSE(src.rules.determinism);  // only cluster/core
  EXPECT_TRUE(src.collect_registry);

  const analysis::FileProfile kernel =
      analysis::profile_for_path("src/cluster/kmeans.cpp");
  EXPECT_TRUE(kernel.rules.determinism);

  const analysis::FileProfile tools =
      analysis::profile_for_path("tools/incprofd.cpp");
  EXPECT_FALSE(tools.rules.determinism);
  EXPECT_TRUE(tools.rules.naked_new);
  EXPECT_TRUE(tools.collect_registry);

  const analysis::FileProfile tests =
      analysis::profile_for_path("tests/service/test_server.cpp");
  EXPECT_TRUE(tests.rules.bare_mutex);
  EXPECT_FALSE(tests.rules.naked_new);
  EXPECT_FALSE(tests.rules.determinism);
  EXPECT_FALSE(tests.collect_registry);

  const analysis::FileProfile other =
      analysis::profile_for_path("bench/main.cpp");
  EXPECT_FALSE(other.rules.bare_mutex);
  EXPECT_FALSE(other.collect_registry);
}

TEST(Rules, DeterminismFlagsEntropyAndClocks) {
  EXPECT_EQ(check("src/cluster/a.cpp",
                  "auto seed = std::random_device{}();\n")
                .size(),
            1u);
  EXPECT_EQ(
      check("src/core/a.cpp", "auto t = std::chrono::system_clock::now();\n")
          .size(),
      1u);
  // Outside the deterministic kernels the same line is fine.
  EXPECT_TRUE(
      check("src/service/a.cpp",
            "auto t = std::chrono::system_clock::now();\n")
          .empty());
  // Comments don't count.
  EXPECT_TRUE(
      check("src/cluster/a.cpp", "// system_clock would be bad\n")
          .empty());
}

TEST(Rules, DeterminismFlagsFastMathOptIns) {
  // Fast-math (pragma or attribute spelling) voids the scalar/SIMD
  // bitwise parity contract, so it counts as a determinism breach in
  // the kernels — including inside pragma string arguments, which live
  // in the literal-preserving view.
  EXPECT_EQ(check("src/cluster/a.cpp",
                  "#pragma float_control(precise, off)\n")
                .size(),
            1u);
  EXPECT_EQ(check("src/cluster/a.cpp",
                  "__attribute__((optimize(\"fast-math\"))) void f();\n")
                .size(),
            1u);
  EXPECT_EQ(check("src/core/a.cpp",
                  "#pragma GCC optimize(\"ffast-math\")\n")
                .size(),
            1u);
  // Prose in comments and non-kernel directories stay clean.
  EXPECT_TRUE(check("src/cluster/a.cpp",
                    "// never build this TU with -ffast-math\n")
                  .empty());
  EXPECT_TRUE(check("src/service/a.cpp",
                    "#pragma float_control(precise, off)\n")
                  .empty());
}

TEST(Rules, SuppressionIsPerRule) {
  EXPECT_TRUE(analysis::suppressed(
      "std::mutex m;  // incprof-lint: allow(bare-mutex)",
      "bare-mutex"));
  EXPECT_FALSE(analysis::suppressed(
      "std::mutex m;  // incprof-lint: allow(bare-mutex)", "detach"));
}

TEST(Rules, LockAcrossIoNeedsALiveRegion) {
  analysis::LockOrder order;
  std::string error;
  order = analysis::LockOrder::parse("leaf W::mu_\n", &error);
  ASSERT_EQ(error, "");
  const auto findings = check("src/service/a.cpp",
                              "void W::run() {\n"
                              "  util::MutexLock lock(mu_);\n"
                              "  sock.flush();\n"
                              "}\n",
                              &order);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-across-io");
  EXPECT_EQ(findings[0].line, 3u);
  // The same call with no lock held is clean.
  EXPECT_TRUE(check("src/service/a.cpp",
                    "void W::run() {\n  sock.flush();\n}\n", &order)
                  .empty());
}

TEST(Registry, DocDriftAndSuppression) {
  analysis::MetricRegistryCheck registry;
  registry.scan_source(
      "src/obs/a.cpp",
      analysis::make_views("r.counter(\"obs_scrapes\").add();\n"));
  registry.scan_docs("README.md",
                     "Cites `obs_scrapes` (fine) and "
                     "`phantom_total` (drift).\n");
  std::vector<analysis::Finding> findings;
  registry.finish(findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "README.md");
  EXPECT_EQ(findings[0].rule, "metric-registry");
  EXPECT_NE(findings[0].detail.find("phantom_total"),
            std::string::npos);

  // The HTML-comment escape silences a doc citation in place.
  analysis::MetricRegistryCheck suppressed;
  suppressed.scan_docs(
      "README.md",
      "`phantom_total` <!-- incprof-lint: allow(metric-registry) -->\n");
  std::vector<analysis::Finding> none;
  suppressed.finish(none);
  EXPECT_TRUE(none.empty());
}

TEST(Registry, SpanAndMetricMayNotShareAName) {
  analysis::MetricRegistryCheck registry;
  registry.scan_source(
      "src/prof/a.cpp",
      analysis::make_views("obs::ScopedSpan span(\"session.reap\");\n"));
  registry.scan_source(
      "src/prof/b.cpp",
      analysis::make_views("r.counter(\"session.reap\").add();\n"));
  std::vector<analysis::Finding> findings;
  registry.finish(findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/prof/a.cpp");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[0].rule, "metric-registry");
}

TEST(Registry, FleetNamesResolveToSynthesizedOrDerivedSeries) {
  // `fleet_shards` is a literal the merged exposition in src/fleet
  // synthesizes; `fleet_frame_stage_ns_count` is the fleet_ prefix on
  // a shard histogram's _count family. Neither is doc drift.
  analysis::MetricRegistryCheck registry;
  registry.scan_source(
      "src/service/a.cpp",
      analysis::make_views("r.histogram(\"frame_stage_ns\").record(1);\n"));
  registry.scan_source(
      "src/fleet/g.cpp",
      analysis::make_views("out += gauge_line(\"fleet_shards\", n);\n"));
  registry.scan_docs("README.md",
                     "The gateway exposes `fleet_shards` and "
                     "`fleet_frame_stage_ns_count`.\n");
  std::vector<analysis::Finding> findings;
  registry.finish(findings);
  EXPECT_TRUE(findings.empty());
}

TEST(Registry, PlainWordsInDocsAreNotMetricCitations) {
  // Names without labels, unit suffixes, or reserved prefixes are not
  // treated as metric citations — `check_sum`, `src/fleet`, flag names
  // and function names must not false-positive.
  analysis::MetricRegistryCheck registry;
  registry.scan_docs("DESIGN.md",
                     "See `check_sum`, `frame_queue`, `--obs-port`, "
                     "`src/fleet/gateway.cpp`.\n");
  std::vector<analysis::Finding> findings;
  registry.finish(findings);
  EXPECT_TRUE(findings.empty());
}

TEST(Baseline, MultisetSemantics) {
  const std::vector<analysis::Finding> findings = {
      {"src/a.cpp", 3, "naked-new", "allocate through make_unique"},
      {"src/a.cpp", 9, "naked-new", "allocate through make_unique"},
      {"src/b.cpp", 1, "detach", "track and join"},
  };
  // One baseline entry absolves exactly one of the two identical
  // (file, rule, detail) findings.
  const std::string baseline =
      "# comment\n"
      "src/a.cpp\tnaked-new\tallocate through make_unique\n"
      "src/b.cpp\tdetach\ttrack and join\n";
  const auto kept = analysis::apply_baseline(findings, baseline);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].rule, "naked-new");

  // render -> apply round-trips to an empty set.
  const auto all = analysis::apply_baseline(
      findings, analysis::render_baseline(findings));
  EXPECT_TRUE(all.empty());
}

TEST(Formats, JsonAndSarifCarryTheFindings) {
  analysis::AnalyzeResult result;
  result.files_scanned = 2;
  result.findings = {
      {"src/a.cpp", 3, "detach", "detail with \"quotes\""}};
  const std::string json = analysis::format_json(result);
  EXPECT_NE(json.find("\"rule\": \"detach\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);

  const std::string sarif = analysis::format_sarif(result);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"detach\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
  EXPECT_NE(sarif.find("incprof_lint"), std::string::npos);
  // Every rule id is declared in the driver's rule table.
  for (const std::string& rule : analysis::all_rules()) {
    EXPECT_NE(sarif.find("{\"id\": \"" + rule + "\"}"),
              std::string::npos);
  }
}

}  // namespace
