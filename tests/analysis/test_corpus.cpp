// The golden corpus: each seeded mini-tree under tests/analysis/corpus
// must produce EXACTLY its pinned file:line:rule findings — no more,
// no fewer — and the real tree must be clean through the same library
// entry point the CLI uses. A corpus file may also hold lines that must
// stay clean (a digit in a metric name, an allow() escape); the exact
// match pins those too.
#include "analysis/analyzer.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace {

namespace analysis = incprof::analysis;

std::vector<std::string> scan(const std::string& corpus_root) {
  const analysis::AnalyzeResult result =
      analysis::analyze_tree(corpus_root);
  EXPECT_TRUE(result.errors.empty())
      << corpus_root << ": " << result.errors.size() << " error(s)";
  std::vector<std::string> out;
  for (const analysis::Finding& f : result.findings) {
    std::ostringstream os;
    os << f.file << ":" << f.line << ":" << f.rule;
    out.push_back(os.str());
  }
  return out;
}

std::string corpus(const char* rule_dir) {
  return std::string(INCPROF_SOURCE_ROOT) + "/tests/analysis/corpus/" +
         rule_dir;
}

TEST(Corpus, BareMutex) {
  EXPECT_EQ(scan(corpus("bare_mutex")),
            (std::vector<std::string>{"src/bad.cpp:5:bare-mutex",
                                      "src/bad.cpp:8:bare-mutex",
                                      "src/bad.cpp:11:bare-mutex"}));
}

TEST(Corpus, Detach) {
  EXPECT_EQ(scan(corpus("detach")),
            (std::vector<std::string>{"src/bad.cpp:7:detach",
                                      "src/bad.cpp:11:detach"}));
}

TEST(Corpus, MetricName) {
  EXPECT_EQ(scan(corpus("metric_name")),
            (std::vector<std::string>{"src/bad.cpp:4:metric-name",
                                      "src/bad.cpp:5:metric-name",
                                      "src/bad.cpp:6:metric-name"}));
}

TEST(Corpus, NakedNew) {
  EXPECT_EQ(scan(corpus("naked_new")),
            (std::vector<std::string>{"src/bad.cpp:4:naked-new",
                                      "src/bad.cpp:8:naked-new"}));
}

TEST(Corpus, LockOrder) {
  EXPECT_EQ(scan(corpus("lock_order")),
            (std::vector<std::string>{"src/bad.cpp:7:lock-order",
                                      "src/bad.cpp:12:lock-order",
                                      "src/bad.cpp:17:lock-order"}));
}

TEST(Corpus, LockAcrossIo) {
  EXPECT_EQ(
      scan(corpus("lock_across_io")),
      (std::vector<std::string>{"src/bad.cpp:7:lock-across-io",
                                "src/bad.cpp:12:lock-across-io"}));
}

TEST(Corpus, Determinism) {
  EXPECT_EQ(scan(corpus("determinism")),
            (std::vector<std::string>{
                "src/cluster/bad.cpp:6:determinism",
                "src/cluster/bad.cpp:11:determinism",
                "src/cluster/bad.cpp:15:determinism"}));
}

TEST(Corpus, MetricRegistry) {
  EXPECT_EQ(scan(corpus("metric_registry")),
            (std::vector<std::string>{
                "README.md:3:metric-registry",
                "src/a.cpp:5:metric-registry",
                "src/a.cpp:6:metric-registry"}));
}

TEST(Corpus, RealTreeIsClean) {
  // The library-level TreeClean: same entry point the CLI uses, so a
  // regression here and in ctest's Lint.TreeClean point at the same
  // thing.
  const analysis::AnalyzeResult result =
      analysis::analyze_tree(INCPROF_SOURCE_ROOT);
  EXPECT_TRUE(result.errors.empty());
  EXPECT_GT(result.files_scanned, 100u);
  for (const analysis::Finding& f : result.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.detail;
  }
}

}  // namespace
