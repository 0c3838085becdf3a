// The lock-order manifest parser, and the doc-sync gate: the manifest
// that the lint enforces must appear verbatim in DESIGN §5.3, so the
// two cannot drift apart.
#include "analysis/lock_order.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace {

using incprof::analysis::LockOrder;

LockOrder parse_ok(const std::string& text) {
  std::string error;
  LockOrder order = LockOrder::parse(text, &error);
  EXPECT_EQ(error, "");
  return order;
}

std::string parse_error(const std::string& text) {
  std::string error;
  LockOrder::parse(text, &error);
  EXPECT_NE(error, "");
  return error;
}

TEST(LockOrder, OrderAndLeafDeclarations) {
  const LockOrder o = parse_ok("order A > B\nleaf C\n");
  EXPECT_TRUE(o.knows("A"));
  EXPECT_TRUE(o.knows("B"));
  EXPECT_TRUE(o.knows("C"));
  EXPECT_FALSE(o.knows("D"));
  EXPECT_TRUE(o.allows("A", "B"));
  EXPECT_FALSE(o.allows("B", "A"));
  EXPECT_FALSE(o.allows("A", "C"));
  EXPECT_FALSE(o.allows("C", "A"));
}

TEST(LockOrder, ChainIsTransitive) {
  const LockOrder o = parse_ok("order A > B > C\n");
  EXPECT_TRUE(o.allows("A", "B"));
  EXPECT_TRUE(o.allows("B", "C"));
  EXPECT_TRUE(o.allows("A", "C"));
  EXPECT_FALSE(o.allows("C", "A"));
}

TEST(LockOrder, ClosureAcrossDeclarations) {
  const LockOrder o = parse_ok("order A > B\norder B > C\n");
  EXPECT_TRUE(o.allows("A", "C"));
}

TEST(LockOrder, CommentsAndBlankLines) {
  const LockOrder o =
      parse_ok("# header\n\norder A > B  # trailing\n\nleaf C\n");
  EXPECT_TRUE(o.allows("A", "B"));
  EXPECT_TRUE(o.knows("C"));
}

TEST(LockOrder, RejectsCycles) {
  EXPECT_NE(parse_error("order A > B\norder B > A\n").find("cycle"),
            std::string::npos);
}

TEST(LockOrder, RejectsSelfEdge) {
  EXPECT_NE(parse_error("order A > A\n").find("self-edge"),
            std::string::npos);
}

TEST(LockOrder, RejectsBadGrammar) {
  parse_error("order A >\n");
  parse_error("order A\n");
  parse_error("leaf\n");
  parse_error("frob X\n");
  parse_error("order A B\n");
}

TEST(LockOrder, RepoManifestParsesAndMatchesDesign) {
  const std::string root = INCPROF_SOURCE_ROOT;
  std::ifstream manifest_in(root + "/src/analysis/lock_order.txt");
  ASSERT_TRUE(manifest_in.good());
  std::stringstream manifest_ss;
  manifest_ss << manifest_in.rdbuf();
  const std::string manifest = manifest_ss.str();

  std::string error;
  const LockOrder order = LockOrder::parse(manifest, &error);
  EXPECT_EQ(error, "");
  EXPECT_FALSE(order.empty());
  // Spot-check the §5.3 hierarchy the service layer depends on.
  EXPECT_TRUE(order.allows("Server::sessions_mu_", "Session::status_mu_"));
  EXPECT_TRUE(
      order.allows("Server::sessions_mu_", "Session::queue_mu_"));
  EXPECT_TRUE(order.knows("g_sink_mu"));

  // The declaration block (everything after the comment header) must
  // appear verbatim in DESIGN.md — the doc IS the manifest.
  std::string block;
  std::istringstream lines(manifest);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    block += line;
    block += '\n';
  }
  ASSERT_FALSE(block.empty());

  std::ifstream design_in(root + "/DESIGN.md");
  ASSERT_TRUE(design_in.good());
  std::stringstream design_ss;
  design_ss << design_in.rdbuf();
  EXPECT_NE(design_ss.str().find(block), std::string::npos)
      << "DESIGN.md must contain src/analysis/lock_order.txt's "
         "declaration block verbatim";
}

}  // namespace
