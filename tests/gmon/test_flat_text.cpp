#include "gmon/flat_text.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace incprof::gmon {
namespace {

FunctionProfile fp(std::string name, std::int64_t self, std::int64_t calls,
                   std::int64_t incl) {
  FunctionProfile p;
  p.name = std::move(name);
  p.self_ns = self;
  p.calls = calls;
  p.inclusive_ns = incl;
  return p;
}

TEST(FlatText, BannerAndHeaderPresent) {
  ProfileSnapshot s;
  s.upsert(fp("f", 1'000'000'000, 3, 1'000'000'000));
  const std::string text = format_flat_profile(s);
  EXPECT_NE(text.find("Flat profile:"), std::string::npos);
  EXPECT_NE(text.find("Each sample counts as 0.010000000 seconds."),
            std::string::npos);
  EXPECT_NE(text.find("cumulative"), std::string::npos);
  EXPECT_NE(text.find("name"), std::string::npos);
}

TEST(FlatText, RowsOrderedByDescendingSelfTime) {
  ProfileSnapshot s;
  s.upsert(fp("small", 10'000'000, 1, 10'000'000));
  s.upsert(fp("big", 900'000'000, 1, 900'000'000));
  const std::string text = format_flat_profile(s);
  EXPECT_LT(text.find("big"), text.find("small"));
}

TEST(FlatText, ZeroCallRowHasBlankCallColumns) {
  ProfileSnapshot s;
  s.upsert(fp("long_lived", 500'000'000, 0, 500'000'000));
  const std::string text = format_flat_profile(s);
  // gprof leaves the calls / per-call columns blank for sampled-but-
  // never-counted functions; our parser keys the loop designation on it.
  const auto pos = text.find("long_lived");
  ASSERT_NE(pos, std::string::npos);
  const auto line_start = text.rfind('\n', pos) + 1;
  const std::string line = text.substr(line_start, pos - line_start);
  EXPECT_EQ(line.find_first_of("0123456789", 30), std::string::npos)
      << "call columns should be blank: " << line;
}

TEST(FlatText, IdleFunctionsHiddenByDefault) {
  ProfileSnapshot s;
  s.upsert(fp("active", 10'000'000, 1, 10'000'000));
  s.upsert(fp("idle", 0, 0, 0));
  EXPECT_EQ(format_flat_profile(s).find("idle"), std::string::npos);
  FlatTextOptions opts;
  opts.include_idle = true;
  EXPECT_NE(format_flat_profile(s, opts).find("idle"), std::string::npos);
}

TEST(FlatText, ParseRoundTripPreservesSelfAndCalls) {
  ProfileSnapshot s;
  s.upsert(fp("validate_bfs_result", 1'170'000'000, 12, 1'200'000'000));
  s.upsert(fp("run_bfs", 230'000'000, 0, 230'000'000));
  s.upsert(fp("make_one_edge", 10'000'000, 512, 10'000'000));

  const ProfileSnapshot back = parse_flat_profile(format_flat_profile(s));
  ASSERT_EQ(back.size(), 3u);
  for (const auto& orig : s.functions()) {
    const FunctionProfile* p = back.find(orig.name);
    ASSERT_NE(p, nullptr) << orig.name;
    EXPECT_EQ(p->self_ns, orig.self_ns) << orig.name;
    EXPECT_EQ(p->calls, orig.calls) << orig.name;
  }
}

TEST(FlatText, ParseRecoversInclusiveApproximately) {
  ProfileSnapshot s;
  s.upsert(fp("parent", 100'000'000, 4, 900'000'000));
  const ProfileSnapshot back = parse_flat_profile(format_flat_profile(s));
  // total us/call prints at 2 decimals -> inclusive recovered to within
  // calls * 10 us.
  EXPECT_NEAR(static_cast<double>(back.find("parent")->inclusive_ns),
              900'000'000.0, 4 * 10'000.0);
}

TEST(FlatText, ParsePercentAndCumulativeIgnored) {
  // Hand-written report in gprof's own style.
  const std::string text =
      "Flat profile:\n"
      "\n"
      "Each sample counts as 0.01 seconds.\n"
      "  %   cumulative   self              self     total\n"
      " time   seconds   seconds    calls  us/call  us/call  name\n"
      " 62.21       1.17      1.17       12    97.50    97.50  validate\n"
      " 13.20       1.42      0.25                             run_bfs\n";
  const ProfileSnapshot s = parse_flat_profile(text);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.find("validate")->calls, 12);
  EXPECT_EQ(s.find("validate")->self_ns, 1'170'000'000);
  EXPECT_EQ(s.find("run_bfs")->calls, 0);
  EXPECT_EQ(s.find("run_bfs")->self_ns, 250'000'000);
  // Zero-call row: inclusive falls back to self.
  EXPECT_EQ(s.find("run_bfs")->inclusive_ns, 250'000'000);
}

TEST(FlatText, ParseNameWithSpaces) {
  const std::string text =
      "Flat profile:\n"
      " time   seconds   seconds    calls  us/call  us/call  name\n"
      " 50.00       0.10      0.10        1   100.00   100.00  operator "
      "new(unsigned long)\n";
  const ProfileSnapshot s = parse_flat_profile(text);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.functions()[0].name, "operator new(unsigned long)");
}

TEST(FlatText, ParseCollapsesWhitespaceInsideNames) {
  const std::string text =
      "Flat profile:\n"
      " time   seconds   seconds    calls  us/call  us/call  name\n"
      " 50.00       0.10      0.10        1   100.00   100.00  a  b\tc \n"
      " 25.00       0.15      0.05                             d \t e\r\n";
  const ProfileSnapshot s = parse_flat_profile(text);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.functions()[0].name, "a b c");
  EXPECT_EQ(s.functions()[1].name, "d e");
}

TEST(FlatText, ParseDuplicateNameKeepsLastRow) {
  const std::string text =
      "Flat profile:\n"
      " time   seconds   seconds    calls  us/call  us/call  name\n"
      " 50.00       0.30      0.30        3   100.00   100.00  dup\n"
      " 30.00       0.50      0.20        1   200.00   200.00  other\n"
      " 20.00       0.60      0.10                             dup\n";
  const ProfileSnapshot s = parse_flat_profile(text);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.functions()[0].name, "dup");
  EXPECT_EQ(s.functions()[0].self_ns, 100'000'000);
  EXPECT_EQ(s.functions()[0].calls, 0);
  EXPECT_EQ(s.functions()[1].name, "other");
}

TEST(FlatText, ParseMissingBannerThrows) {
  EXPECT_THROW(parse_flat_profile("no banner here\n"), std::runtime_error);
}

TEST(FlatText, ParseMalformedRowThrows) {
  const std::string text =
      "Flat profile:\n"
      " time   seconds   seconds    calls  us/call  us/call  name\n"
      " not numbers at all\n";
  EXPECT_THROW(parse_flat_profile(text), std::runtime_error);
}

TEST(FlatText, ParseShortRowThrows) {
  const std::string text =
      "Flat profile:\n"
      " time   seconds   seconds    calls  us/call  us/call  name\n"
      " 1.0 2.0\n";
  EXPECT_THROW(parse_flat_profile(text), std::runtime_error);
}

TEST(FlatText, EmptySnapshotStillHasBanner) {
  const ProfileSnapshot s;
  const std::string text = format_flat_profile(s);
  const ProfileSnapshot back = parse_flat_profile(text);
  EXPECT_TRUE(back.empty());
}

class SelfTimeResolutionTest
    : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SelfTimeResolutionTest, MicrosecondResolutionSurvivesText) {
  // Self seconds print with 6 decimals: any multiple of 1 us round-trips.
  ProfileSnapshot s;
  s.upsert(fp("f", GetParam(), 1, GetParam()));
  const ProfileSnapshot back = parse_flat_profile(format_flat_profile(s));
  EXPECT_EQ(back.find("f")->self_ns, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Values, SelfTimeResolutionTest,
                         ::testing::Values(1'000, 10'000'000, 123'456'000,
                                           999'999'999'000));

}  // namespace
}  // namespace incprof::gmon
