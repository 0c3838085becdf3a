// format_flat_profile against the printf reference, byte for byte.
#include "flat_text_oracle.hpp"

#include <gtest/gtest.h>

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

void expect_matches_oracle(const ProfileSnapshot& snap,
                           const FlatTextOptions& opts = {}) {
  EXPECT_EQ(format_flat_profile(snap, opts),
            oracle::format_flat_profile(snap, opts));
}

TEST(FlatTextOracle, SeededRandomSnapshots) {
  util::Rng rng(0x5eed'f1a7);
  for (int i = 0; i < 2000; ++i) {
    const ProfileSnapshot snap = oracle::random_snapshot(rng);
    FlatTextOptions opts;
    opts.include_idle = rng.next_below(2) == 1;
    opts.sample_period_ns = rng.next_below(2) == 1
                                ? 10'000'000
                                : rng.next_in(1, 2'000'000'000);
    expect_matches_oracle(snap, opts);
    if (HasFailure()) return;
  }
}

TEST(FlatTextOracle, ExactRoundingTies) {
  // Dyadic values whose decimal expansion ends in 5 exactly one digit
  // past the printed precision: printf rounds them half-to-even.
  ProfileSnapshot s;
  // self us/call 2.625 and 0.125 at %.2f; total us/call 1.375.
  s.upsert(fp("tie_per_call", 2'625, 1, 1'375));
  s.upsert(fp("tie_small", 125, 1, 3'875));
  // self seconds 0.0078125 and 0.0234375 at %.6f (1/128, 3/128).
  s.upsert(fp("tie_seconds", 7'812'500, 0, 7'812'500));
  s.upsert(fp("tie_seconds3", 23'437'500, 4, 23'437'500));
  expect_matches_oracle(s);

  // Percentages 0.125 and 0.375 at %.2f: self 1 and 3 of a total 800.
  ProfileSnapshot p;
  p.upsert(fp("one", 1, 1, 1));
  p.upsert(fp("three", 3, 1, 3));
  p.upsert(fp("rest", 796, 1, 796));
  expect_matches_oracle(p);
}

TEST(FlatTextOracle, ValuesWiderThanTheirColumns) {
  ProfileSnapshot s;
  s.upsert(fp("many_calls", 5'000'000'000, 123'456'789'012, 6'000'000'000));
  s.upsert(fp("long_running", 1'234'567'000'000'000, 3,
              1'234'567'000'000'000));
  s.upsert(fp("slow_per_call", 987'654'321'000'000, 1,
              987'654'321'000'000));
  expect_matches_oracle(s);
}

TEST(FlatTextOracle, ZeroTotalZeroCallsAndSpacedNames) {
  ProfileSnapshot zero;
  zero.upsert(fp("counted_only", 0, 7, 0));
  zero.upsert(fp("idle", 0, 0, 0));
  expect_matches_oracle(zero);
  FlatTextOptions idle;
  idle.include_idle = true;
  expect_matches_oracle(zero, idle);

  // Positive and negative self times cancelling to a zero total.
  ProfileSnapshot cancel;
  cancel.upsert(fp("up", 40'000'000, 1, 40'000'000));
  cancel.upsert(fp("down", -40'000'000, 1, -40'000'000));
  expect_matches_oracle(cancel);

  ProfileSnapshot spaced;
  spaced.upsert(fp("operator new(unsigned long)", 10'000'000, 0, 0));
  spaced.upsert(fp("std::map<int, int>::find(int const&)", 20'000, 3,
                   90'000));
  expect_matches_oracle(spaced);
}

TEST(FlatTextOracle, NegativeCounters) {
  // decode_binary accepts any int64, so untrusted dumps can carry them.
  ProfileSnapshot s;
  s.upsert(fp("neg_self", -1'500'000, 2, 1'000));
  s.upsert(fp("neg_calls", 30'000'000, -5, 30'000'000));
  s.upsert(fp("neg_inclusive", 10'000'000, 2, -20'000'000));
  s.upsert(fp("tiny_negative", -1, 1, -1));
  expect_matches_oracle(s);
}

TEST(FlatTextOracle, RowsLongerThanAPrintfBuffer) {
  ProfileSnapshot s;
  s.upsert(fp(std::string(300, 'x'), 10'000'000, 1, 10'000'000));
  s.upsert(fp("short", 1'000, 0, 1'000));
  expect_matches_oracle(s);
  const ProfileSnapshot back = parse_flat_profile(format_flat_profile(s));
  const FunctionProfile* row = back.find(std::string(300, 'x'));
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->calls, 1);
}

TEST(FlatTextOracle, SampleBanner) {
  for (const std::int64_t period :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{10'000'000},
        std::int64_t{-3}, std::int64_t{1} << 50}) {
    FlatTextOptions opts;
    opts.sample_period_ns = period;
    expect_matches_oracle(ProfileSnapshot{}, opts);
  }
}

}  // namespace
}  // namespace incprof::gmon
