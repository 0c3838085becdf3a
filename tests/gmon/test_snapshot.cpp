#include "gmon/snapshot.hpp"

#include "gmon/flat_text.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace incprof::gmon {
namespace {

FunctionProfile fp(std::string name, std::int64_t self, std::int64_t calls,
                   std::int64_t incl = 0) {
  FunctionProfile p;
  p.name = std::move(name);
  p.self_ns = self;
  p.calls = calls;
  p.inclusive_ns = incl ? incl : self;
  return p;
}

TEST(Snapshot, UpsertKeepsNamesSorted) {
  ProfileSnapshot s;
  s.upsert(fp("zeta", 1, 1));
  s.upsert(fp("alpha", 2, 2));
  s.upsert(fp("mid", 3, 3));
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.functions()[0].name, "alpha");
  EXPECT_EQ(s.functions()[1].name, "mid");
  EXPECT_EQ(s.functions()[2].name, "zeta");
}

TEST(Snapshot, UpsertOverwritesExisting) {
  ProfileSnapshot s;
  s.upsert(fp("f", 10, 1));
  s.upsert(fp("f", 20, 2));
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.functions()[0].self_ns, 20);
  EXPECT_EQ(s.functions()[0].calls, 2);
}

TEST(Snapshot, FindByName) {
  ProfileSnapshot s;
  s.upsert(fp("run_bfs", 5, 1));
  ASSERT_NE(s.find("run_bfs"), nullptr);
  EXPECT_EQ(s.find("run_bfs")->self_ns, 5);
  EXPECT_EQ(s.find("missing"), nullptr);
  EXPECT_EQ(s.find(""), nullptr);
}

TEST(Snapshot, TotalSelfNs) {
  ProfileSnapshot s;
  s.upsert(fp("a", 100, 1));
  s.upsert(fp("b", 250, 1));
  EXPECT_EQ(s.total_self_ns(), 350);
  EXPECT_EQ(ProfileSnapshot().total_self_ns(), 0);
}

TEST(Snapshot, TotalSelfNsSaturatesAtTheExtremes) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  ProfileSnapshot high;
  high.upsert(fp("a", kMax, 1));
  high.upsert(fp("b", kMax, 1));
  EXPECT_EQ(high.total_self_ns(), kMax);
  // The text path sums through it: formatting must not overflow either.
  EXPECT_NE(format_flat_profile(high).find("  a\n"), std::string::npos);

  ProfileSnapshot low;
  low.upsert(fp("a", kMin, 1));
  low.upsert(fp("b", kMin, 1));
  EXPECT_EQ(low.total_self_ns(), kMin);

  // Name order: a and b saturate, then c steps back down.
  ProfileSnapshot mixed;
  mixed.upsert(fp("a", kMax, 1));
  mixed.upsert(fp("b", 7, 1));
  mixed.upsert(fp("c", -5, 1));
  EXPECT_EQ(mixed.total_self_ns(), kMax - 5);
}

TEST(Snapshot, SeqAndTimestampCarried) {
  ProfileSnapshot s(7, 123456789);
  EXPECT_EQ(s.seq(), 7u);
  EXPECT_EQ(s.timestamp_ns(), 123456789);
  s.set_seq(9);
  s.set_timestamp_ns(42);
  EXPECT_EQ(s.seq(), 9u);
  EXPECT_EQ(s.timestamp_ns(), 42);
}

TEST(Difference, SubtractsPerFunction) {
  ProfileSnapshot prev(0, 1000);
  prev.upsert(fp("f", 100, 2, 150));
  ProfileSnapshot cur(1, 2000);
  cur.upsert(fp("f", 175, 5, 250));

  const ProfileSnapshot d = difference(cur, prev);
  EXPECT_EQ(d.seq(), 1u);
  EXPECT_EQ(d.timestamp_ns(), 2000);
  ASSERT_NE(d.find("f"), nullptr);
  EXPECT_EQ(d.find("f")->self_ns, 75);
  EXPECT_EQ(d.find("f")->calls, 3);
  EXPECT_EQ(d.find("f")->inclusive_ns, 100);
}

TEST(Difference, NewFunctionDifferencesAgainstZero) {
  ProfileSnapshot prev(0, 0);
  ProfileSnapshot cur(1, 10);
  cur.upsert(fp("fresh", 40, 4));
  const ProfileSnapshot d = difference(cur, prev);
  EXPECT_EQ(d.find("fresh")->self_ns, 40);
  EXPECT_EQ(d.find("fresh")->calls, 4);
}

TEST(Difference, NegativeDeltasClampToZero) {
  // Counter regressions (shouldn't happen with a monotone profiler, but
  // the analysis must stay well-formed if a dump is corrupt).
  ProfileSnapshot prev(0, 0);
  prev.upsert(fp("f", 100, 10));
  ProfileSnapshot cur(1, 10);
  cur.upsert(fp("f", 50, 5));
  const ProfileSnapshot d = difference(cur, prev);
  EXPECT_EQ(d.find("f")->self_ns, 0);
  EXPECT_EQ(d.find("f")->calls, 0);
}

TEST(Difference, FunctionOnlyInPrevIsDropped) {
  // gprof dumps are cumulative: a function can never vanish. If one
  // does, the differenced interval simply has no row for it.
  ProfileSnapshot prev(0, 0);
  prev.upsert(fp("gone", 10, 1));
  ProfileSnapshot cur(1, 10);
  cur.upsert(fp("kept", 5, 1));
  const ProfileSnapshot d = difference(cur, prev);
  EXPECT_EQ(d.find("gone"), nullptr);
  EXPECT_NE(d.find("kept"), nullptr);
}

TEST(Difference, IdenticalSnapshotsGiveAllZeroDeltas) {
  ProfileSnapshot a(3, 100);
  a.upsert(fp("f", 10, 2));
  const ProfileSnapshot d = difference(a, a);
  EXPECT_EQ(d.find("f")->self_ns, 0);
  EXPECT_EQ(d.find("f")->calls, 0);
}

TEST(DifferenceInto, MatchesDifferenceOnInterleavedNames) {
  // Names unique to cur, unique to prev, and shared — the merge-walk
  // must line up counterparts exactly as the allocating overload does.
  ProfileSnapshot prev(0, 1000);
  prev.upsert(fp("bravo", 10, 1));
  prev.upsert(fp("charlie", 20, 2));
  prev.upsert(fp("delta", 30, 3));
  ProfileSnapshot cur(1, 2000);
  cur.upsert(fp("alpha", 5, 1));
  cur.upsert(fp("charlie", 45, 6));
  cur.upsert(fp("echo", 7, 2));

  ProfileSnapshot out;
  difference_into(cur, prev, out);
  const ProfileSnapshot ref = difference(cur, prev);
  EXPECT_EQ(out.seq(), ref.seq());
  EXPECT_EQ(out.timestamp_ns(), ref.timestamp_ns());
  ASSERT_EQ(out.size(), ref.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.functions()[i].name, ref.functions()[i].name);
    EXPECT_EQ(out.functions()[i].self_ns, ref.functions()[i].self_ns);
    EXPECT_EQ(out.functions()[i].calls, ref.functions()[i].calls);
    EXPECT_EQ(out.functions()[i].inclusive_ns,
              ref.functions()[i].inclusive_ns);
  }
  EXPECT_EQ(out.find("charlie")->self_ns, 25);
  EXPECT_EQ(out.find("delta"), nullptr);
}

TEST(DifferenceInto, ReusesOutputStorageAcrossCalls) {
  ProfileSnapshot prev(0, 0);
  prev.upsert(fp("f", 10, 1));
  prev.upsert(fp("g", 20, 2));
  ProfileSnapshot cur(1, 10);
  cur.upsert(fp("f", 30, 3));
  cur.upsert(fp("g", 50, 5));

  ProfileSnapshot out;
  difference_into(cur, prev, out);
  const FunctionProfile* const stable = out.functions().data();
  ProfileSnapshot cur2(2, 20);
  cur2.upsert(fp("f", 100, 7));
  cur2.upsert(fp("g", 90, 9));
  difference_into(cur2, cur, out);
  // Same element count: the second call must not reallocate the vector.
  EXPECT_EQ(out.functions().data(), stable);
  EXPECT_EQ(out.seq(), 2u);
  EXPECT_EQ(out.find("f")->self_ns, 70);
  EXPECT_EQ(out.find("g")->self_ns, 40);
}

TEST(DifferenceInto, OverwritesStaleRowsWhenOutputShrinks) {
  ProfileSnapshot prev(0, 0);
  ProfileSnapshot big(1, 10);
  big.upsert(fp("a", 1, 1));
  big.upsert(fp("b", 2, 2));
  big.upsert(fp("c", 3, 3));
  ProfileSnapshot out;
  difference_into(big, prev, out);
  ASSERT_EQ(out.size(), 3u);

  ProfileSnapshot small(2, 20);
  small.upsert(fp("b", 5, 4));
  difference_into(small, big, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.functions()[0].name, "b");
  EXPECT_EQ(out.functions()[0].self_ns, 3);
  EXPECT_EQ(out.find("a"), nullptr);
  EXPECT_EQ(out.find("c"), nullptr);
}

}  // namespace
}  // namespace incprof::gmon
