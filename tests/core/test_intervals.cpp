#include "core/intervals.hpp"

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <map>

namespace incprof::core {
namespace {

gmon::FunctionProfile fp(std::string name, std::int64_t self,
                         std::int64_t calls, std::int64_t incl = -1) {
  gmon::FunctionProfile p;
  p.name = std::move(name);
  p.self_ns = self;
  p.calls = calls;
  p.inclusive_ns = incl < 0 ? self : incl;
  return p;
}

std::vector<gmon::ProfileSnapshot> two_function_run() {
  // Cumulative dumps: f ramps first, g later.
  gmon::ProfileSnapshot s0(0, 1'000'000'000);
  s0.upsert(fp("f", 800'000'000, 2));
  gmon::ProfileSnapshot s1(1, 2'000'000'000);
  s1.upsert(fp("f", 1'000'000'000, 3));
  s1.upsert(fp("g", 700'000'000, 1, 900'000'000));
  gmon::ProfileSnapshot s2(2, 3'000'000'000);
  s2.upsert(fp("f", 1'000'000'000, 3));
  s2.upsert(fp("g", 1'600'000'000, 1, 2'000'000'000));
  return {s0, s1, s2};
}

TEST(IntervalData, EmptyInput) {
  const auto data = IntervalData::from_cumulative({});
  EXPECT_EQ(data.num_intervals(), 0u);
  EXPECT_EQ(data.num_functions(), 0u);
  EXPECT_EQ(data.total_self_seconds(), 0.0);
}

TEST(IntervalData, UniverseIsSortedUnionOfAllNames) {
  const auto data = IntervalData::from_cumulative(two_function_run());
  ASSERT_EQ(data.num_functions(), 2u);
  EXPECT_EQ(data.function_names()[0], "f");
  EXPECT_EQ(data.function_names()[1], "g");
  EXPECT_EQ(data.function_index("f"), 0);
  EXPECT_EQ(data.function_index("g"), 1);
  EXPECT_EQ(data.function_index("zzz"), -1);
}

TEST(IntervalData, FirstIntervalDifferencesAgainstZero) {
  const auto data = IntervalData::from_cumulative(two_function_run());
  EXPECT_DOUBLE_EQ(data.self_seconds().at(0, 0), 0.8);
  EXPECT_DOUBLE_EQ(data.calls().at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(data.self_seconds().at(0, 1), 0.0);  // g not yet seen
}

TEST(IntervalData, ConsecutiveDifferencing) {
  const auto data = IntervalData::from_cumulative(two_function_run());
  ASSERT_EQ(data.num_intervals(), 3u);
  // Interval 1: f grew 0.2s/1 call; g appeared with 0.7s.
  EXPECT_DOUBLE_EQ(data.self_seconds().at(1, 0), 0.2);
  EXPECT_DOUBLE_EQ(data.calls().at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(data.self_seconds().at(1, 1), 0.7);
  // Interval 2: f idle; g grew 0.9s.
  EXPECT_DOUBLE_EQ(data.self_seconds().at(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(data.self_seconds().at(2, 1), 0.9);
}

TEST(IntervalData, ChildrenSecondsFromInclusiveMinusSelf) {
  const auto data = IntervalData::from_cumulative(two_function_run());
  // g interval 1: inclusive 0.9 - self 0.7 = 0.2 children.
  EXPECT_DOUBLE_EQ(data.children_seconds().at(1, 1), 0.2);
  // g interval 2: delta inclusive 1.1 - delta self 0.9 = 0.2.
  EXPECT_DOUBLE_EQ(data.children_seconds().at(2, 1), 0.2);
}

TEST(IntervalData, ActivePredicate) {
  const auto data = IntervalData::from_cumulative(two_function_run());
  EXPECT_TRUE(data.active(0, 0));
  EXPECT_FALSE(data.active(0, 1));
  EXPECT_FALSE(data.active(2, 0));
  EXPECT_TRUE(data.active(2, 1));
}

TEST(IntervalData, TimestampsInSeconds) {
  const auto data = IntervalData::from_cumulative(two_function_run());
  EXPECT_EQ(data.timestamps_sec(),
            (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(IntervalData, TotalSelfSecondsSumsAllIntervals) {
  const auto data = IntervalData::from_cumulative(two_function_run());
  // 0.8 + (0.2 + 0.7) + 0.9 = 2.6 = last cumulative total.
  EXPECT_NEAR(data.total_self_seconds(), 2.6, 1e-12);
}

TEST(IntervalData, IdleIntervalIsAllZeroRow) {
  auto snaps = two_function_run();
  // Duplicate the final dump: a fully idle interval.
  gmon::ProfileSnapshot idle = snaps.back();
  idle.set_seq(3);
  idle.set_timestamp_ns(4'000'000'000);
  snaps.push_back(idle);
  const auto data = IntervalData::from_cumulative(snaps);
  ASSERT_EQ(data.num_intervals(), 4u);
  EXPECT_FALSE(data.active(3, 0));
  EXPECT_FALSE(data.active(3, 1));
}

TEST(IntervalData, ExtremeCountersSaturateInsteadOfWrapping) {
  // Untrusted dumps can carry any int64. A wrapped difference would turn
  // a counter reset into a huge positive delta.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  gmon::ProfileSnapshot s0(0, 1);
  s0.upsert({"f", kMax, kMax, -2});
  gmon::ProfileSnapshot s1(1, 2);
  s1.upsert({"f", kMin + 1, -5, kMax});
  const auto data = IntervalData::from_cumulative({s0, s1});
  // Interval 0: children = -2 - kMax, far below zero.
  EXPECT_EQ(data.children_seconds().at(0, 0), 0.0);
  // Interval 1: the self and call deltas are far below zero and clamp;
  // the inclusive delta saturates at kMax, so children is kMax - 0.
  EXPECT_EQ(data.self_seconds().at(1, 0), 0.0);
  EXPECT_EQ(data.calls().at(1, 0), 0.0);
  EXPECT_EQ(data.children_seconds().at(1, 0),
            static_cast<double>(kMax) / 1e9);
}

// The name-keyed differencing from_cumulative replaced, kept as its
// oracle: one gmon::difference snapshot per interval, then a per-name
// column lookup in a map over every name seen.
struct NameKeyed {
  std::vector<std::string> names;
  cluster::Matrix self_seconds;
  cluster::Matrix calls;
  cluster::Matrix children_seconds;
  std::vector<double> timestamps_sec;
};

NameKeyed name_keyed(const std::vector<gmon::ProfileSnapshot>& snapshots) {
  NameKeyed out;
  std::map<std::string, std::size_t> index;
  for (const auto& snap : snapshots) {
    for (const auto& f : snap.functions()) index.emplace(f.name, 0);
  }
  for (auto& [name, idx] : index) {
    idx = out.names.size();
    out.names.push_back(name);
  }
  const std::size_t n = snapshots.size();
  out.self_seconds = cluster::Matrix(n, index.size());
  out.calls = cluster::Matrix(n, index.size());
  out.children_seconds = cluster::Matrix(n, index.size());
  const gmon::ProfileSnapshot empty;
  for (std::size_t i = 0; i < n; ++i) {
    const gmon::ProfileSnapshot delta =
        gmon::difference(snapshots[i], i == 0 ? empty : snapshots[i - 1]);
    for (const auto& f : delta.functions()) {
      const std::size_t j = index.at(f.name);
      out.self_seconds.at(i, j) = static_cast<double>(f.self_ns) / 1e9;
      out.calls.at(i, j) = static_cast<double>(f.calls);
      const auto children = f.inclusive_ns - f.self_ns;
      out.children_seconds.at(i, j) =
          children > 0 ? static_cast<double>(children) / 1e9 : 0.0;
    }
    out.timestamps_sec.push_back(
        static_cast<double>(snapshots[i].timestamp_ns()) / 1e9);
  }
  return out;
}

void expect_bit_identical(const cluster::Matrix& got,
                          const cluster::Matrix& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.at(i, j)),
                std::bit_cast<std::uint64_t>(want.at(i, j)))
          << what << " at (" << i << ", " << j << "): " << got.at(i, j)
          << " vs " << want.at(i, j);
    }
  }
}

void expect_matches_name_keyed(
    const std::vector<gmon::ProfileSnapshot>& snaps,
    util::ThreadPool* pool = nullptr) {
  const IntervalData data = IntervalData::from_cumulative(snaps, pool);
  const NameKeyed want = name_keyed(snaps);
  ASSERT_EQ(data.function_names(), want.names);
  expect_bit_identical(data.self_seconds(), want.self_seconds, "self");
  expect_bit_identical(data.calls(), want.calls, "calls");
  expect_bit_identical(data.children_seconds(), want.children_seconds,
                       "children");
  ASSERT_EQ(data.timestamps_sec().size(), want.timestamps_sec.size());
  for (std::size_t i = 0; i < want.timestamps_sec.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(data.timestamps_sec()[i]),
              std::bit_cast<std::uint64_t>(want.timestamps_sec[i]));
  }
}

// A seeded cumulative dump stream with the irregularities real dump
// directories show: functions that first appear late, pruned dumps (a
// function missing from one dump and back in the next), counter resets,
// repeated timestamps, empty dumps and the odd negative counter. `rows`
// fixes the dump count (0 draws it from 1..60).
std::vector<gmon::ProfileSnapshot> random_stream(util::Rng& rng,
                                                 std::size_t rows = 0) {
  struct Counters {
    std::string name;
    std::size_t first_dump;
    std::int64_t self_ns = 0, calls = 0, inclusive_ns = 0;
  };
  const std::size_t n =
      rows != 0 ? rows : static_cast<std::size_t>(rng.next_in(1, 60));
  std::vector<Counters> fns(static_cast<std::size_t>(rng.next_in(1, 40)));
  for (std::size_t f = 0; f < fns.size(); ++f) {
    fns[f].name = (f % 5 == 0 ? "op new " : "fn_") + std::to_string(f);
    fns[f].first_dump = rng.next_below(4) == 0 ? rng.next_below(n) : 0;
  }
  std::vector<gmon::ProfileSnapshot> snaps;
  std::int64_t ts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || rng.next_below(5) != 0) ts += rng.next_in(1, 2'000'000'000);
    gmon::ProfileSnapshot snap(static_cast<std::uint32_t>(i), ts);
    const bool empty_dump = rng.next_below(12) == 0;
    for (auto& c : fns) {
      if (i < c.first_dump) continue;
      if (rng.next_below(15) == 0) {  // counter reset
        c.self_ns = rng.next_in(0, 1'000'000);
        c.calls = rng.next_in(0, 3);
        c.inclusive_ns = rng.next_in(0, 2'000'000);
      } else {
        const std::int64_t self = rng.next_in(0, 50'000'000);
        c.self_ns += self;
        c.calls += rng.next_in(0, 100);
        c.inclusive_ns += self + rng.next_in(0, 20'000'000);
      }
      if (rng.next_below(40) == 0) c.inclusive_ns = -c.inclusive_ns;
      if (empty_dump || rng.next_below(8) == 0) continue;  // pruned
      gmon::FunctionProfile f;
      f.name = c.name;
      f.self_ns = c.self_ns;
      f.calls = c.calls;
      f.inclusive_ns = c.inclusive_ns;
      snap.upsert(std::move(f));
    }
    snaps.push_back(std::move(snap));
  }
  return snaps;
}

TEST(IntervalDataOracle, SeededStreamsMatchNameKeyedDifferencing) {
  util::Rng rng(0xd1ff'0001);
  for (int s = 0; s < 300; ++s) {
    expect_matches_name_keyed(random_stream(rng));
    if (HasFailure()) return;
  }
}

// from_cumulative fills rows in fixed 64-row units on a pool, each unit
// recomputing the columns of the row before its first. Streams that end
// on each side of a unit boundary, pruned dumps included, must give the
// oracle's answer on the pool as well as serially.
TEST(IntervalDataOracle, PooledRowUnitsMatchAtEveryBoundary) {
  util::ThreadPool pool(3);
  util::Rng rng(0xd1ff'0002);
  for (const std::size_t rows : {1, 63, 64, 65, 129}) {
    for (int s = 0; s < 10; ++s) {
      const auto snaps = random_stream(rng, rows);
      expect_matches_name_keyed(snaps);
      expect_matches_name_keyed(snaps, &pool);
      if (HasFailure()) return;
    }
  }
}

TEST(IntervalDataOracle, PrunedDumpAndLateFunction) {
  // g is present at 0, pruned at 1, back at 2; h first appears at 3;
  // f resets at 3; 2 and 3 share a timestamp; 4 is empty.
  std::vector<gmon::ProfileSnapshot> snaps(5);
  const std::int64_t ts[] = {1, 2, 3, 3, 4};
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    snaps[i] = gmon::ProfileSnapshot(static_cast<std::uint32_t>(i), ts[i]);
  }
  snaps[0].upsert(fp("f", 100, 1));
  snaps[0].upsert(fp("g", 50, 1, 80));
  snaps[1].upsert(fp("f", 300, 2));
  snaps[2].upsert(fp("f", 400, 3));
  snaps[2].upsert(fp("g", 90, 2, 200));
  snaps[3].upsert(fp("f", 10, 1));
  snaps[3].upsert(fp("h", 70, 7));
  expect_matches_name_keyed(snaps);

  const auto data = IntervalData::from_cumulative(snaps);
  // g back after the pruned dump: raw cumulative counters, not a delta.
  EXPECT_DOUBLE_EQ(data.self_seconds().at(2, 1), 90e-9);
  // f's reset clamps to zero.
  EXPECT_DOUBLE_EQ(data.self_seconds().at(3, 0), 0.0);
  EXPECT_EQ(data.num_functions(), 3u);
}

}  // namespace
}  // namespace incprof::core
