#include "obs/metrics.hpp"

#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

namespace incprof::service {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::MetricsRegistry;

TEST(Metrics, CountersAccumulate) {
  MetricsRegistry reg;
  reg.counter("frames").add();
  reg.counter("frames").add(41);
  EXPECT_EQ(reg.counter_value("frames"), 42u);
  EXPECT_EQ(reg.counter_value("absent"), 0u);
}

TEST(Metrics, ReferencesStayStable) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hot_path");
  // Registering other metrics must not invalidate the reference.
  for (int i = 0; i < 100; ++i) {
    reg.counter("other_" + std::to_string(i));
  }
  c.add(7);
  EXPECT_EQ(reg.counter_value("hot_path"), 7u);
}

TEST(Metrics, GaugeSetAddAndHighWaterMark) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("queue_depth");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(reg.gauge_value("queue_depth"), 7);

  Gauge& hw = reg.gauge("max_depth");
  hw.record_max(5);
  hw.record_max(3);  // lower: ignored
  hw.record_max(9);
  EXPECT_EQ(hw.value(), 9);
}

TEST(Metrics, ConcurrentBumpsAreLossless) {
  MetricsRegistry reg;
  Counter& c = reg.counter("races");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, CsvDumpRoundTripsThroughUtilCsv) {
  MetricsRegistry reg;
  reg.counter("frames_received").add(100);
  reg.counter("frames_dropped").add(3);
  reg.gauge("active_sessions").set(8);

  std::ostringstream os;
  reg.write_csv(os);
  const util::CsvDocument doc = util::parse_csv(os.str());
  ASSERT_EQ(doc.header,
            (std::vector<std::string>{"metric", "kind", "value"}));
  ASSERT_EQ(doc.rows.size(), 3u);

  const int name_col = doc.column("metric");
  const int value_col = doc.column("value");
  bool saw_dropped = false;
  for (const auto& row : doc.rows) {
    if (row[static_cast<std::size_t>(name_col)] == "frames_dropped") {
      saw_dropped = true;
      EXPECT_EQ(row[static_cast<std::size_t>(value_col)], "3");
    }
  }
  EXPECT_TRUE(saw_dropped);
}

TEST(Metrics, SamplesAreSortedByName) {
  MetricsRegistry reg;
  reg.counter("zeta").add();
  reg.counter("alpha").add();
  reg.gauge("mid").set(1);
  const auto samples = reg.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "alpha");
  EXPECT_EQ(samples[1].name, "zeta");
  EXPECT_EQ(samples[2].name, "mid");  // gauges follow counters
}

}  // namespace
}  // namespace incprof::service
