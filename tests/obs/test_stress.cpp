// Concurrency stress regressions for the observability layer — the
// scenarios the TSan lane exists for, kept in the default suite at a
// size that finishes in well under a second. Setting INCPROF_SOAK=1
// multiplies the iteration counts so the TSanitize build can grind the
// same interleavings for much longer (the tsan CI job does exactly
// that).
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace incprof::obs {
namespace {

/// 1 normally, larger under the soak gate.
std::size_t soak_factor() {
  const char* gate = std::getenv("INCPROF_SOAK");
  return (gate != nullptr && *gate != '\0' && *gate != '0') ? 20 : 1;
}

// --- TraceBuffer: 8 writers vs concurrent exporters --------------------

// Writer w records spans whose name, start and duration all encode w,
// so a torn slot (fields from two writers mixed) is detectable in the
// exported events. The ring is deliberately tiny relative to the write
// volume: every slot is overwritten continuously while events() and
// export_chrome_json() run.
TEST(TraceStress, EightWritersWhileExporting) {
  static const char* const kNames[8] = {"w0", "w1", "w2", "w3",
                                        "w4", "w5", "w6", "w7"};
  TraceBuffer buffer(64);
  const std::size_t per_writer = 4000 * soak_factor();
  std::atomic<bool> stop{false};

  // The writers hold off until the exporter has finished one export,
  // so every run overlaps writes with exports (without the wait, fast
  // writers could finish before the exporter's first pass).
  std::atomic<std::size_t> exports{0};
  std::thread exporter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string json = buffer.export_chrome_json();
      EXPECT_NE(json.find("traceEvents"), std::string::npos);
      exports.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> writers;
  for (std::uint64_t w = 0; w < 8; ++w) {
    writers.emplace_back([&buffer, &exports, per_writer, w] {
      while (exports.load(std::memory_order_relaxed) == 0) {
        std::this_thread::yield();
      }
      for (std::size_t i = 0; i < per_writer; ++i) {
        const std::uint64_t stamp = w * 1'000'000'000ull + i;
        buffer.record(kNames[w], "stress", stamp, stamp);
      }
    });
  }

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const SpanEvent& ev : buffer.events()) {
        // Untorn slot: all three fields agree on the writer.
        const std::uint64_t w = ev.start_ns / 1'000'000'000ull;
        ASSERT_LT(w, 8u);
        EXPECT_STREQ(ev.name, kNames[w]);
        EXPECT_EQ(ev.duration_ns, ev.start_ns);
      }
    }
  });

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  exporter.join();
  reader.join();

  EXPECT_EQ(buffer.recorded(), 8u * per_writer);
  EXPECT_GT(exports.load(), 0u);
  const auto final_events = buffer.events();
  EXPECT_EQ(final_events.size(), buffer.capacity());
}

// --- MetricsRegistry: create-on-first-use vs scrapes --------------------

TEST(RegistryStress, ScrapeUnderContention) {
  MetricsRegistry registry;
  const std::size_t per_thread = 2000 * soak_factor();
  constexpr std::size_t kBumpers = 4;
  std::atomic<bool> stop{false};
  // One metric exists before the scraper starts, so every scrape has a
  // "# TYPE" line to find; an empty registry renders nothing at all.
  registry.counter("stress_shared");

  // Bumpers resolve metrics by name every iteration (hammering the
  // registry map lock) and bump them, including labeled families.
  std::vector<std::thread> bumpers;
  for (std::size_t b = 0; b < kBumpers; ++b) {
    bumpers.emplace_back([&registry, per_thread, b] {
      const std::string mine = "stress_counter_" + std::to_string(b);
      for (std::size_t i = 0; i < per_thread; ++i) {
        registry.counter(mine).add();
        registry.counter("stress_shared").add();
        registry.gauge("stress_gauge").set(static_cast<std::int64_t>(i));
        registry.histogram("stress_hist", {{"thread", mine}})
            .record(i);
      }
    });
  }

  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string text = registry.render_prometheus();
      EXPECT_NE(text.find("# TYPE"), std::string::npos);
      (void)registry.samples();
      (void)registry.histogram_snapshots();
    }
  });

  for (auto& t : bumpers) t.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_EQ(registry.counter_value("stress_shared"),
            kBumpers * per_thread);
  for (std::size_t b = 0; b < kBumpers; ++b) {
    EXPECT_EQ(registry.counter_value("stress_counter_" +
                                     std::to_string(b)),
              per_thread);
  }
}

// --- HTTP endpoint: concurrent scrapes vs stop() ------------------------

/// Best-effort GET: returns whatever arrived (possibly nothing when
/// stop() killed the connection mid-request). Never blocks forever —
/// the peer closes the socket on both the served and the killed path.
std::string best_effort_get(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  std::string out;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    const std::string req = "GET /healthz HTTP/1.1\r\n\r\n";
    (void)::send(fd, req.data(), req.size(), MSG_NOSIGNAL);
    char buf[512];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return out;
}

TEST(HttpStress, StopRacesInFlightClients) {
  const std::size_t rounds = 8 * soak_factor();
  MetricsRegistry registry;
  TraceBuffer buffer(64);
  for (std::size_t r = 0; r < rounds; ++r) {
    // Scrapers hammer the endpoint while it is torn down mid-flight:
    // stop() must join every worker it ever spawned, whether the
    // worker finished serving or was force-disconnected. (The old
    // implementation detach()ed these threads; a late one touching
    // freed endpoint state is exactly what the TSan lane flags.)
    HttpEndpoint endpoint(0, make_obs_handler(registry, buffer));
    ASSERT_GT(endpoint.port(), 0);
    std::vector<std::thread> scrapers;
    for (int c = 0; c < 4; ++c) {
      scrapers.emplace_back([port = endpoint.port()] {
        for (int i = 0; i < 8; ++i) (void)best_effort_get(port);
      });
    }
    endpoint.stop();
    for (auto& t : scrapers) t.join();
  }
}

}  // namespace
}  // namespace incprof::obs

namespace incprof::util {
namespace {

// --- util::log: sink swaps racing writers -------------------------------

TEST(LogStress, SinkSwapVsConcurrentWriters) {
  const std::size_t per_thread = 2000;
  const std::size_t swaps = 200;
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::kError);  // sinks still run; stderr stays quiet

  auto counted = std::make_shared<std::atomic<std::size_t>>(0);
  // Install a sink before spawning writers so none of the 8000 lines
  // lands on stderr via the default path.
  set_log_sink([](LogLevel, std::string_view) {});
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([per_thread] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        log_error("stress line");
      }
    });
  }
  // Main thread swaps the sink under the writers' feet: between a
  // counting sink and a no-op one. A writer mid-call keeps its own
  // shared_ptr copy, so a swapped-out sink may legally run once more
  // — but must never be destroyed mid-invocation.
  for (std::size_t s = 0; s < swaps; ++s) {
    set_log_sink([counted](LogLevel, std::string_view) {
      counted->fetch_add(1, std::memory_order_relaxed);
    });
    set_log_sink([](LogLevel, std::string_view) {});
  }
  set_log_sink([counted](LogLevel, std::string_view) {
    counted->fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& t : writers) t.join();

  // The counting sink is still installed: this line must land in it.
  log_error("final line");
  set_log_sink(nullptr);
  set_log_level(old_level);
  EXPECT_GT(counted->load(), 0u);
}

}  // namespace
}  // namespace incprof::util
