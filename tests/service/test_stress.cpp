// Start/stop churn for the daemon core: the shutdown paths (worker
// drain, reaper wakeup, reader teardown) race live clients over and
// over. Small in the default suite; INCPROF_SOAK=1 multiplies the
// rounds for the TSanitize lane, which is where this test earns its
// keep — every join/drain ordering bug shows up as a TSan report, not
// a flake. Plus the long-lived-shard soak: connection churn must not
// grow the process.
#include "service/server.hpp"

#include "service/loopback.hpp"
#include "service/protocol.hpp"
#include "service/replay.hpp"
#include "service/tcp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "../core/synthetic.hpp"

namespace incprof::service {
namespace {

std::size_t soak_factor() {
  const char* gate = std::getenv("INCPROF_SOAK");
  return (gate != nullptr && *gate != '\0' && *gate != '0') ? 10 : 1;
}

TEST(ServerStress, StartStopChurnAgainstLiveClients) {
  const std::size_t rounds = 12 * soak_factor();
  for (std::size_t round = 0; round < rounds; ++round) {
    LoopbackHub hub;
    auto listener = hub.make_listener();
    ServerConfig cfg;
    cfg.worker_threads = 3;
    Server server(*listener, cfg);
    server.start();

    // Clients connect and race the imminent stop(): some complete the
    // handshake, some are cut off mid-exchange. Everything is
    // best-effort on the client side — the assertion is structural
    // (no deadlock, no double-join, TSan-clean), not protocol-level.
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&hub, c] {
        auto conn = hub.connect();
        if (!conn) return;
        HelloPayload hello;
        hello.client_name = "churn-" + std::to_string(c);
        if (conn->send(make_hello_frame(hello))) {
          (void)conn->receive();  // ack, or nullopt once stopped
        }
        conn->close();
      });
    }

    server.stop();
    hub.shutdown();
    for (auto& t : clients) t.join();

    // stop() drained every queue: whatever sessions were opened are
    // visible and consistent after the fact.
    EXPECT_LE(server.session_count(), 4u);
  }
}

TEST(ServerStress, StopIsIdempotentUnderConcurrency) {
  const std::size_t rounds = 6 * soak_factor();
  for (std::size_t round = 0; round < rounds; ++round) {
    LoopbackHub hub;
    auto listener = hub.make_listener();
    Server server(*listener);
    server.start();
    // Two racing stop() calls plus the destructor's implicit third:
    // exactly one must do the teardown, the others must return
    // without touching joined threads.
    std::thread racer([&server] { server.stop(); });
    server.stop();
    racer.join();
    hub.shutdown();
  }
}

std::size_t entries_in(const char* dir) {
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator(dir),
                    std::filesystem::directory_iterator()));
}

TEST(ServerStress, SequentialTcpSessionsKeepHandlersThreadsAndFdsFlat) {
  // A shard that lives for weeks serves one short session after
  // another. Each served connection must give back its reader thread,
  // its handler and its fd once it is done, so after warm-up the
  // process stays the same size however many sessions it has served.
  TcpListener listener(0);
  ServerConfig cfg;
  cfg.worker_threads = 2;
  Server server(listener, cfg);
  server.start();

  const auto snaps = core::testing::cumulative_from_intervals(
      {{{"f", {0.5, 1}}}, {{"f", {0.5, 1}}}, {{"g", {0.5, 1}}},
       {{"g", {0.5, 1}}}});
  const auto run = [&](std::size_t i) {
    auto conn = tcp_connect("127.0.0.1", listener.port());
    ReplayOptions opts;
    opts.client_name = "soak-" + std::to_string(i);
    const ReplayResult r = replay_session(*conn, snaps, opts);
    ASSERT_TRUE(r.ok) << r.error;
  };

  constexpr std::size_t kWarmup = 20;
  constexpr std::size_t kSessions = 300;
  for (std::size_t i = 0; i < kWarmup; ++i) run(i);
  const std::size_t fds = entries_in("/proc/self/fd");
  const std::size_t tasks = entries_in("/proc/self/task");
  std::size_t max_handlers = 0;
  std::size_t max_fds = 0;
  std::size_t max_tasks = 0;
  for (std::size_t i = kWarmup; i < kWarmup + kSessions; ++i) {
    run(i);
    max_handlers = std::max(max_handlers, server.handler_count());
    max_fds = std::max(max_fds, entries_in("/proc/self/fd"));
    max_tasks = std::max(max_tasks, entries_in("/proc/self/task"));
  }
  // The last connection's handler lives until the next accept reaps it,
  // and a reader preempted between its bye and its retirement is reaped
  // one accept later; on a loaded host that is a few, never hundreds.
  EXPECT_LE(max_handlers, 4u);
  EXPECT_LE(max_fds, fds + 6);
  EXPECT_LE(max_tasks, tasks + 4);

  server.stop();
  // Closed sessions stay on the books; only their connections go.
  EXPECT_EQ(server.session_count(), kWarmup + kSessions);
  EXPECT_EQ(server.metrics().counter_value("snapshots_observed"),
            (kWarmup + kSessions) * snaps.size());
}

}  // namespace
}  // namespace incprof::service
