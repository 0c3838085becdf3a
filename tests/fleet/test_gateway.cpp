// The gateway against real Servers over loopback transports: fresh
// sessions spread across shards by consistent hash, the merged fleet
// view equals the per-shard sum, drains migrate sessions without loss,
// and the obs handler reports per-shard liveness. The aggregator is
// driven by hand (pull_period = 0 + poll_once()) so every assertion is
// deterministic.
#include "fleet/gateway.hpp"

#include "core/online.hpp"
#include "service/faults.hpp"
#include "service/loopback.hpp"
#include "service/replay.hpp"
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "../core/synthetic.hpp"

namespace incprof::fleet {
namespace {

using service::LoopbackHub;
using service::ReplayOptions;
using service::ReplayResult;
using service::Server;
using service::ServerConfig;

std::vector<gmon::ProfileSnapshot> synthetic_stream(std::size_t index) {
  auto specs = core::testing::three_phase_workload(6 + index % 5);
  for (auto& spec : specs) {
    for (auto& [name, sc] : spec) {
      sc.first *= 1.0 + 0.05 * static_cast<double>(index);
    }
  }
  return core::testing::cumulative_from_intervals(specs);
}

bool wait_for(const std::function<bool()>& pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// One in-process shard: hub + listener + server with a shard id.
struct Shard {
  explicit Shard(std::uint32_t id, ServerConfig cfg = {}) {
    cfg.shard_id = id;
    listener = hub.make_listener();
    server = std::make_unique<Server>(*listener, cfg);
    server->start();
  }
  LoopbackHub hub;
  std::unique_ptr<service::Listener> listener;
  std::unique_ptr<Server> server;
};

GatewayConfig manual_poll_config() {
  GatewayConfig cfg;
  cfg.pull_period = std::chrono::milliseconds(0);  // tests poll by hand
  cfg.pull_timeout = std::chrono::milliseconds(2000);
  return cfg;
}

TEST(Gateway, SpreadsFreshSessionsAndMergedViewEqualsSum) {
  constexpr std::size_t kShards = 3;
  constexpr std::size_t kSessions = 24;
  std::vector<std::unique_ptr<Shard>> shards;
  for (std::uint32_t s = 1; s <= kShards; ++s) {
    shards.push_back(std::make_unique<Shard>(s));
  }

  LoopbackHub front;
  auto front_listener = front.make_listener();
  Gateway gateway(*front_listener, manual_poll_config());
  for (std::uint32_t s = 1; s <= kShards; ++s) {
    gateway.add_shard(s,
                      [&shards, s] { return shards[s - 1]->hub.connect(); });
  }
  gateway.start();

  std::vector<std::vector<gmon::ProfileSnapshot>> streams(kSessions);
  std::vector<ReplayResult> results(kSessions);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kSessions; ++i) {
    streams[i] = synthetic_stream(i);
    clients.emplace_back([&, i] {
      ReplayOptions opts;
      opts.client_name = "fleet-" + std::to_string(i);
      opts.subscribe_events = true;
      auto conn = front.connect();
      ASSERT_NE(conn, nullptr);
      results[i] = service::replay_session(*conn, streams[i], opts);
    });
  }
  for (auto& t : clients) t.join();

  std::size_t expected_intervals = 0;
  for (const auto& s : streams) expected_intervals += s.size();

  // Every client saw its bye acknowledged by EOF, but the shard workers
  // may still be folding the tail; wait for the per-shard truth to
  // settle, then pull the merged view while everything is still up.
  ASSERT_TRUE(wait_for([&] {
    std::size_t total = 0;
    for (const auto& shard : shards) {
      total += shard->server->shard_state().total_intervals;
    }
    return total == expected_intervals;
  }));
  gateway.poll_once();
  const FleetView view = gateway.view();
  gateway.stop();
  for (auto& shard : shards) shard->server->stop();

  std::size_t routed_total = 0;
  std::size_t shards_used = 0;
  std::uint64_t per_shard_intervals = 0;
  std::uint64_t per_shard_transitions = 0;
  for (std::uint32_t s = 1; s <= kShards; ++s) {
    const std::uint64_t routed = gateway.metrics().counter_value(
        "sessions_routed{shard=\"" + std::to_string(s) + "\"}");
    routed_total += routed;
    if (routed > 0) ++shards_used;
    const auto state = shards[s - 1]->server->shard_state();
    per_shard_intervals += state.total_intervals;
    per_shard_transitions += state.total_transitions;
    // Session-id partitioning: every session this shard opened carries
    // its shard id, so resume routing needs no table.
    for (const auto& row : state.sessions) {
      EXPECT_EQ(service::session_id_shard(row.id), s);
    }
  }
  EXPECT_EQ(routed_total, kSessions);
  // 24 names over 3 shards: consistent hashing must actually spread.
  EXPECT_GE(shards_used, 2u);

  for (std::size_t i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(results[i].ok) << "session " << i << ": "
                               << results[i].error;
    EXPECT_EQ(results[i].events.size(), streams[i].size()) << i;
  }

  // The acceptance identity: merged fleet counts == sum of shards ==
  // what the clients sent.
  EXPECT_EQ(view.merged.total_intervals, expected_intervals);
  EXPECT_EQ(view.merged.total_intervals, per_shard_intervals);
  EXPECT_EQ(view.merged.total_transitions, per_shard_transitions);
  EXPECT_EQ(view.merged.sessions.size(), kSessions);
  EXPECT_EQ(view.merged.open_sessions, 0u);
  std::uint64_t hist_total = 0;
  for (const std::uint64_t n : view.merged.phase_count_histogram) {
    hist_total += n;
  }
  EXPECT_EQ(hist_total, kSessions);  // every closed session binned once
}

TEST(Gateway, MergedMetricsDeclareATypeForEveryFamily) {
  Shard shard(1);
  LoopbackHub front;
  auto front_listener = front.make_listener();
  Gateway gateway(*front_listener, manual_poll_config());
  gateway.add_shard(1, [&shard] { return shard.hub.connect(); });
  gateway.start();

  // One real session so the shard's stage histograms have samples and
  // surface in the merged exposition.
  auto conn = front.connect();
  ReplayOptions opts;
  opts.client_name = "typed";
  const auto result =
      service::replay_session(*conn, synthetic_stream(0), opts);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(wait_for([&] {
    return shard.server->shard_state().total_intervals ==
           synthetic_stream(0).size();
  }));
  gateway.poll_once();

  const auto resp = gateway.http_handler()("/metrics");
  EXPECT_NE(resp.body.find("# TYPE fleet_frame_stage_ns_count counter"),
            std::string::npos);
  EXPECT_NE(resp.body.find("# TYPE fleet_frame_stage_ns_max gauge"),
            std::string::npos);

  // Lint the whole exposition: strict scrapers reject any series whose
  // family lacks a # TYPE declaration. A histogram declaration for `x`
  // covers `x_bucket`/`x_sum`/`x_count` per the exposition format.
  std::set<std::string> declared;
  std::istringstream decl_lines(resp.body);
  std::string line;
  while (std::getline(decl_lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const std::string rest = line.substr(7);
    declared.insert(rest.substr(0, rest.find(' ')));
  }
  const auto is_declared = [&declared](const std::string& family) {
    if (declared.count(family)) return true;
    for (const char* suffix : {"_bucket", "_sum", "_count", "_max"}) {
      const std::string s = suffix;
      if (family.size() > s.size() &&
          family.compare(family.size() - s.size(), s.size(), s) == 0 &&
          declared.count(family.substr(0, family.size() - s.size()))) {
        return true;
      }
    }
    return false;
  };
  std::istringstream series_lines(resp.body);
  while (std::getline(series_lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::string family = line.substr(0, line.find_first_of("{ "));
    EXPECT_TRUE(is_declared(family)) << "undeclared family: " << family;
  }
  gateway.stop();
  shard.server->stop();
}

TEST(Gateway, HostileClientNamesDoNotPoisonTheAggregatorPull) {
  // An empty or newline-bearing client name used to make the shard's
  // encoded state undecodable (short row / injected rows); the gateway
  // treated the decode throw as a pull failure and ejected the healthy
  // shard from the ring.
  Shard shard(1);
  LoopbackHub front;
  auto front_listener = front.make_listener();
  Gateway gateway(*front_listener, manual_poll_config());
  gateway.add_shard(1, [&shard] { return shard.hub.connect(); });
  gateway.start();

  std::size_t expected_intervals = 0;
  for (const std::string name : {"", "evil\ntotals 9 9 9"}) {
    auto conn = front.connect();
    ReplayOptions opts;
    opts.client_name = name;
    const auto result =
        service::replay_session(*conn, synthetic_stream(0), opts);
    ASSERT_TRUE(result.ok) << result.error;
    expected_intervals += synthetic_stream(0).size();
  }
  ASSERT_TRUE(wait_for([&] {
    return shard.server->shard_state().total_intervals == expected_intervals;
  }));

  gateway.poll_once();
  const FleetView v = gateway.view();
  ASSERT_EQ(v.shards.size(), 1u);
  EXPECT_TRUE(v.shards[0].alive);
  EXPECT_EQ(v.shards[0].pull_failures, 0u);
  ASSERT_EQ(v.merged.sessions.size(), 2u);
  EXPECT_EQ(v.merged.total_intervals, expected_intervals);
  for (const auto& row : v.merged.sessions) {
    EXPECT_EQ(row.client_name.find('\n'), std::string::npos);
    EXPECT_FALSE(row.client_name.empty());
  }
  gateway.stop();
  shard.server->stop();
}

TEST(Gateway, HonorsConfiguredVnodesPerShard) {
  Shard shard1(1);
  Shard shard2(2);

  GatewayConfig cfg = manual_poll_config();
  cfg.vnodes_per_shard = 1;  // deliberately non-default
  LoopbackHub front;
  auto front_listener = front.make_listener();
  Gateway gateway(*front_listener, cfg);
  gateway.add_shard(1, [&shard1] { return shard1.hub.connect(); });
  gateway.add_shard(2, [&shard2] { return shard2.hub.connect(); });
  gateway.start();

  // The gateway's placements must match a reference ring built with the
  // configured vnode count — not the default one (the ring is
  // deterministic, so exact owners are assertable).
  HashRing configured(1);
  configured.add_shard(1);
  configured.add_shard(2);
  HashRing fallback;  // kDefaultVnodesPerShard
  fallback.add_shard(1);
  fallback.add_shard(2);

  bool rings_disagree_somewhere = false;
  for (std::size_t i = 0; i < 16; ++i) {
    const std::string name = "vnode-client-" + std::to_string(i);
    auto conn = front.connect();
    ReplayOptions opts;
    opts.client_name = name;
    const auto result =
        service::replay_session(*conn, synthetic_stream(i), opts);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(service::session_id_shard(result.session_id),
              *configured.owner(name))
        << name;
    if (configured.owner(name) != fallback.owner(name)) {
      rings_disagree_somewhere = true;
    }
  }
  // The assertions above are only meaningful if a 1-vnode ring actually
  // places some probed name differently from the default ring.
  EXPECT_TRUE(rings_disagree_somewhere);
  gateway.stop();
  shard1.server->stop();
  shard2.server->stop();
}

TEST(Gateway, RejectsNonHelloFirstFrames) {
  Shard shard(1);
  LoopbackHub front;
  auto front_listener = front.make_listener();
  Gateway gateway(*front_listener, manual_poll_config());
  gateway.add_shard(1, [&shard] { return shard.hub.connect(); });
  gateway.start();

  auto conn = front.connect();
  ASSERT_TRUE(conn->send(service::make_bye_frame(0)));
  const auto reply = conn->receive();
  ASSERT_TRUE(reply.has_value());
  const auto frame = service::decode_frame(*reply);
  ASSERT_EQ(frame.type, service::FrameType::kProtocolError);
  EXPECT_EQ(service::decode_protocol_error(frame.payload).code,
            service::ProtocolErrorCode::kUnexpectedFrame);
  EXPECT_EQ(conn->receive(), std::nullopt);
  gateway.stop();
  shard.server->stop();
  EXPECT_EQ(gateway.metrics().counter_value("front_rejects"), 1u);
}

TEST(Gateway, ResumeRoutesToTheOwningShardById) {
  Shard shard1(1);
  ServerConfig graceful;
  graceful.resume_grace = std::chrono::milliseconds(5000);
  Shard shard2(2, graceful);

  LoopbackHub front;
  auto front_listener = front.make_listener();
  Gateway gateway(*front_listener, manual_poll_config());
  gateway.add_shard(1, [&shard1] { return shard1.hub.connect(); });
  gateway.add_shard(2, [&shard2] { return shard2.hub.connect(); });
  gateway.start();

  // Open a session directly on shard 2, then vanish: it detaches.
  auto direct = shard2.hub.connect();
  service::HelloPayload hello;
  hello.client_name = "migrant";
  ASSERT_TRUE(direct->send(service::make_hello_frame(hello)));
  const auto ack_bytes = direct->receive();
  ASSERT_TRUE(ack_bytes.has_value());
  const std::uint32_t id =
      service::decode_hello_ack(service::decode_frame(*ack_bytes).payload)
          .session_id;
  EXPECT_EQ(service::session_id_shard(id), 2u);
  direct->close();
  ASSERT_TRUE(wait_for([&] {
    return shard2.server->metrics().counter_value("sessions_detached") == 1;
  }));

  // Resume through the gateway: the id alone names shard 2.
  auto conn = front.connect();
  service::HelloPayload resume;
  resume.client_name = "migrant";
  resume.resume_session_id = id;
  ASSERT_TRUE(conn->send(service::make_hello_frame(resume)));
  const auto bytes = conn->receive();
  ASSERT_TRUE(bytes.has_value());
  const auto frame = service::decode_frame(*bytes);
  ASSERT_EQ(frame.type, service::FrameType::kHelloAck);
  const auto ack = service::decode_hello_ack(frame.payload);
  EXPECT_EQ(ack.session_id, id);
  EXPECT_EQ(ack.resume_next_interval, 0u);  // nothing sent yet
  ASSERT_TRUE(conn->send(service::make_bye_frame(id)));
  while (conn->receive()) {
  }

  gateway.stop();
  shard1.server->stop();
  shard2.server->stop();
  EXPECT_EQ(gateway.metrics().counter_value("resumes_routed"), 1u);
  EXPECT_EQ(shard2.server->metrics().counter_value("reconnects"), 1u);
  EXPECT_EQ(shard1.server->metrics().counter_value("sessions_opened"), 0u);
}

TEST(Gateway, ResumeToUnknownShardGetsUnknownSessionFromGateway) {
  Shard shard(1);
  LoopbackHub front;
  auto front_listener = front.make_listener();
  Gateway gateway(*front_listener, manual_poll_config());
  gateway.add_shard(1, [&shard] { return shard.hub.connect(); });
  gateway.start();

  auto conn = front.connect();
  service::HelloPayload resume;
  resume.client_name = "orphan";
  // A session id whose owner (shard 9) was never registered.
  resume.resume_session_id = service::first_session_id_for_shard(9);
  ASSERT_TRUE(conn->send(service::make_hello_frame(resume)));
  const auto bytes = conn->receive();
  ASSERT_TRUE(bytes.has_value());
  const auto frame = service::decode_frame(*bytes);
  ASSERT_EQ(frame.type, service::FrameType::kProtocolError);
  EXPECT_EQ(service::decode_protocol_error(frame.payload).code,
            service::ProtocolErrorCode::kUnknownSession);
  EXPECT_EQ(conn->receive(), std::nullopt);
  gateway.stop();
  shard.server->stop();
  EXPECT_EQ(gateway.metrics().counter_value("resumes_rerouted"), 1u);
}

// The migration guarantee, made deterministic: every session starts on
// shard 1 (the only ring member), is held mid-stream by injected frame
// delays, then shard 2 joins and shard 1 is drained. The drain closes
// every attached connection; each client resumes through the gateway,
// is refused (owner draining), falls back to a fresh session, and
// replays its complete stream on shard 2 — nothing lost.
TEST(Gateway, DrainMigratesEverySessionToTheSurvivor) {
  ServerConfig cfg;
  cfg.resume_grace = std::chrono::milliseconds(3000);
  Shard shard1(1, cfg);
  Shard shard2(2, cfg);

  LoopbackHub front;
  auto front_listener = front.make_listener();
  Gateway gateway(*front_listener, manual_poll_config());
  gateway.add_shard(1, [&shard1] { return shard1.hub.connect(); });
  gateway.start();

  // Delay every post-hello frame of the first connection, so no
  // session can finish before the drain lands.
  service::FaultPlan slow;
  for (std::size_t f = 1; f <= 32; ++f) {
    slow.events.push_back({f, service::FaultKind::kDelay});
  }

  constexpr std::size_t kSessions = 4;
  std::vector<std::vector<gmon::ProfileSnapshot>> streams(kSessions);
  std::vector<ReplayResult> results(kSessions);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kSessions; ++i) {
    streams[i] = synthetic_stream(i);
    clients.emplace_back([&, i] {
      ReplayOptions opts;
      opts.client_name = "drainee-" + std::to_string(i);
      service::RetryPolicy policy;
      policy.max_attempts = 8;
      policy.initial_backoff = std::chrono::milliseconds(10);
      policy.seed = 42 + i;
      bool first = true;
      results[i] = service::replay_session_resilient(
          [&front, &slow, &first]() -> std::unique_ptr<service::Connection> {
            auto conn = front.connect();
            if (!conn) return nullptr;
            if (first) {
              first = false;
              return std::make_unique<service::FaultInjectingConnection>(
                  std::move(conn), slow, std::chrono::milliseconds(30));
            }
            return conn;
          },
          streams[i], opts, policy);
    });
  }

  // All sessions attached to shard 1 and mid-stream: bring up the
  // survivor, then drain.
  ASSERT_TRUE(wait_for([&] {
    return shard1.server->metrics().counter_value("sessions_opened") ==
           kSessions;
  }));
  gateway.add_shard(2, [&shard2] { return shard2.hub.connect(); });
  const std::uint32_t closed = gateway.drain_shard(1);
  EXPECT_EQ(closed, kSessions);
  for (auto& t : clients) t.join();

  for (std::size_t i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(results[i].ok) << "session " << i << ": "
                               << results[i].error;
    EXPECT_EQ(results[i].snapshots_sent, streams[i].size()) << i;
    // Post-drain, every session lives on the survivor.
    EXPECT_EQ(service::session_id_shard(results[i].session_id), 2u) << i;
  }
  // Each client tried to resume exactly once and was redirected into a
  // fresh session by the gateway answering for the draining owner.
  EXPECT_EQ(gateway.metrics().counter_value("resumes_rerouted"), kSessions);
  EXPECT_TRUE(shard1.server->draining());

  // No interval was lost: the survivor holds every stream in full.
  shard2.server->stop();
  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_EQ(
        shard2.server->session_assignments(results[i].session_id).size(),
        streams[i].size())
        << i;
  }

  // The drained shard self-reports draining on the next pull.
  gateway.poll_once();
  const FleetView view = gateway.view();
  for (const auto& s : view.shards) {
    EXPECT_EQ(s.draining, s.id == 1) << "shard " << s.id;
  }
  gateway.stop();
  shard1.server->stop();
}

TEST(Gateway, PollMarksDeadShardsAndHealthzReports) {
  Shard live(1);
  Shard dead(2);

  LoopbackHub front;
  auto front_listener = front.make_listener();
  Gateway gateway(*front_listener, manual_poll_config());
  gateway.add_shard(1, [&live] { return live.hub.connect(); });
  gateway.add_shard(2, [&dead] { return dead.hub.connect(); });
  gateway.start();

  auto handler = gateway.http_handler();
  {
    const auto resp = handler("/healthz");
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("ok\n"), std::string::npos);
    EXPECT_NE(resp.body.find("shard 1 up"), std::string::npos);
    EXPECT_NE(resp.body.find("shard 2 up"), std::string::npos);
  }

  // Kill shard 2 outright (its hub now refuses connections); the next
  // pull must mark it down and route around it.
  dead.server->stop();
  dead.hub.shutdown();
  gateway.poll_once();
  {
    const auto resp = handler("/healthz");
    EXPECT_EQ(resp.status, 503);
    EXPECT_NE(resp.body.find("degraded\n"), std::string::npos);
    EXPECT_NE(resp.body.find("shard 2 down"), std::string::npos);
    EXPECT_NE(resp.body.find("shard 1 up"), std::string::npos);
  }
  {
    const auto resp = handler("/metrics");
    EXPECT_NE(resp.body.find("fleet_shards 2"), std::string::npos);
    EXPECT_NE(resp.body.find("fleet_shards_alive 1"), std::string::npos);
    EXPECT_NE(resp.body.find("fleet_shard_up{shard=\"2\"} 0"),
              std::string::npos);
  }
  {
    const auto resp = handler("/fleet.json");
    EXPECT_EQ(resp.content_type, "application/json");
    EXPECT_NE(resp.body.find("\"id\":2,\"alive\":false"), std::string::npos);
  }
  {
    const auto resp = handler("/nope");
    EXPECT_EQ(resp.status, 404);
  }

  // Fresh sessions keep flowing to the survivor.
  auto conn = front.connect();
  ReplayOptions opts;
  opts.client_name = "after-death";
  const auto result =
      service::replay_session(*conn, synthetic_stream(0), opts);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(service::session_id_shard(result.session_id), 1u);

  gateway.stop();
  live.server->stop();
}

// The stale-but-not-dead satellite: before any pull a shard reports
// never_pulled; after a successful pull both /healthz and /fleet.json
// carry the age of that pull, so a shard whose data stopped advancing
// is visible even while its probes still succeed.
TEST(Gateway, HealthzAndFleetJsonReportPullAge) {
  Shard shard(1);
  LoopbackHub front;
  auto front_listener = front.make_listener();
  Gateway gateway(*front_listener, manual_poll_config());
  gateway.add_shard(1, [&shard] { return shard.hub.connect(); });

  // Before the first pull (start() primes the view with one) the shard
  // honestly reports that no state has ever been fetched.
  auto handler = gateway.http_handler();
  {
    const auto resp = handler("/healthz");
    EXPECT_NE(resp.body.find("shard 1 up never_pulled"), std::string::npos);
  }
  {
    const auto resp = handler("/fleet.json");
    EXPECT_NE(resp.body.find("\"last_pull_age_ms\":null"),
              std::string::npos);
  }

  gateway.start();
  {
    const FleetView view = gateway.view();
    ASSERT_EQ(view.shards.size(), 1u);
    EXPECT_TRUE(view.shards[0].ever_pulled);
    // A fresh pull is young: well under a second on any machine.
    EXPECT_LT(view.shards[0].last_pull_age_ns, 60'000'000'000ull);
  }
  {
    const auto resp = handler("/healthz");
    EXPECT_NE(resp.body.find("shard 1 up pull_age_ms="), std::string::npos);
    EXPECT_EQ(resp.body.find("never_pulled"), std::string::npos);
  }
  {
    const auto resp = handler("/fleet.json");
    EXPECT_NE(resp.body.find("\"last_pull_age_ms\":"), std::string::npos);
    EXPECT_EQ(resp.body.find("\"last_pull_age_ms\":null"),
              std::string::npos);
  }
  // The gateway's own exposition carries build identity and uptime,
  // like the daemon's.
  {
    const auto resp = handler("/metrics");
    EXPECT_NE(resp.body.find("incprof_build_info{"), std::string::npos);
    EXPECT_NE(resp.body.find("process_uptime_seconds"), std::string::npos);
  }

  gateway.stop();
  shard.server->stop();
}

}  // namespace
}  // namespace incprof::fleet
