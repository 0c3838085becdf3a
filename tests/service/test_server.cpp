#include "service/server.hpp"

#include "../core/synthetic.hpp"
#include "core/online.hpp"
#include "service/loopback.hpp"
#include "service/replay.hpp"
#include "service/tcp.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace incprof::service {
namespace {

/// A distinct synthetic cumulative-dump stream per session index:
/// different lengths and scaled self-times, so no two sessions may be
/// confused with each other.
std::vector<gmon::ProfileSnapshot> synthetic_stream(std::size_t index) {
  auto specs = core::testing::three_phase_workload(6 + index % 5);
  for (auto& spec : specs) {
    for (auto& [name, sc] : spec) {
      sc.first *= 1.0 + 0.05 * static_cast<double>(index);
    }
  }
  return core::testing::cumulative_from_intervals(specs);
}

std::vector<std::size_t> direct_assignments(
    const std::vector<gmon::ProfileSnapshot>& snaps,
    const core::OnlineConfig& cfg = {}) {
  core::OnlinePhaseTracker tracker(cfg);
  for (const auto& snap : snaps) tracker.observe(snap);
  return tracker.assignments();
}

std::uint32_t handshake(Connection& conn, const std::string& name,
                        bool subscribe) {
  HelloPayload hello;
  hello.client_name = name;
  hello.subscribe_events = subscribe;
  EXPECT_TRUE(conn.send(make_hello_frame(hello)));
  const auto ack = conn.receive();
  EXPECT_TRUE(ack.has_value());
  const Frame frame = decode_frame(*ack);
  EXPECT_EQ(frame.type, FrameType::kHelloAck);
  return decode_hello_ack(frame.payload).session_id;
}

bool wait_for(const std::function<bool()>& pred) {
  for (int i = 0; i < 1000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// The acceptance scenario: 8 concurrent sessions replaying distinct
// streams through one Server must reproduce, per session, exactly the
// assignments of a directly-driven OnlinePhaseTracker — with zero
// drops under the default queue bound.
TEST(Server, EightConcurrentSessionsMatchDirectTrackers) {
  constexpr std::size_t kSessions = 8;
  LoopbackHub hub;
  auto listener = hub.make_listener();
  ServerConfig cfg;
  cfg.worker_threads = 4;
  Server server(*listener, cfg);
  server.start();

  std::vector<std::vector<gmon::ProfileSnapshot>> streams(kSessions);
  std::vector<ReplayResult> results(kSessions);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kSessions; ++i) {
    streams[i] = synthetic_stream(i);
    clients.emplace_back([&, i] {
      ReplayOptions opts;
      opts.client_name = "session-" + std::to_string(i);
      opts.subscribe_events = true;
      auto conn = hub.connect();
      ASSERT_NE(conn, nullptr);
      results[i] = replay_session(*conn, streams[i], opts);
    });
  }
  for (auto& t : clients) t.join();
  server.stop();

  EXPECT_EQ(server.metrics().counter_value("frames_dropped"), 0u);
  EXPECT_EQ(server.metrics().counter_value("sessions_opened"), kSessions);
  EXPECT_EQ(server.metrics().counter_value("sessions_closed"), kSessions);

  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto& r = results[i];
    ASSERT_TRUE(r.ok) << "session " << i << ": " << r.error;
    const auto expected = direct_assignments(streams[i]);

    // Server-side: the session tracker saw the identical stream.
    EXPECT_EQ(server.session_assignments(r.session_id), expected)
        << "session " << i;

    // Client-side: the pushed phase events round-tripped the same
    // per-interval story through the wire format.
    ASSERT_EQ(r.events.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(r.events[k].interval, k);
      EXPECT_EQ(r.events[k].phase, expected[k]);
    }
  }

  // The fleet folded every interval of every stream in.
  std::size_t total = 0;
  for (const auto& s : streams) total += s.size();
  const ShardState state = server.shard_state();
  EXPECT_EQ(state.total_intervals, total);
  for (const auto& row : state.sessions) {
    EXPECT_TRUE(row.closed);
    EXPECT_EQ(row.dropped_frames, 0u);
  }
}

TEST(Server, StreamingTrackerSessionsStayBoundedAndMatchDirect) {
  // Same end-to-end story with the bounded streaming tracker: pushed
  // phase events must match a directly-driven streaming tracker, and
  // the session's published history must be capped at the assignment
  // window while the counters keep the exact totals.
  LoopbackHub hub;
  auto listener = hub.make_listener();
  ServerConfig cfg;
  cfg.worker_threads = 2;
  cfg.session.tracker.streaming = true;
  cfg.session.tracker.sketch_width = 128;
  cfg.session.tracker.assignment_window = 8;
  Server server(*listener, cfg);
  server.start();

  const auto stream = synthetic_stream(0);
  ASSERT_GT(stream.size(), 2 * cfg.session.tracker.assignment_window);
  ReplayOptions opts;
  opts.client_name = "streaming-client";
  opts.subscribe_events = true;
  auto conn = hub.connect();
  ASSERT_NE(conn, nullptr);
  const ReplayResult r = replay_session(*conn, stream, opts);
  server.stop();
  ASSERT_TRUE(r.ok) << r.error;

  core::OnlinePhaseTracker direct(cfg.session.tracker);
  std::vector<std::size_t> expected;
  for (const auto& snap : stream) {
    expected.push_back(direct.observe(snap).phase);
  }

  // Client-side events carry the full per-interval story.
  ASSERT_EQ(r.events.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(r.events[k].interval, k);
    EXPECT_EQ(r.events[k].phase, expected[k]);
  }

  // Server-side publication is the bounded tail of that story.
  EXPECT_EQ(server.session_assignments(r.session_id),
            direct.recent_assignments());
  EXPECT_EQ(server.shard_state().total_intervals, stream.size());
}

TEST(Server, OverflowDropsAreCountedAndConserved) {
  LoopbackHub hub(/*queue_capacity=*/2048);
  auto listener = hub.make_listener();
  ServerConfig cfg;
  cfg.worker_threads = 1;
  cfg.session.queue_capacity = 4;  // tiny: force overflow
  Server server(*listener, cfg);
  server.start();

  // A long stream blasted with no pacing: some frames drop, and every
  // snapshot is either observed or counted as dropped — never lost.
  std::vector<core::testing::IntervalSpec> specs;
  for (int i = 0; i < 500; ++i) {
    specs.push_back({{"f", {0.5 + 0.001 * i, 1}}});
  }
  const auto snaps = core::testing::cumulative_from_intervals(specs);

  auto conn = hub.connect();
  ReplayOptions opts;
  opts.client_name = "blaster";
  const ReplayResult r = replay_session(*conn, snaps, opts);
  ASSERT_TRUE(r.ok) << r.error;
  server.stop();

  const auto assignments = server.session_assignments(r.session_id);
  const std::uint64_t dropped =
      server.metrics().counter_value("frames_dropped");
  EXPECT_EQ(assignments.size() + dropped, snaps.size());
  EXPECT_EQ(server.metrics().counter_value("snapshots_observed"),
            assignments.size());
  const auto rows = server.shard_state().sessions;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].dropped_frames, dropped);
  EXPECT_TRUE(rows[0].closed);  // the bye bypasses the full queue
}

TEST(Server, SessionStatusQueryAnswersInStreamOrder) {
  LoopbackHub hub;
  auto listener = hub.make_listener();
  Server server(*listener);
  server.start();

  const auto snaps = synthetic_stream(2);
  auto conn = hub.connect();
  ReplayOptions opts;
  opts.client_name = "queryer";
  opts.query_status = true;
  const ReplayResult r = replay_session(*conn, snaps, opts);
  server.stop();

  ASSERT_TRUE(r.ok) << r.error;
  // The query followed every snapshot on the same stream, so the reply
  // must describe the fully-processed session.
  EXPECT_NE(r.status_text.find(std::to_string(snaps.size()) + " intervals"),
            std::string::npos)
      << r.status_text;
}

TEST(Server, FleetSummaryQueryRendersTheFleet) {
  LoopbackHub hub;
  auto listener = hub.make_listener();
  Server server(*listener);
  server.start();

  auto conn = hub.connect();
  const std::uint32_t id = handshake(*conn, "fleet-asker", false);
  ASSERT_TRUE(conn->send(make_snapshot_frame(id, synthetic_stream(0)[0])));
  QueryPayload query;
  query.kind = QueryKind::kFleetSummary;
  ASSERT_TRUE(conn->send(make_query_frame(id, query)));
  ASSERT_TRUE(conn->send(make_bye_frame(id)));

  std::string reply_text;
  while (auto bytes = conn->receive()) {
    const Frame f = decode_frame(*bytes);
    if (f.type == FrameType::kQueryReply) {
      reply_text = decode_query_reply(f.payload).text;
    }
  }
  server.stop();
  EXPECT_NE(reply_text.find("fleet:"), std::string::npos);
  EXPECT_NE(reply_text.find("fleet-asker"), std::string::npos);
}

TEST(Server, HeartbeatBatchesAreCounted) {
  LoopbackHub hub;
  auto listener = hub.make_listener();
  Server server(*listener);
  server.start();

  ReplayOptions opts;
  opts.client_name = "hb";
  for (std::uint32_t i = 0; i < 150; ++i) {
    ekg::HeartbeatRecord rec;
    rec.interval = i / 3;
    rec.id = 1 + i % 3;
    rec.count = 5;
    opts.heartbeats.push_back(rec);
  }
  opts.heartbeat_batch_size = 64;  // 3 frames: 64 + 64 + 22

  auto conn = hub.connect();
  const ReplayResult r = replay_session(*conn, synthetic_stream(1), opts);
  server.stop();

  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.heartbeat_records_sent, 150u);
  EXPECT_EQ(server.metrics().counter_value("heartbeat_records"), 150u);
  const auto rows = server.shard_state().sessions;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].heartbeat_records, 150u);
}

TEST(Server, AbruptDisconnectStillClosesTheSession) {
  LoopbackHub hub;
  auto listener = hub.make_listener();
  Server server(*listener);
  server.start();

  const auto snaps = synthetic_stream(3);
  auto conn = hub.connect();
  const std::uint32_t id = handshake(*conn, "crasher", false);
  for (const auto& snap : snaps) {
    ASSERT_TRUE(conn->send(make_snapshot_frame(id, snap)));
  }
  conn->close();  // no bye: the process died

  ASSERT_TRUE(wait_for([&] {
    const auto rows = server.shard_state().sessions;
    return rows.size() == 1 && rows[0].closed;
  }));
  server.stop();
  EXPECT_EQ(server.session_assignments(id), direct_assignments(snaps));
  EXPECT_EQ(server.metrics().counter_value("sessions_closed"), 1u);
}

TEST(Server, RejectsConnectionsThatDoNotStartWithHello) {
  LoopbackHub hub;
  auto listener = hub.make_listener();
  Server server(*listener);
  server.start();

  auto conn = hub.connect();
  ASSERT_TRUE(conn->send(make_bye_frame(0)));  // not a hello
  // The server explains itself with a typed error frame, then hangs up.
  const auto reply = conn->receive();
  ASSERT_TRUE(reply.has_value());
  const Frame frame = decode_frame(*reply);
  EXPECT_EQ(frame.type, FrameType::kProtocolError);
  const ProtocolErrorPayload err = decode_protocol_error(frame.payload);
  EXPECT_EQ(err.code, ProtocolErrorCode::kUnexpectedFrame);
  EXPECT_EQ(err.budget, 0u);  // no budget before the hello
  EXPECT_EQ(conn->receive(), std::nullopt);  // server hung up
  ASSERT_TRUE(wait_for([&] {
    return server.metrics().counter_value("protocol_errors") > 0;
  }));
  server.stop();
  EXPECT_EQ(server.metrics().counter_value("sessions_opened"), 0u);
  EXPECT_EQ(server.metrics().counter_value("frames_rejected"), 1u);
}

TEST(Server, StopDrainsEverythingAlreadyQueued) {
  LoopbackHub hub;
  auto listener = hub.make_listener();
  ServerConfig cfg;
  cfg.session.queue_capacity = 4096;
  Server server(*listener, cfg);
  server.start();

  const auto snaps = synthetic_stream(4);
  auto conn = hub.connect();
  const std::uint32_t id = handshake(*conn, "undrained", false);
  for (const auto& snap : snaps) {
    ASSERT_TRUE(conn->send(make_snapshot_frame(id, snap)));
  }
  // No bye, no wait: stop() must close the connection, synthesize the
  // bye, and process every queued snapshot before returning.
  server.stop();
  EXPECT_EQ(server.session_assignments(id), direct_assignments(snaps));
  const auto rows = server.shard_state().sessions;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].closed);
}

TEST(Server, TcpEndToEndMatchesDirectTrackers) {
  TcpListener listener(0);  // ephemeral port
  ServerConfig cfg;
  cfg.session.queue_capacity = 1024;
  Server server(listener, cfg);
  server.start();

  constexpr std::size_t kSessions = 2;
  std::vector<std::vector<gmon::ProfileSnapshot>> streams(kSessions);
  std::vector<ReplayResult> results(kSessions);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kSessions; ++i) {
    streams[i] = synthetic_stream(i);
    clients.emplace_back([&, i] {
      ReplayOptions opts;
      opts.client_name = "tcp-" + std::to_string(i);
      opts.subscribe_events = true;
      auto conn = tcp_connect("127.0.0.1", listener.port());
      results[i] = replay_session(*conn, streams[i], opts);
    });
  }
  for (auto& t : clients) t.join();
  server.stop();

  for (std::size_t i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].error;
    const auto expected = direct_assignments(streams[i]);
    EXPECT_EQ(server.session_assignments(results[i].session_id), expected);
    ASSERT_EQ(results[i].events.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(results[i].events[k].phase, expected[k]);
    }
  }
}

}  // namespace
}  // namespace incprof::service
