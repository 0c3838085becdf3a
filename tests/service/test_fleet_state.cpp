// The shard-state codec (incprof-shard-state v1) and the shard-side
// control plane it rides on: capture/encode/decode round trips, merge
// arithmetic, forward compatibility and malformed-input rejection, the
// capture of a live server's sessions and registry, plus the Server
// answering sessionless kFleetState/kDrain frames without polluting its
// per-session aggregates.
#include "service/fleet_state.hpp"

#include "core/online.hpp"
#include "service/loopback.hpp"
#include "service/replay.hpp"
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../core/synthetic.hpp"

namespace incprof::service {
namespace {

ShardState sample_state() {
  ShardState s;
  s.shard_id = 7;
  s.draining = false;
  s.open_sessions = 2;
  s.total_intervals = 41;
  s.total_transitions = 9;
  s.phase_count_histogram = {0, 1, 3};
  FleetSessionInfo row;
  row.id = (7u << kSessionShardShift) + 1;
  row.client_name = "miniamr rank 0";  // spaces must survive
  row.intervals = 20;
  row.phases = 3;
  row.current_phase = 1;
  row.transitions = 5;
  row.heartbeat_records = 12;
  row.dropped_frames = 1;
  row.closed = true;
  s.sessions.push_back(row);
  s.counters = {{"frames_received", 100},
                {"sessions_routed{shard=\"7\"}", 4}};
  s.gauges = {{"active_sessions", 2}};
  obs::HistogramSnapshot snap;
  snap.count = 3;
  snap.sum = 30;
  snap.max = 20;
  snap.counts.resize(32, 0);
  snap.counts[5] = 2;
  snap.counts[20] = 1;
  s.histograms.emplace_back("frame_ns", snap);
  return s;
}

TEST(ShardState, EncodeDecodeRoundTrips) {
  const ShardState s = sample_state();
  const std::string text = encode_shard_state(s);
  EXPECT_NE(text.find("incprof-shard-state v1"), std::string::npos);
  const ShardState d = decode_shard_state(text);

  EXPECT_EQ(d.shard_id, s.shard_id);
  EXPECT_EQ(d.draining, s.draining);
  EXPECT_EQ(d.open_sessions, s.open_sessions);
  EXPECT_EQ(d.total_intervals, s.total_intervals);
  EXPECT_EQ(d.total_transitions, s.total_transitions);
  EXPECT_EQ(d.phase_count_histogram, s.phase_count_histogram);
  ASSERT_EQ(d.sessions.size(), 1u);
  EXPECT_EQ(d.sessions[0].id, s.sessions[0].id);
  EXPECT_EQ(d.sessions[0].client_name, "miniamr rank 0");
  EXPECT_EQ(d.sessions[0].intervals, 20u);
  EXPECT_EQ(d.sessions[0].heartbeat_records, 12u);
  EXPECT_EQ(d.sessions[0].dropped_frames, 1u);
  EXPECT_TRUE(d.sessions[0].closed);
  EXPECT_EQ(d.counters, s.counters);
  EXPECT_EQ(d.gauges, s.gauges);
  ASSERT_EQ(d.histograms.size(), 1u);
  EXPECT_EQ(d.histograms[0].first, "frame_ns");
  EXPECT_EQ(d.histograms[0].second.count, 3u);
  EXPECT_EQ(d.histograms[0].second.sum, 30u);
  EXPECT_EQ(d.histograms[0].second.max, 20u);
  // Sparse bucket encoding: only the non-zero buckets round trip.
  ASSERT_GE(d.histograms[0].second.counts.size(), 21u);
  EXPECT_EQ(d.histograms[0].second.counts[5], 2u);
  EXPECT_EQ(d.histograms[0].second.counts[20], 1u);
}

TEST(ShardState, HostileClientNamesCannotBreakTheCodec) {
  // The client name is the one client-controlled string in the codec;
  // decode_hello imposes no charset restrictions, so the encoder must
  // neutralize row-splitting and row-shortening names. A raw newline
  // would otherwise let one client inject rows (e.g. a second totals
  // line) or make the gateway's pull throw and eject a healthy shard.
  ShardState s = sample_state();
  s.sessions[0].client_name = "";
  FleetSessionInfo evil = s.sessions[0];
  evil.id += 1;
  evil.client_name = "evil\ntotals 999 999 999";
  s.sessions.push_back(evil);
  FleetSessionInfo blank = s.sessions[0];
  blank.id += 2;
  blank.client_name = " \r\n ";
  s.sessions.push_back(blank);

  const ShardState d = decode_shard_state(encode_shard_state(s));
  ASSERT_EQ(d.sessions.size(), 3u);
  EXPECT_EQ(d.sessions[0].client_name, "?");
  EXPECT_EQ(d.sessions[1].client_name, "evil totals 999 999 999");
  EXPECT_EQ(d.sessions[2].client_name, "?");
  // The injected totals line never materialized.
  EXPECT_EQ(d.total_intervals, 41u);
  EXPECT_EQ(d.open_sessions, 2u);
}

TEST(ShardState, DecoderToleratesMissingClientName) {
  const std::string text =
      "incprof-shard-state v1\nsession 1 2 3 4 5 6 7 0\n";
  const ShardState d = decode_shard_state(text);
  ASSERT_EQ(d.sessions.size(), 1u);
  EXPECT_EQ(d.sessions[0].client_name, "?");
  EXPECT_EQ(d.sessions[0].intervals, 2u);
}

TEST(ShardState, DrainingFlagRoundTrips) {
  ShardState s = sample_state();
  s.draining = true;
  const ShardState d = decode_shard_state(encode_shard_state(s));
  EXPECT_TRUE(d.draining);
}

TEST(ShardState, MergeAddsEveryExtensiveQuantity) {
  ShardState a = sample_state();
  ShardState b = sample_state();
  b.shard_id = 8;
  b.total_intervals = 9;
  b.phase_count_histogram = {0, 0, 1, 2};  // longer than a's
  b.counters = {{"frames_received", 11}, {"only_on_b", 5}};
  b.gauges = {{"active_sessions", 3}};

  ShardState merged;
  merge_shard_state(merged, a);
  merge_shard_state(merged, b);

  EXPECT_EQ(merged.open_sessions, 4u);
  EXPECT_EQ(merged.total_intervals, 41u + 9u);
  EXPECT_EQ(merged.total_transitions, 18u);
  ASSERT_EQ(merged.phase_count_histogram.size(), 4u);
  EXPECT_EQ(merged.phase_count_histogram[1], 1u);
  EXPECT_EQ(merged.phase_count_histogram[2], 4u);
  EXPECT_EQ(merged.phase_count_histogram[3], 2u);
  EXPECT_EQ(merged.sessions.size(), 2u);
  for (const auto& [name, value] : merged.counters) {
    if (name == "frames_received") EXPECT_EQ(value, 111u);
    if (name == "only_on_b") EXPECT_EQ(value, 5u);
  }
  for (const auto& [name, value] : merged.gauges) {
    if (name == "active_sessions") EXPECT_EQ(value, 5);
  }
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].second.count, 6u);
  EXPECT_EQ(merged.histograms[0].second.sum, 60u);
  EXPECT_EQ(merged.histograms[0].second.max, 20u);
  EXPECT_EQ(merged.histograms[0].second.counts[5], 4u);
}

TEST(ShardState, UnknownKeywordsAreSkippedForForwardCompat) {
  std::string text = encode_shard_state(sample_state());
  text += "futurerow some payload we do not understand\n";
  const ShardState d = decode_shard_state(text);
  EXPECT_EQ(d.total_intervals, 41u);
}

TEST(ShardState, MalformedInputThrows) {
  EXPECT_THROW(decode_shard_state(""), std::runtime_error);
  EXPECT_THROW(decode_shard_state("not-the-header\nshard 1 serving\n"),
               std::runtime_error);
  const std::string header = "incprof-shard-state v1\n";
  EXPECT_THROW(decode_shard_state(header + "shard x serving\n"),
               std::runtime_error);
  EXPECT_THROW(decode_shard_state(header + "totals 1 2\n"),
               std::runtime_error);
  EXPECT_THROW(decode_shard_state(header + "session 1 2 3\n"),
               std::runtime_error);
  EXPECT_THROW(decode_shard_state(header + "counter a\n"),
               std::runtime_error);
  EXPECT_THROW(decode_shard_state(header + "hist h 1 2 3 nocolon\n"),
               std::runtime_error);
  EXPECT_THROW(decode_shard_state(header + "hist h 1 2 3 999999:1\n"),
               std::runtime_error);
}

TEST(ShardState, CaptureReflectsSessionsAndRegistry) {
  LoopbackHub hub;
  auto listener = hub.make_listener();
  ServerConfig cfg;
  cfg.shard_id = 3;
  Server server(*listener, cfg);
  server.start();
  auto conn = hub.connect();
  HelloPayload hello;
  hello.client_name = "alpha";
  ASSERT_TRUE(conn->send(make_hello_frame(hello)));
  ASSERT_TRUE(conn->receive().has_value());  // the hello-ack
  server.metrics().counter("frames").add(7);
  server.metrics().gauge("depth").set(3);
  server.metrics().histogram("lat").record(100);

  const ShardState s = server.shard_state();
  EXPECT_EQ(s.shard_id, 3u);
  EXPECT_FALSE(s.draining);
  EXPECT_EQ(s.open_sessions, 1u);
  ASSERT_EQ(s.sessions.size(), 1u);
  EXPECT_EQ(s.sessions[0].client_name, "alpha");
  EXPECT_EQ(s.phase_count_histogram, (std::vector<std::uint64_t>{1}));
  bool saw_counter = false;
  for (const auto& [name, value] : s.counters) {
    if (name == "frames") {
      saw_counter = true;
      EXPECT_EQ(value, 7u);
    }
  }
  EXPECT_TRUE(saw_counter);
  bool saw_histogram = false;
  for (const auto& [name, snap] : s.histograms) {
    if (name == "lat") {
      saw_histogram = true;
      EXPECT_EQ(snap.count, 1u);
    }
  }
  EXPECT_TRUE(saw_histogram);
  server.stop();
  EXPECT_TRUE(server.shard_state().sessions[0].closed);
}

// --- shard-side control plane -----------------------------------------

std::vector<gmon::ProfileSnapshot> synthetic_stream() {
  return core::testing::cumulative_from_intervals(
      core::testing::three_phase_workload(6));
}

/// Sends one sessionless control query and returns the reply text.
std::string control_query(LoopbackHub& hub, QueryKind kind) {
  auto conn = hub.connect();
  QueryPayload query;
  query.kind = kind;
  EXPECT_TRUE(conn->send(make_query_frame(0, query)));
  const auto bytes = conn->receive();
  EXPECT_TRUE(bytes.has_value());
  if (!bytes) return {};
  const Frame frame = decode_frame(*bytes);
  EXPECT_EQ(frame.type, FrameType::kQueryReply);
  conn->close();
  return decode_query_reply(frame.payload).text;
}

TEST(ControlPlane, FleetStateQueryIsSessionlessAndDoesNotPolluteCounts) {
  LoopbackHub hub;
  auto listener = hub.make_listener();
  ServerConfig cfg;
  cfg.shard_id = 4;
  Server server(*listener, cfg);
  server.start();

  // A real session, then a control pull: the pull must not appear in
  // the session table — the merged==sum acceptance check depends on it.
  auto conn = hub.connect();
  ReplayOptions opts;
  opts.client_name = "real-session";
  const auto result = replay_session(*conn, synthetic_stream(), opts);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(session_id_shard(result.session_id), 4u);

  const std::string text = control_query(hub, QueryKind::kFleetState);
  const ShardState s = decode_shard_state(text);
  EXPECT_EQ(s.shard_id, 4u);
  EXPECT_FALSE(s.draining);
  EXPECT_EQ(s.total_intervals, synthetic_stream().size());
  ASSERT_EQ(s.sessions.size(), 1u);  // the control query opened none
  EXPECT_EQ(s.sessions[0].client_name, "real-session");

  // The human-readable summary works sessionless too.
  const std::string summary = control_query(hub, QueryKind::kFleetSummary);
  EXPECT_NE(summary.find("fleet:"), std::string::npos);

  server.stop();
  EXPECT_EQ(server.metrics().counter_value("sessions_opened"), 1u);
  EXPECT_EQ(server.metrics().counter_value("control_queries"), 2u);
}

TEST(ControlPlane, DrainClosesSessionsAndRedirectsNewcomers) {
  LoopbackHub hub;
  auto listener = hub.make_listener();
  ServerConfig cfg;
  cfg.resume_grace = std::chrono::milliseconds(3000);
  Server server(*listener, cfg);
  server.start();

  // One attached session mid-stream.
  auto session_conn = hub.connect();
  HelloPayload hello;
  hello.client_name = "drained";
  ASSERT_TRUE(session_conn->send(make_hello_frame(hello)));
  const auto ack = session_conn->receive();
  ASSERT_TRUE(ack.has_value());
  const std::uint32_t id =
      decode_hello_ack(decode_frame(*ack).payload).session_id;

  // The drain order: ack reports one closed session, and the attached
  // connection is force-closed (the client sees EOF and would resume
  // elsewhere through the gateway).
  auto control = hub.connect();
  ASSERT_TRUE(control->send(make_drain_frame()));
  const auto ack_bytes = control->receive();
  ASSERT_TRUE(ack_bytes.has_value());
  const Frame ack_frame = decode_frame(*ack_bytes);
  ASSERT_EQ(ack_frame.type, FrameType::kDrainAck);
  EXPECT_EQ(decode_drain_ack(ack_frame.payload).sessions_closed, 1u);
  EXPECT_EQ(session_conn->receive(), std::nullopt);  // EOF
  EXPECT_TRUE(server.draining());

  // A second drain is idempotent: nothing left to close.
  ASSERT_TRUE(control->send(make_drain_frame()));
  const auto again = control->receive();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(decode_drain_ack(decode_frame(*again).payload).sessions_closed,
            0u);
  control->close();

  // Fresh hellos are refused with kRedirect while draining...
  auto fresh = hub.connect();
  HelloPayload fresh_hello;
  fresh_hello.client_name = "late";
  ASSERT_TRUE(fresh->send(make_hello_frame(fresh_hello)));
  const auto refusal = fresh->receive();
  ASSERT_TRUE(refusal.has_value());
  const Frame refusal_frame = decode_frame(*refusal);
  ASSERT_EQ(refusal_frame.type, FrameType::kProtocolError);
  EXPECT_EQ(decode_protocol_error(refusal_frame.payload).code,
            ProtocolErrorCode::kRedirect);
  EXPECT_EQ(fresh->receive(), std::nullopt);

  // ...and resumes of the drained session are refused with
  // kUnknownSession, which sends the client down its fresh-session
  // fallback on another shard.
  auto resume = hub.connect();
  HelloPayload resume_hello;
  resume_hello.client_name = "drained";
  resume_hello.resume_session_id = id;
  ASSERT_TRUE(resume->send(make_hello_frame(resume_hello)));
  const auto resume_refusal = resume->receive();
  ASSERT_TRUE(resume_refusal.has_value());
  EXPECT_EQ(
      decode_protocol_error(decode_frame(*resume_refusal).payload).code,
      ProtocolErrorCode::kUnknownSession);

  // The drained state is visible in the self-reported shard state.
  EXPECT_TRUE(server.shard_state().draining);
  server.stop();
  EXPECT_EQ(server.metrics().counter_value("sessions_drained"), 1u);
  EXPECT_EQ(server.metrics().counter_value("redirects_sent"), 1u);
}

}  // namespace
}  // namespace incprof::service
