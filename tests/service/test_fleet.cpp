// The fleet report: the bounded transition log, and the rows, totals,
// histogram, text and CSV a shard derives from its sessions' trackers
// (through ShardState, captured from rows or from a loopback server).
#include "service/fleet.hpp"

#include "core/online.hpp"
#include "service/loopback.hpp"
#include "service/replay.hpp"
#include "service/server.hpp"
#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <sstream>
#include <thread>

#include "../core/synthetic.hpp"

namespace incprof::service {
namespace {

core::OnlineObservation obs_of(std::size_t interval, std::size_t phase,
                               bool new_phase, bool transition) {
  core::OnlineObservation o;
  o.interval = interval;
  o.phase = phase;
  o.new_phase = new_phase;
  o.transition = transition;
  return o;
}

FleetSessionInfo row_of(std::uint32_t id, std::string name,
                        std::size_t intervals, std::size_t phases) {
  FleetSessionInfo r;
  r.id = id;
  r.client_name = std::move(name);
  r.intervals = intervals;
  r.phases = phases;
  return r;
}

ShardState state_of(std::vector<FleetSessionInfo> rows) {
  return capture_shard_state(0, false, std::move(rows),
                             obs::MetricsRegistry{});
}

std::vector<gmon::ProfileSnapshot> stream_of(std::size_t n_per) {
  return core::testing::cumulative_from_intervals(
      core::testing::three_phase_workload(n_per));
}

std::uint32_t handshake(Connection& conn, const std::string& name,
                        std::uint32_t resume_id = 0,
                        std::uint32_t* resume_next = nullptr) {
  HelloPayload hello;
  hello.client_name = name;
  hello.resume_session_id = resume_id;
  EXPECT_TRUE(conn.send(make_hello_frame(hello)));
  const auto ack = conn.receive();
  EXPECT_TRUE(ack.has_value());
  const Frame frame = decode_frame(*ack);
  EXPECT_EQ(frame.type, FrameType::kHelloAck);
  const HelloAckPayload payload = decode_hello_ack(frame.payload);
  if (resume_next != nullptr) *resume_next = payload.resume_next_interval;
  return payload.session_id;
}

bool wait_for(const std::function<bool()>& pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// Sends a bye and reads until the server hangs up (every queued frame
/// processed).
void say_bye(Connection& conn, std::uint32_t id) {
  ASSERT_TRUE(conn.send(make_bye_frame(id)));
  while (conn.receive()) {
  }
  conn.close();
}

TEST(Fleet, TracksSessionLifecycle) {
  LoopbackHub hub;
  auto listener = hub.make_listener();
  Server server(*listener);
  server.start();

  auto first = hub.connect();
  const std::uint32_t a = handshake(*first, "graph500");
  auto second = hub.connect();
  const std::uint32_t b = handshake(*second, "minife");
  EXPECT_EQ(server.shard_state().open_sessions, 2u);
  say_bye(*first, a);
  EXPECT_EQ(server.shard_state().open_sessions, 1u);

  const ShardState state = server.shard_state();
  ASSERT_EQ(state.sessions.size(), 2u);
  EXPECT_EQ(state.sessions[0].id, a);
  EXPECT_EQ(state.sessions[0].client_name, "graph500");
  EXPECT_TRUE(state.sessions[0].closed);
  EXPECT_EQ(state.sessions[1].id, b);
  EXPECT_FALSE(state.sessions[1].closed);
  server.stop();
}

TEST(Fleet, FoldsObservationsIntoRows) {
  // A session's row is its tracker's counters, read back through the
  // server: the same numbers a directly-driven tracker reports.
  LoopbackHub hub;
  auto listener = hub.make_listener();
  Server server(*listener);
  server.start();

  const auto snaps = stream_of(6);
  ReplayOptions opts;
  opts.client_name = "app";
  for (std::uint32_t i = 0; i < 12; ++i) {
    ekg::HeartbeatRecord rec;
    rec.interval = i;
    rec.id = 1;
    rec.count = 1;
    opts.heartbeats.push_back(rec);
  }
  auto conn = hub.connect();
  const ReplayResult r = replay_session(*conn, snaps, opts);
  ASSERT_TRUE(r.ok) << r.error;

  core::OnlinePhaseTracker direct;
  for (const auto& snap : snaps) direct.observe(snap);
  const ShardState state = server.shard_state();
  ASSERT_EQ(state.sessions.size(), 1u);
  const FleetSessionInfo& row = state.sessions[0];
  EXPECT_EQ(row.intervals, snaps.size());
  EXPECT_EQ(row.phases, direct.num_phases());
  EXPECT_EQ(row.current_phase, direct.current_phase());
  EXPECT_EQ(row.transitions, direct.transitions());
  EXPECT_EQ(row.heartbeat_records, 12u);
  EXPECT_EQ(row.dropped_frames, 0u);
  EXPECT_TRUE(row.closed);
  EXPECT_EQ(state.total_intervals, snaps.size());
  EXPECT_EQ(state.total_transitions, direct.transitions() + 1);
  server.stop();
}

TEST(Fleet, TransitionLogRecordsNewPhasesAndTransitionsOnly) {
  TransitionLog log;
  log.record(1, obs_of(0, 0, true, false));   // logged
  log.record(1, obs_of(1, 0, false, false));  // steady
  log.record(1, obs_of(2, 1, true, true));    // logged
  log.record(1, obs_of(3, 0, false, true));   // logged

  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].interval, 0u);
  EXPECT_TRUE(entries[0].new_phase);
  EXPECT_EQ(entries[2].phase, 0u);
}

TEST(Fleet, TransitionLogIsBoundedButCountIsNot) {
  // Twenty intervals alternating between two behaviours: one new phase,
  // then a transition every interval. The log keeps the newest four;
  // the fleet's phase-event count, read from the trackers, keeps all.
  LoopbackHub hub;
  auto listener = hub.make_listener();
  ServerConfig cfg;
  cfg.transition_log_capacity = 4;
  Server server(*listener, cfg);
  server.start();

  std::vector<core::testing::IntervalSpec> specs;
  for (int i = 0; i < 20; ++i) {
    specs.push_back({{i % 2 == 0 ? "f" : "g", {1.0, 1}}});
  }
  auto conn = hub.connect();
  ASSERT_TRUE(replay_session(*conn,
                             core::testing::cumulative_from_intervals(specs),
                             ReplayOptions{})
                  .ok);

  const auto entries = server.transition_log().entries();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.back().interval, 19u);  // the newest events
  EXPECT_EQ(server.shard_state().total_transitions, 20u);
  server.stop();
}

TEST(Fleet, PhaseCountHistogramAcrossSessions) {
  const ShardState state = state_of(
      {row_of(1, "a", 1, 3), row_of(2, "b", 1, 3), row_of(3, "c", 1, 1)});
  const auto& hist = state.phase_count_histogram;
  ASSERT_EQ(hist.size(), 4u);
  EXPECT_EQ(hist[1], 1u);  // one session with 1 phase
  EXPECT_EQ(hist[3], 2u);  // two sessions with 3 phases
}

TEST(Fleet, RenderMentionsEverySession) {
  const std::string report = render_fleet(
      state_of({row_of(1, "graph500", 1, 1), row_of(2, "lammps", 0, 0)}));
  EXPECT_NE(report.find("graph500"), std::string::npos);
  EXPECT_NE(report.find("lammps"), std::string::npos);
  EXPECT_NE(report.find("phase-count histogram"), std::string::npos);
}

TEST(Fleet, RenderedTextIsPinned) {
  // A fixed history through a live server: two closed sessions (one
  // with heartbeats) and one open, idle session. The text is the
  // daemon's printout byte for byte.
  LoopbackHub hub;
  auto listener = hub.make_listener();
  Server server(*listener);
  server.start();

  ReplayOptions alpha;
  alpha.client_name = "alpha";
  for (std::uint32_t i = 0; i < 5; ++i) {
    ekg::HeartbeatRecord rec;
    rec.interval = i;
    rec.id = 1;
    rec.count = 1;
    alpha.heartbeats.push_back(rec);
  }
  auto conn = hub.connect();
  ASSERT_TRUE(replay_session(*conn, stream_of(4), alpha).ok);
  ReplayOptions beta;
  beta.client_name = "beta";
  conn = hub.connect();
  ASSERT_TRUE(replay_session(*conn, stream_of(2), beta).ok);
  auto idle = hub.connect();
  handshake(*idle, "gamma");

  EXPECT_EQ(render_fleet(server.shard_state()),
            "fleet: 3 sessions (1 open), 6 phase events\n"
            "  #1 alpha [closed]: 12 intervals, 3 phases, in phase 2, "
            "2 transitions, 5 hb records\n"
            "  #2 beta [closed]: 6 intervals, 3 phases, in phase 2, "
            "2 transitions\n"
            "  #3 gamma: 0 intervals, 0 phases, in phase 0, 0 transitions\n"
            "  phase-count histogram: 0p x1 3p x2\n");
  server.stop();
}

TEST(Fleet, ResumedSessionIsOneRowWhoseIntervalsContinue) {
  LoopbackHub hub;
  auto listener = hub.make_listener();
  ServerConfig cfg;
  cfg.resume_grace = std::chrono::milliseconds(5000);
  Server server(*listener, cfg);
  server.start();

  const auto snaps = stream_of(4);
  auto conn = hub.connect();
  const std::uint32_t id = handshake(*conn, "resumer");
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(conn->send(make_snapshot_frame(id, snaps[i])));
  }
  ASSERT_TRUE(wait_for(
      [&] { return server.shard_state().total_intervals == 5; }));
  conn->close();  // abrupt: the session detaches awaiting resume
  ASSERT_TRUE(wait_for([&] {
    return server.metrics().counter_value("sessions_detached") == 1;
  }));

  conn = hub.connect();
  std::uint32_t next = 0;
  ASSERT_EQ(handshake(*conn, "resumer", id, &next), id);
  ASSERT_EQ(next, 5u);
  for (std::size_t i = next; i < snaps.size(); ++i) {
    ASSERT_TRUE(conn->send(make_snapshot_frame(id, snaps[i])));
  }
  say_bye(*conn, id);

  core::OnlinePhaseTracker direct;
  for (const auto& snap : snaps) direct.observe(snap);
  const ShardState state = server.shard_state();
  ASSERT_EQ(state.sessions.size(), 1u);
  EXPECT_EQ(state.sessions[0].id, id);
  EXPECT_EQ(state.sessions[0].intervals, snaps.size());
  EXPECT_EQ(state.sessions[0].transitions, direct.transitions());
  EXPECT_TRUE(state.sessions[0].closed);
  EXPECT_EQ(server.session_count(), 1u);
  server.stop();
}

TEST(Fleet, CsvHasOneRowPerSession) {
  std::ostringstream os;
  write_fleet_csv(
      state_of({row_of(1, "a,with,commas", 0, 0), row_of(2, "b", 1, 1)}), os);
  const util::CsvDocument doc = util::parse_csv(os.str());
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0][1], "a,with,commas");  // quoting survived
  const int intervals_col = doc.column("intervals");
  ASSERT_GE(intervals_col, 0);
  EXPECT_EQ(doc.rows[1][static_cast<std::size_t>(intervals_col)], "1");
}

}  // namespace
}  // namespace incprof::service
