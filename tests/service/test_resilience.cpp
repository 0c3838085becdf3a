// Fault-tolerance coverage for the hardened incprofd core: protocol
// error budgets and quarantine, session resume after abrupt
// disconnects, idle reaping, TCP read deadlines (including the default
// pre-hello one), mid-frame close
// accounting — capped by the chaos acceptance scenario (faulted and
// clean sessions sharing one server, with a concurrent obs scrape).
#include "obs/http.hpp"
#include "obs/trace.hpp"
#include "service/faults.hpp"
#include "service/loopback.hpp"
#include "service/replay.hpp"
#include "service/server.hpp"
#include "service/tcp.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <thread>

#include "../core/synthetic.hpp"

namespace incprof::service {
namespace {

std::vector<gmon::ProfileSnapshot> synthetic_stream(std::size_t index) {
  auto specs = core::testing::three_phase_workload(6 + index % 5);
  for (auto& spec : specs) {
    for (auto& [name, sc] : spec) {
      sc.first *= 1.0 + 0.05 * static_cast<double>(index);
    }
  }
  return core::testing::cumulative_from_intervals(specs);
}

using core::testing::direct_assignments;

std::uint32_t handshake(Connection& conn, const std::string& name,
                        std::uint32_t resume_id = 0) {
  HelloPayload hello;
  hello.client_name = name;
  hello.resume_session_id = resume_id;
  EXPECT_TRUE(conn.send(make_hello_frame(hello)));
  const auto ack = conn.receive();
  EXPECT_TRUE(ack.has_value());
  const Frame frame = decode_frame(*ack);
  EXPECT_EQ(frame.type, FrameType::kHelloAck);
  return decode_hello_ack(frame.payload).session_id;
}

bool wait_for(const std::function<bool()>& pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// A frame whose envelope is intact but whose type field is destroyed —
/// exactly what FaultKind::kCorrupt produces.
std::string corrupt_frame(std::uint32_t session) {
  Frame f;
  f.type = FrameType::kHeartbeatBatch;
  f.session = session;
  f.payload = "xx";
  std::string wire = encode_frame(f);
  wire[6] = '\xff';
  wire[7] = '\xff';
  return wire;
}

TEST(Resilience, ErrorBudgetElicitsTypedErrorsThenQuarantine) {
  LoopbackHub hub;
  auto listener = hub.make_listener();
  ServerConfig cfg;
  cfg.protocol_error_budget = 2;
  Server server(*listener, cfg);
  server.start();

  auto conn = hub.connect();
  const std::uint32_t id = handshake(*conn, "budget");

  // Two strikes within budget: typed errors, connection stays up.
  for (std::uint32_t strike = 1; strike <= 2; ++strike) {
    ASSERT_TRUE(conn->send(corrupt_frame(id)));
    const auto bytes = conn->receive();
    ASSERT_TRUE(bytes.has_value());
    const Frame frame = decode_frame(*bytes);
    ASSERT_EQ(frame.type, FrameType::kProtocolError);
    const auto err = decode_protocol_error(frame.payload);
    EXPECT_EQ(err.code, ProtocolErrorCode::kMalformedFrame);
    EXPECT_EQ(err.errors, strike);
    EXPECT_EQ(err.budget, 2u);
  }

  // Third strike: quarantined and disconnected.
  ASSERT_TRUE(conn->send(corrupt_frame(id)));
  const auto bytes = conn->receive();
  ASSERT_TRUE(bytes.has_value());
  const auto err = decode_protocol_error(decode_frame(*bytes).payload);
  EXPECT_EQ(err.code, ProtocolErrorCode::kQuarantined);
  EXPECT_EQ(err.errors, 3u);
  EXPECT_EQ(conn->receive(), std::nullopt);

  ASSERT_TRUE(wait_for([&] {
    return server.metrics().counter_value("sessions_closed") == 1;
  }));
  server.stop();
  EXPECT_EQ(server.metrics().counter_value("sessions_quarantined"), 1u);
  EXPECT_EQ(server.metrics().counter_value("frames_rejected"), 3u);
  EXPECT_EQ(server.metrics().gauge_value("active_sessions"), 0);
}

TEST(Resilience, SessionSurvivesDisconnectAndResumesLosslessly) {
  TcpListener listener(0);
  ServerConfig cfg;
  cfg.resume_grace = std::chrono::milliseconds(5000);
  Server server(listener, cfg);
  server.start();

  const auto snaps = synthetic_stream(1);
  ASSERT_GT(snaps.size(), 6u);

  // First connection dies right after frame 4 (hello + 3 snapshots).
  FaultPlan plan;
  plan.events = {{4, FaultKind::kDisconnect}};
  bool first = true;
  ReplayOptions opts;
  opts.client_name = "resumer";
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = std::chrono::milliseconds(10);
  const auto result = replay_session_resilient(
      [&]() -> std::unique_ptr<Connection> {
        auto conn = tcp_connect("127.0.0.1", listener.port());
        if (first) {
          first = false;
          return std::make_unique<FaultInjectingConnection>(
              std::move(conn), plan);
        }
        return conn;
      },
      snaps, opts, policy);

  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.reconnects, 1u);
  EXPECT_EQ(result.snapshots_sent, snaps.size());

  ASSERT_TRUE(wait_for([&] {
    return server.metrics().counter_value("sessions_closed") == 1;
  }));
  server.stop();
  // A disconnect-only fault is lossless: the resume cursor rewinds the
  // client to exactly the first unreceived interval.
  EXPECT_EQ(server.session_assignments(result.session_id),
            direct_assignments(snaps));
  EXPECT_EQ(server.metrics().counter_value("reconnects"), 1u);
  EXPECT_EQ(server.metrics().counter_value("sessions_detached"), 1u);
  EXPECT_EQ(server.metrics().counter_value("sessions_opened"), 1u);
}

TEST(Resilience, ResumeOfUnknownSessionIsRejected) {
  LoopbackHub hub;
  auto listener = hub.make_listener();
  ServerConfig cfg;
  cfg.resume_grace = std::chrono::milliseconds(1000);
  Server server(*listener, cfg);
  server.start();

  auto conn = hub.connect();
  HelloPayload hello;
  hello.client_name = "ghost";
  hello.resume_session_id = 999;
  ASSERT_TRUE(conn->send(make_hello_frame(hello)));
  const auto bytes = conn->receive();
  ASSERT_TRUE(bytes.has_value());
  const Frame frame = decode_frame(*bytes);
  ASSERT_EQ(frame.type, FrameType::kProtocolError);
  EXPECT_EQ(decode_protocol_error(frame.payload).code,
            ProtocolErrorCode::kUnknownSession);
  EXPECT_EQ(conn->receive(), std::nullopt);
  server.stop();
  EXPECT_EQ(server.metrics().counter_value("sessions_opened"), 0u);
}

TEST(Resilience, DetachedSessionIsReapedAfterGraceExpires) {
  LoopbackHub hub;
  auto listener = hub.make_listener();
  ServerConfig cfg;
  cfg.resume_grace = std::chrono::milliseconds(80);
  Server server(*listener, cfg);
  server.start();

  auto conn = hub.connect();
  handshake(*conn, "vanisher");
  conn->close();  // abrupt; the session detaches awaiting resume

  ASSERT_TRUE(wait_for([&] {
    return server.metrics().counter_value("sessions_closed") == 1;
  }));
  server.stop();
  EXPECT_EQ(server.metrics().counter_value("sessions_detached"), 1u);
  EXPECT_EQ(server.metrics().counter_value(
                "sessions_reaped{cause=\"grace_expired\"}"),
            1u);
  EXPECT_EQ(server.metrics().gauge_value("active_sessions"), 0);
}

TEST(Resilience, IdleSessionsAreReaped) {
  LoopbackHub hub;
  auto listener = hub.make_listener();
  ServerConfig cfg;
  cfg.idle_timeout = std::chrono::milliseconds(80);
  Server server(*listener, cfg);
  server.start();

  auto conn = hub.connect();
  handshake(*conn, "sleeper");
  // Send nothing more: the reaper must close the connection (EOF here)
  // and end the session.
  EXPECT_EQ(conn->receive(), std::nullopt);
  ASSERT_TRUE(wait_for([&] {
    return server.metrics().counter_value("sessions_closed") == 1;
  }));
  server.stop();
  EXPECT_EQ(
      server.metrics().counter_value("sessions_reaped{cause=\"idle\"}"),
      1u);
}

TEST(Resilience, TcpReadDeadlineDisconnectsSilentClients) {
  TcpListener listener(0);
  ServerConfig cfg;
  cfg.read_timeout = std::chrono::milliseconds(80);
  Server server(listener, cfg);
  server.start();

  auto conn = tcp_connect("127.0.0.1", listener.port());
  handshake(*conn, "mute");
  // Stay silent; the per-connection deadline must end the session
  // without any reaper configured.
  ASSERT_TRUE(wait_for([&] {
    return server.metrics().counter_value("sessions_closed") == 1;
  }));
  server.stop();
  EXPECT_EQ(server.metrics().counter_value("sessions_opened"), 1u);
}

TEST(Resilience, PreHelloPartialFrameIsClosedByDefaultDeadline) {
  // Default config (read_timeout 0). A raw peer sends 12 bytes of a
  // 28-byte v2 header and waits: the built-in pre-hello deadline must
  // close it. A session whose hello was accepted first, and which then
  // stays idle for longer than that deadline, must stay open.
  TcpListener listener(0);
  Server server(listener, ServerConfig{});
  server.start();
  constexpr auto kDeadline = ServerConfig::kPreHelloReadTimeout;

  auto session_conn = tcp_connect("127.0.0.1", listener.port());
  const std::uint32_t id = handshake(*session_conn, "idle-but-open");

  const int stalled = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(stalled, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  HelloPayload hello;
  hello.client_name = "stalled";
  const std::string wire = make_hello_frame(hello);
  ASSERT_EQ(::send(stalled, wire.data(), 12, MSG_NOSIGNAL), 12);
  const auto sent = std::chrono::steady_clock::now();

  pollfd pfd{};
  pfd.fd = stalled;
  pfd.events = POLLIN;
  const auto slack = std::chrono::milliseconds(2000);
  const int rc =
      ::poll(&pfd, 1, static_cast<int>((kDeadline + slack).count()));
  const auto waited = std::chrono::steady_clock::now() - sent;
  char byte = 0;
  const ssize_t got = rc == 1 ? ::recv(stalled, &byte, 1, 0) : 1;
  ::close(stalled);
  ASSERT_EQ(rc, 1) << "stalled peer still open after deadline + slack";
  EXPECT_LE(got, 0) << "expected EOF, not a reply";
  EXPECT_GE(waited, kDeadline / 2);  // a deadline, not an instant reject

  // The accepted session has now been idle past the pre-hello deadline
  // and must still answer.
  QueryPayload query;
  ASSERT_TRUE(session_conn->send(make_query_frame(id, query)));
  const auto reply = session_conn->receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(decode_frame(*reply).type, FrameType::kQueryReply);
  EXPECT_EQ(server.metrics().counter_value("sessions_closed"), 0u);
  server.stop();
}

TEST(Resilience, MidFrameCloseIsCountedAsDisconnectCause) {
  TcpListener listener(0);
  Server server(listener, ServerConfig{});
  server.start();

  auto conn = tcp_connect("127.0.0.1", listener.port());
  const std::uint32_t id = handshake(*conn, "torn");
  // Ship half a frame, then vanish: the server's stream is torn
  // mid-frame and must account the disconnect as such.
  Frame f;
  f.type = FrameType::kSnapshot;
  f.session = id;
  f.payload = std::string(64, 's');
  const std::string wire = encode_frame(f);
  ASSERT_TRUE(conn->send(std::string_view(wire).substr(0, 24)));
  conn->close();

  ASSERT_TRUE(wait_for([&] {
    return server.metrics().counter_value(
               "disconnects{cause=\"mid_frame\"}") == 1;
  }));
  server.stop();
  EXPECT_EQ(server.metrics().counter_value("sessions_closed"), 1u);
}

// The chaos acceptance scenario: eight sessions share one TCP server,
// four of them sending through fault-injecting transports with pinned
// fault schedules (so every counter below is exactly predictable), four
// clean. The clean sessions must be byte-for-byte undisturbed — their
// assignments equal a directly-driven tracker's — while the faulted
// ones converge via budget, resume, or fresh-session fallback. An obs
// endpoint is scraped mid-chaos while another HTTP client stalls.
TEST(Resilience, ChaosNeighborsStayHealthy) {
  TcpListener listener(0);
  ServerConfig cfg;
  cfg.worker_threads = 4;
  cfg.protocol_error_budget = 4;
  cfg.resume_grace = std::chrono::milliseconds(3000);
  cfg.read_timeout = std::chrono::milliseconds(3000);
  Server server(listener, cfg);
  server.start();

  obs::TraceBuffer trace(1024);
  obs::HttpEndpoint endpoint(
      0, obs::make_obs_handler(server.metrics(), trace),
      std::chrono::milliseconds(500));

  // A stalled scraper: connects, sends half a request line, never
  // finishes. It must not delay the real scrape below.
  const int stalled = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(stalled, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(stalled, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_GT(::send(stalled, "GET /met", 8, MSG_NOSIGNAL), 0);

  constexpr std::size_t kSessions = 8;
  // Pinned fault schedules per faulty session (odd indices). Budget is
  // 4, so two corruptions stay within budget while five quarantine.
  std::vector<FaultPlan> plans(kSessions);
  plans[1].events = {{2, FaultKind::kCorrupt}, {4, FaultKind::kCorrupt}};
  plans[3].events = {{5, FaultKind::kDisconnect}};
  // Five corruptions blow the budget of 4; the trailing disconnect
  // guarantees the client notices (instead of racing the server's RST
  // with buffered sends) and falls back to a fresh session.
  plans[5].events = {{1, FaultKind::kCorrupt}, {2, FaultKind::kCorrupt},
                     {3, FaultKind::kCorrupt}, {4, FaultKind::kCorrupt},
                     {5, FaultKind::kCorrupt}, {6, FaultKind::kDisconnect}};
  plans[7].events = {{2, FaultKind::kDrop}, {4, FaultKind::kDrop}};

  std::vector<std::vector<gmon::ProfileSnapshot>> streams(kSessions);
  std::vector<ReplayResult> results(kSessions);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kSessions; ++i) {
    streams[i] = synthetic_stream(i);
    const bool faulty = (i % 2) == 1;
    clients.emplace_back([&, i, faulty] {
      ReplayOptions opts;
      opts.client_name =
          std::string(faulty ? "chaos-" : "clean-") + std::to_string(i);
      opts.subscribe_events = !faulty;
      RetryPolicy policy;
      policy.max_attempts = 6;
      policy.initial_backoff = std::chrono::milliseconds(10);
      policy.seed = 77 + i;
      bool first = true;
      results[i] = replay_session_resilient(
          [&]() -> std::unique_ptr<Connection> {
            auto conn = tcp_connect("127.0.0.1", listener.port());
            if (faulty && first) {
              first = false;
              return std::make_unique<FaultInjectingConnection>(
                  std::move(conn), plans[i]);
            }
            return conn;
          },
          streams[i], opts, policy);
    });
  }

  // Scrape /metrics while the chaos runs and the other client stalls;
  // the response must arrive well within the endpoint deadline. Wait
  // for the first accept so the scrape really lands mid-chaos.
  ASSERT_TRUE(wait_for([&] {
    return server.metrics().counter_value("connections_accepted") > 0;
  }));
  const auto scrape_start = std::chrono::steady_clock::now();
  const int scraper = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(scraper, 0);
  ASSERT_EQ(::connect(scraper, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string req = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_GT(::send(scraper, req.data(), req.size(), MSG_NOSIGNAL), 0);
  std::string scrape;
  char buf[4096];
  for (;;) {
    const auto n = ::recv(scraper, buf, sizeof(buf), 0);
    if (n <= 0) break;
    scrape.append(buf, static_cast<std::size_t>(n));
  }
  ::close(scraper);
  const auto scrape_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - scrape_start)
          .count();
  EXPECT_NE(scrape.find("200 OK"), std::string::npos);
  EXPECT_NE(scrape.find("connections_accepted"), std::string::npos);
  EXPECT_LT(scrape_ms, 2000);

  for (auto& t : clients) t.join();
  ASSERT_TRUE(wait_for([&] {
    return server.metrics().counter_value("sessions_closed") >=
           kSessions;
  }));
  server.stop();
  ::close(stalled);
  endpoint.stop();

  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(results[i].ok)
        << "session " << i << ": " << results[i].error;
  }
  // Clean sessions: undisturbed, assignments equal direct trackers.
  for (std::size_t i = 0; i < kSessions; i += 2) {
    EXPECT_EQ(results[i].events.size(), streams[i].size()) << i;
    EXPECT_EQ(server.session_assignments(results[i].session_id),
              direct_assignments(streams[i]))
        << i;
    EXPECT_EQ(results[i].reconnects, 0u) << i;
  }
  // Faulted sessions: the counters match the injected schedules.
  const auto& m = server.metrics();
  // Session 5 blew its budget of 4 on the 5th corruption; sessions 1/7
  // stayed within budget; session 3 only disconnected.
  EXPECT_EQ(m.counter_value("sessions_quarantined"), 1u);
  // Rejected frames: 2 (session 1) + 5 until quarantine (session 5)
  // + session 5's resume-hello, refused with kUnknownSession.
  EXPECT_EQ(m.counter_value("frames_rejected"), 8u);
  // Session 3 resumed; session 5's fallback opens a fresh session.
  EXPECT_EQ(m.counter_value("reconnects"), 1u);
  EXPECT_EQ(m.counter_value("sessions_opened"), kSessions + 1);
  // The disconnect-only faulted session is lossless end to end.
  EXPECT_EQ(server.session_assignments(results[3].session_id),
            direct_assignments(streams[3]));
}

}  // namespace
}  // namespace incprof::service
