// Client-side session replay: drive the full protocol conversation
// (hello / snapshots / heartbeat batches / query / bye), reconnecting
// and resuming when a connection is lost, from a snapshot stream (a
// loaded dump directory or an in-memory run). The conversation is
// written once and shared by incprof_client, incprofd --selftest, the
// examples and the tests, so every consumer speaks the protocol
// identically.
#pragma once

#include "ekg/heartbeat.hpp"
#include "gmon/snapshot.hpp"
#include "service/protocol.hpp"
#include "service/transport.hpp"

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace incprof::service {

/// How to replay a stream as one session.
struct ReplayOptions {
  /// Client identity reported in the hello.
  std::string client_name = "replay";
  /// Nominal collection interval reported in the hello, ns.
  std::uint64_t interval_ns = 1'000'000'000;
  /// Subscribe to kPhaseEvent pushes (the replayer drains them after
  /// the bye; leave off for pure ingest benchmarking).
  bool subscribe_events = false;
  /// Also request a kSessionStatus query reply before the bye.
  bool query_status = false;
  /// Heartbeat records to ship alongside the snapshots (optional).
  std::vector<ekg::HeartbeatRecord> heartbeats;
  /// Records per kHeartbeatBatch frame.
  std::size_t heartbeat_batch_size = 64;
  /// Distributed-trace id stamped into every frame this replay sends
  /// (v2 header). 0 = derive a fresh nonzero id from the client name
  /// and a process-wide counter; the id actually used is reported in
  /// ReplayResult::trace_id.
  std::uint64_t trace_id = 0;
};

/// What came back.
struct ReplayResult {
  /// False when the handshake failed or the connection died early.
  bool ok = false;
  std::string error;
  /// Server-assigned session id from the hello-ack.
  std::uint32_t session_id = 0;
  std::size_t snapshots_sent = 0;
  std::size_t heartbeat_records_sent = 0;
  /// Every phase event pushed back (subscribe_events only), in order.
  std::vector<PhaseEventPayload> events;
  /// The kSessionStatus reply text (query_status only).
  std::string status_text;
  /// Successful resumes after a lost connection.
  std::size_t reconnects = 0;
  /// Connection attempts consumed, including the first.
  std::size_t connect_attempts = 0;
  /// The trace id this session's frames carried (options.trace_id, or
  /// the derived one when that was 0). Grep for it in daemon logs or
  /// the merged /trace.json.
  std::uint64_t trace_id = 0;
};

/// Reconnect policy for replay_session_resilient: exponential backoff
/// with deterministic (seeded) jitter so retry schedules are replayable
/// yet de-synchronized across clients.
struct RetryPolicy {
  /// Connection attempts in total, including the first. 1 = no retry.
  std::size_t max_attempts = 5;
  std::chrono::milliseconds initial_backoff{20};
  double multiplier = 2.0;
  std::chrono::milliseconds max_backoff{2000};
  /// Each delay is scaled by a uniform factor in [1-jitter, 1+jitter].
  double jitter = 0.2;
  /// Seed for the jitter stream (vary per client).
  std::uint64_t seed = 0x5eed5eedULL;
};

/// Produces a fresh connection per attempt; return nullptr or throw to
/// signal a failed attempt (it is retried with backoff).
using ConnectFn = std::function<std::unique_ptr<Connection>()>;

/// Replays `snapshots` (cumulative, in seq order) as one complete
/// session — hello, snapshots, heartbeat batches, optional status query,
/// bye — then reads the connection to EOF collecting pushed events and
/// query replies. Blocking; run one per thread for parallel sessions.
/// Never throws for peer loss — inspect `ok`/`error`.
///
/// Survives connection loss: on a failed send the client reconnects
/// with exponential backoff + jitter and resumes the same session
/// (hello.resume_session_id), rewinding to the server's snapshot cursor
/// from the hello-ack so no interval is sent twice or skipped. A resume
/// rejected with kUnknownSession (session quarantined, reaped, or never
/// detached) falls back to a fresh session and replays from the start.
/// Gives up — `ok == false` — when `policy.max_attempts` connection
/// attempts are exhausted.
ReplayResult replay_session_resilient(
    const ConnectFn& connect,
    const std::vector<gmon::ProfileSnapshot>& snapshots,
    const ReplayOptions& options = {}, const RetryPolicy& policy = {});

/// The single-attempt case of replay_session_resilient over a
/// caller-owned connection: a lost connection ends the replay.
ReplayResult replay_session(Connection& conn,
                            const std::vector<gmon::ProfileSnapshot>& snapshots,
                            const ReplayOptions& options = {});

}  // namespace incprof::service
