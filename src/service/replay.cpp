#include "service/replay.hpp"

#include "obs/trace_context.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

namespace incprof::service {

namespace {

/// Derives a nonzero per-session trace id: the next output of a
/// splitmix64 stream seeded with the client name's hash, stepped by a
/// process-wide counter, so concurrent sessions of one client get
/// distinct ids.
std::uint64_t derive_trace_id(const std::string& client_name) {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t z = util::splitmix64_mix(
      util::hash_string(client_name) +
      0x9e3779b97f4a7c15ull *
          counter.fetch_add(1, std::memory_order_relaxed));
  return z != 0 ? z : 1;
}

/// Backoff before retry number `retry` (0-based): exponential growth
/// capped at max_backoff, scaled by seeded jitter.
std::chrono::milliseconds backoff_delay(const RetryPolicy& policy,
                                        std::size_t retry,
                                        util::Rng& rng) {
  double ms = static_cast<double>(policy.initial_backoff.count()) *
              std::pow(policy.multiplier, static_cast<double>(retry));
  ms = std::min(ms, static_cast<double>(policy.max_backoff.count()));
  const double factor =
      1.0 + policy.jitter * (2.0 * rng.next_double() - 1.0);
  ms = std::max(0.0, ms * factor);
  return std::chrono::milliseconds(static_cast<std::int64_t>(ms));
}

/// The one client conversation: hello -> ack -> snapshots -> heartbeat
/// batches -> query -> bye -> drain to EOF, over up to
/// `policy.max_attempts` connections from `connect`. A lost connection
/// reconnects with backoff and resumes the session from the server's
/// snapshot cursor; a resume the server no longer knows restarts the
/// session from scratch.
ReplayResult converse(
    const std::function<std::shared_ptr<Connection>()>& connect,
    const std::vector<gmon::ProfileSnapshot>& snapshots,
    const ReplayOptions& options, const RetryPolicy& policy) {
  ReplayResult result;
  // Originate the trace: with the context installed, every frame built
  // below (frame_of) carries the id on the wire, and the daemon's spans
  // for this session's frames join one end-to-end trace.
  result.trace_id = options.trace_id != 0
                        ? options.trace_id
                        : derive_trace_id(options.client_name);
  obs::ScopedTraceContext trace_scope({result.trace_id, 0});
  util::Rng rng(policy.seed);
  std::shared_ptr<Connection> conn;
  std::size_t snap_cursor = 0;  // next snapshot index to send
  std::size_t hb_cursor = 0;    // next heartbeat record index
  bool query_sent = false;
  bool bye_sent = false;
  std::uint32_t session_id = 0;  // known id, 0 until the first ack
  std::string last_error = "no connection attempt made";

  for (;;) {
    if (!conn) {
      if (result.connect_attempts >= policy.max_attempts) {
        result.error = "gave up after " +
                       std::to_string(result.connect_attempts) +
                       (result.connect_attempts == 1 ? " attempt: "
                                                     : " attempts: ") +
                       last_error;
        return result;
      }
      if (result.connect_attempts > 0) {
        std::this_thread::sleep_for(
            backoff_delay(policy, result.connect_attempts - 1, rng));
      }
      ++result.connect_attempts;
      try {
        conn = connect();
      } catch (const std::exception& e) {
        last_error = std::string("connect: ") + e.what();
        continue;
      }
      if (!conn) {
        last_error = "connect failed";
        continue;
      }

      HelloPayload hello;
      hello.client_name = options.client_name;
      hello.interval_ns = options.interval_ns;
      hello.subscribe_events = options.subscribe_events;
      hello.resume_session_id = session_id;
      if (!conn->send(make_hello_frame(hello))) {
        conn.reset();
        last_error = "send hello failed";
        continue;
      }
      const auto ack_bytes = conn->receive();
      if (!ack_bytes) {
        conn.reset();
        last_error = "connection closed before hello-ack";
        continue;
      }
      try {
        const Frame ack_frame = decode_frame(*ack_bytes);
        if (ack_frame.type == FrameType::kProtocolError) {
          const auto err = decode_protocol_error(ack_frame.payload);
          conn.reset();
          last_error = "server rejected hello: " + err.message;
          if (err.code == ProtocolErrorCode::kUnknownSession &&
              session_id != 0) {
            // The session is gone server-side (quarantined, reaped, or
            // already closed); start over as a fresh one.
            session_id = 0;
            snap_cursor = 0;
            hb_cursor = 0;
            query_sent = false;
            bye_sent = false;
            result.snapshots_sent = 0;
            result.heartbeat_records_sent = 0;
            result.events.clear();
          }
          continue;
        }
        if (ack_frame.type != FrameType::kHelloAck) {
          result.error = "expected hello-ack, got frame type " +
                         std::to_string(static_cast<int>(ack_frame.type));
          return result;
        }
        const HelloAckPayload ack = decode_hello_ack(ack_frame.payload);
        if (session_id != 0) {
          // Resumed: rewind to the server's cursor so every interval it
          // never accepted is sent again, and none twice.
          snap_cursor = std::min(
              static_cast<std::size_t>(ack.resume_next_interval),
              snapshots.size());
          result.snapshots_sent = snap_cursor;
          ++result.reconnects;
        }
        session_id = ack.session_id;
        result.session_id = session_id;
      } catch (const std::exception& e) {
        conn.reset();
        last_error = e.what();
        continue;
      }
    }

    bool lost = false;
    while (snap_cursor < snapshots.size()) {
      if (!conn->send(
              make_snapshot_frame(session_id, snapshots[snap_cursor]))) {
        lost = true;
        break;
      }
      ++snap_cursor;
      result.snapshots_sent = snap_cursor;
    }
    while (!lost && hb_cursor < options.heartbeats.size()) {
      HeartbeatBatchPayload batch;
      const std::size_t end =
          std::min(hb_cursor + options.heartbeat_batch_size,
                   options.heartbeats.size());
      batch.records.assign(options.heartbeats.begin() +
                               static_cast<std::ptrdiff_t>(hb_cursor),
                           options.heartbeats.begin() +
                               static_cast<std::ptrdiff_t>(end));
      if (!conn->send(make_heartbeat_batch_frame(session_id, batch))) {
        lost = true;
        break;
      }
      result.heartbeat_records_sent += batch.records.size();
      hb_cursor = end;
    }
    if (!lost && options.query_status && !query_sent) {
      QueryPayload query;
      query.kind = QueryKind::kSessionStatus;
      if (conn->send(make_query_frame(session_id, query))) {
        query_sent = true;
      } else {
        lost = true;
      }
    }
    if (!lost && !bye_sent) {
      if (conn->send(make_bye_frame(session_id))) {
        bye_sent = true;
      } else {
        lost = true;
      }
    }
    if (lost) {
      conn->close();
      conn.reset();
      last_error = "connection lost mid-replay";
      continue;
    }

    // Drain until the server closes: phase events (if subscribed) and
    // the query reply arrive in stream order, so everything is here by
    // EOF. After a clean bye the session is over, so a drain failure is
    // terminal (there is nothing to resume).
    try {
      while (auto bytes = conn->receive()) {
        const Frame frame = decode_frame(*bytes);
        if (frame.type == FrameType::kPhaseEvent) {
          result.events.push_back(decode_phase_event(frame.payload));
        } else if (frame.type == FrameType::kQueryReply) {
          result.status_text = decode_query_reply(frame.payload).text;
        }
      }
    } catch (const std::exception& e) {
      result.error = e.what();
      return result;
    }
    result.ok = true;
    return result;
  }
}

}  // namespace

ReplayResult replay_session(
    Connection& conn, const std::vector<gmon::ProfileSnapshot>& snapshots,
    const ReplayOptions& options) {
  // The single-attempt case: the caller's connection, borrowed (no-op
  // deleter), is the only attempt.
  RetryPolicy once;
  once.max_attempts = 1;
  const auto borrow = [&conn] {
    return std::shared_ptr<Connection>(&conn, [](Connection*) {});
  };
  return converse(borrow, snapshots, options, once);
}

ReplayResult replay_session_resilient(
    const ConnectFn& connect,
    const std::vector<gmon::ProfileSnapshot>& snapshots,
    const ReplayOptions& options, const RetryPolicy& policy) {
  return converse(
      [&connect] { return std::shared_ptr<Connection>(connect()); },
      snapshots, options, policy);
}

}  // namespace incprof::service
