// incprofd wire protocol. The paper ships AppEKG's per-interval records
// through LDMS, "a proven efficient and scalable data collector"
// (Section III-A); incprofd is the reproduction's stand-in for that
// monitoring-side endpoint, and this header defines the byte format the
// endpoint speaks. Every message is one self-delimiting frame: a fixed
// little-endian header followed by `payload_len` payload bytes.
//
//   magic       u32  'IPSV' (0x56535049)
//   version     u16  2 — the only version this build speaks
//   type        u16  FrameType
//   session     u32  server-assigned session id (0 before hello-ack)
//   payload_len u32
//   trace_id    u64  distributed-trace id (0 = untraced)
//   parent_span u32  sender's innermost span when the frame was built
//   payload     ...  type-specific, see the structs below
//
// Version 2 is the only version: version 1 (the 16-byte header without
// trace context) is no longer decoded, and a v1 peer gets no service.
// Stream framing is version-blind — every frame is delimited as a
// 28-byte header plus payload_len — so any other version, whether a
// corrupted byte or an old client, reaches decode_frame and is rejected
// there as a malformed frame, budgeted like any other. A v1 hello is 12
// bytes short of what the framer then waits for: if the peer sends
// more, the daemon answers one kProtocolError ("unsupported version 1";
// the pre-hello budget is 0) and closes; if it waits for an ack, the
// connection ends at the daemon's read deadline or idle reaper, or
// stays open until the peer gives up when both are off (DESIGN §8).
//
// Snapshot payloads reuse the gmon binary codec verbatim, so a dump file
// written by the collector is shippable without re-encoding.
#pragma once

#include "ekg/heartbeat.hpp"
#include "gmon/snapshot.hpp"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace incprof::service {

inline constexpr std::uint32_t kProtocolMagic = 0x56535049;  // "IPSV"
/// The version encode_frame emits and the only one decode_frame accepts.
inline constexpr std::uint16_t kProtocolVersion = 2;
/// Header bytes before every payload.
inline constexpr std::size_t kFrameHeaderSize = 28;
/// Upper bound on a single frame's payload; a decoder refuses anything
/// larger before allocating (a corrupt length must not OOM the daemon).
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

/// Every message kind the service speaks.
enum class FrameType : std::uint16_t {
  /// client -> server: open a session (HelloPayload).
  kHello = 1,
  /// server -> client: session accepted (HelloAckPayload).
  kHelloAck = 2,
  /// client -> server: one cumulative profile dump (gmon binary bytes).
  kSnapshot = 3,
  /// client -> server: a batch of AppEKG records (HeartbeatBatchPayload).
  kHeartbeatBatch = 4,
  /// client -> server: status request (QueryPayload).
  kQuery = 5,
  /// server -> client: answer to a query (QueryReplyPayload).
  kQueryReply = 6,
  /// server -> client: a tracker observation worth logging
  /// (PhaseEventPayload); sent only to subscribed sessions.
  kPhaseEvent = 7,
  /// client -> server: orderly end of session (empty payload).
  kBye = 8,
  /// server -> client: a frame was rejected (ProtocolErrorPayload).
  /// Sent once per rejected frame; when the session's error budget is
  /// exhausted the final one carries kQuarantined and the server
  /// disconnects.
  kProtocolError = 9,
  /// gateway -> shard: begin draining (empty payload, valid before any
  /// hello — a control-plane frame). The shard stops accepting fresh
  /// sessions (they are answered kRedirect) and force-closes every
  /// attached client connection so those clients reconnect through the
  /// gateway and land on surviving shards.
  kDrain = 10,
  /// shard -> gateway: drain acknowledged (DrainAckPayload).
  kDrainAck = 11,
};

/// True when `t` is a value this protocol version defines.
bool is_known_frame_type(std::uint16_t t) noexcept;

/// One decoded frame. `payload` is still type-opaque; decode it with the
/// matching payload decoder below. `trace_id`/`parent_span` are the
/// sender's distributed-trace context (zero from untraced senders); they
/// ride the frame through the daemon's session
/// queue so workers process it under the originating trace.
struct Frame {
  FrameType type = FrameType::kBye;
  std::uint32_t session = 0;
  std::uint64_t trace_id = 0;
  std::uint32_t parent_span = 0;
  std::string payload;

  bool operator==(const Frame&) const = default;
};

/// Serializes header + payload into wire bytes (current version).
std::string encode_frame(const Frame& frame);

/// Parses one complete frame. Throws std::runtime_error on bad magic,
/// unsupported version, unknown type, oversized or mismatched length,
/// or trailing bytes.
Frame decode_frame(std::string_view bytes);

/// Reads the payload length out of a frame header (≥ kFrameHeaderSize
/// bytes; for stream transports that must know how many bytes to wait
/// for). Validates magic and the payload bound, not the version, so a
/// bad version stays a decode_frame error; throws std::runtime_error.
std::uint32_t frame_payload_length(std::string_view header);

/// Trace context read straight off wire bytes, without decoding the
/// frame. Never throws: short, malformed, or other-version bytes yield
/// zeros — exactly the "untraced" context.
struct WireTraceContext {
  std::uint64_t trace_id = 0;
  std::uint32_t parent_span = 0;
};
WireTraceContext peek_trace_context(std::string_view bytes) noexcept;

// --- typed payloads ----------------------------------------------------

/// kHello: who is connecting and what it will send.
struct HelloPayload {
  /// Free-form client identity (host:pid, app name, ...).
  std::string client_name;
  /// The client's nominal collection interval, ns (0 = unknown).
  std::uint64_t interval_ns = 0;
  /// When true the server pushes kPhaseEvent frames back on every new
  /// phase / transition; pure ingest clients leave it off.
  bool subscribe_events = false;
  /// Non-zero: reattach to this previously-assigned session after a
  /// connection loss instead of opening a new one. The server accepts
  /// the resume only while the session is within its resume grace
  /// window; otherwise it answers with a kProtocolError
  /// (kUnknownSession) and the client must start fresh.
  std::uint32_t resume_session_id = 0;

  bool operator==(const HelloPayload&) const = default;
};

/// kHelloAck: the server's answer to a hello.
struct HelloAckPayload {
  std::uint32_t session_id = 0;
  std::uint16_t server_version = kProtocolVersion;
  /// Snapshot index the server expects next (count of snapshot frames
  /// it has accepted for this session). 0 for a fresh session; after a
  /// resume the client restarts its snapshot stream here, so frames
  /// lost in flight are re-sent exactly once.
  std::uint32_t resume_next_interval = 0;

  bool operator==(const HelloAckPayload&) const = default;
};

/// Why a frame was rejected.
enum class ProtocolErrorCode : std::uint16_t {
  /// The frame (or its payload) failed to decode.
  kMalformedFrame = 1,
  /// A well-formed frame arrived out of protocol order (e.g. a second
  /// hello, or data before any hello).
  kUnexpectedFrame = 2,
  /// A resume named a session the server no longer holds.
  kUnknownSession = 3,
  /// The session's error budget is exhausted; the server disconnects
  /// after sending this.
  kQuarantined = 4,
  /// The endpoint is draining and takes no new sessions; reconnect (a
  /// gateway will route the retry to another shard). `message` carries
  /// a human-readable hint.
  kRedirect = 5,
};

/// kProtocolError: the server's typed rejection notice.
struct ProtocolErrorPayload {
  ProtocolErrorCode code = ProtocolErrorCode::kMalformedFrame;
  /// Rejected frames this session so far (including this one).
  std::uint32_t errors = 0;
  /// The session's error budget (rejections tolerated before
  /// quarantine).
  std::uint32_t budget = 0;
  /// Human-readable reason.
  std::string message;

  bool operator==(const ProtocolErrorPayload&) const = default;
};

/// kHeartbeatBatch: AppEKG records of one or more intervals, in order.
struct HeartbeatBatchPayload {
  std::vector<ekg::HeartbeatRecord> records;

  bool operator==(const HeartbeatBatchPayload&) const = default;
};

/// kQuery: what the client wants to know.
enum class QueryKind : std::uint16_t {
  /// This session's tracker status, as one text line.
  kSessionStatus = 1,
  /// The whole-fleet report the daemon would print.
  kFleetSummary = 2,
  /// Machine-readable shard state (the fleet_state text codec): the
  /// per-session rows plus the metrics registry's counters,
  /// gauges, and histogram buckets — everything a gateway needs to
  /// merge shards. Valid before any hello (control plane).
  kFleetState = 3,
  /// The shard's retained trace-ring spans (the trace_wire text codec):
  /// what a gateway pulls to build the fleet-merged /trace.json. Valid
  /// before any hello (control plane).
  kTraceDump = 4,
};

struct QueryPayload {
  QueryKind kind = QueryKind::kSessionStatus;

  bool operator==(const QueryPayload&) const = default;
};

/// kQueryReply: human-readable answer body.
struct QueryReplyPayload {
  QueryKind kind = QueryKind::kSessionStatus;
  std::string text;

  bool operator==(const QueryReplyPayload&) const = default;
};

/// kDrainAck: the shard's answer to a kDrain control frame.
struct DrainAckPayload {
  /// Sessions that were attached when the drain began and have been
  /// force-closed (their clients will reconnect elsewhere).
  std::uint32_t sessions_closed = 0;

  bool operator==(const DrainAckPayload&) const = default;
};

/// kPhaseEvent: one OnlinePhaseTracker observation.
struct PhaseEventPayload {
  /// Interval index within the session's stream.
  std::uint32_t interval = 0;
  /// Phase the interval was assigned to.
  std::uint32_t phase = 0;
  bool new_phase = false;
  bool transition = false;
  /// Distance to the chosen centroid before the update.
  double distance = 0.0;

  bool operator==(const PhaseEventPayload&) const = default;
};

std::string encode_hello(const HelloPayload& p);
HelloPayload decode_hello(std::string_view bytes);

std::string encode_hello_ack(const HelloAckPayload& p);
HelloAckPayload decode_hello_ack(std::string_view bytes);

/// Snapshot payloads are the gmon binary format; these are thin wrappers
/// kept for symmetry (and so callers need not include gmon/binary_io).
std::string encode_snapshot(const gmon::ProfileSnapshot& snap);
gmon::ProfileSnapshot decode_snapshot(std::string_view bytes);

std::string encode_heartbeat_batch(const HeartbeatBatchPayload& p);
HeartbeatBatchPayload decode_heartbeat_batch(std::string_view bytes);

std::string encode_query(const QueryPayload& p);
QueryPayload decode_query(std::string_view bytes);

std::string encode_query_reply(const QueryReplyPayload& p);
QueryReplyPayload decode_query_reply(std::string_view bytes);

std::string encode_phase_event(const PhaseEventPayload& p);
PhaseEventPayload decode_phase_event(std::string_view bytes);

std::string encode_protocol_error(const ProtocolErrorPayload& p);
ProtocolErrorPayload decode_protocol_error(std::string_view bytes);

std::string encode_drain_ack(const DrainAckPayload& p);
DrainAckPayload decode_drain_ack(std::string_view bytes);

// --- whole-frame conveniences used throughout the service --------------

std::string make_hello_frame(const HelloPayload& p);
std::string make_hello_ack_frame(std::uint32_t session,
                                 const HelloAckPayload& p);
std::string make_snapshot_frame(std::uint32_t session,
                                const gmon::ProfileSnapshot& snap);
std::string make_heartbeat_batch_frame(std::uint32_t session,
                                       const HeartbeatBatchPayload& p);
std::string make_query_frame(std::uint32_t session, const QueryPayload& p);
std::string make_query_reply_frame(std::uint32_t session,
                                   const QueryReplyPayload& p);
std::string make_phase_event_frame(std::uint32_t session,
                                   const PhaseEventPayload& p);
std::string make_bye_frame(std::uint32_t session);
std::string make_protocol_error_frame(std::uint32_t session,
                                      const ProtocolErrorPayload& p);
std::string make_drain_frame();
std::string make_drain_ack_frame(const DrainAckPayload& p);

// --- session-id shard partitioning -------------------------------------
//
// In fleet mode every shard allocates session ids from a disjoint range
// so a gateway can recover a session's owner from the id alone: shard k
// hands out ids (k << kSessionShardShift) + 1, +2, ... . Shard 0 (the
// standalone daemon) therefore keeps the historical 1, 2, 3, ...
// numbering, and the id space gives each shard 2^20 sessions before the
// ranges could collide — far beyond a daemon lifetime.

inline constexpr std::uint32_t kSessionShardShift = 20;
/// Highest usable shard id: 12 bits remain above the shift, minus the
/// all-ones value so first_session_id_for_shard cannot overflow u32.
inline constexpr std::uint32_t kMaxShardId =
    (1u << (32 - kSessionShardShift)) - 2;

/// First session id shard `shard_id` hands out.
constexpr std::uint32_t first_session_id_for_shard(
    std::uint32_t shard_id) noexcept {
  return (shard_id << kSessionShardShift) + 1;
}

/// The shard that assigned `session_id` (inverse of the above).
constexpr std::uint32_t session_id_shard(std::uint32_t session_id) noexcept {
  return session_id >> kSessionShardShift;
}

}  // namespace incprof::service
