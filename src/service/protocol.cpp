#include "service/protocol.hpp"

#include "gmon/binary_io.hpp"
#include "obs/trace_context.hpp"
#include "util/bytes.hpp"

#include <stdexcept>

namespace incprof::service {

namespace {

using util::put_f64;
using util::put_str;
using util::put_u16;
using util::put_u32;
using util::put_u64;
using util::put_u8;

/// The reader every decoder below uses; its errors name the protocol.
util::ByteReader reader(std::string_view bytes) {
  return util::ByteReader(bytes, "service protocol", "truncated payload");
}

std::string frame_of(FrameType type, std::uint32_t session,
                     std::string payload) {
  Frame f;
  f.type = type;
  f.session = session;
  // Every frame built through the conveniences carries the sender
  // thread's trace context: a client replaying under a ScopedTraceContext
  // stamps its frames, and a server worker answering under the frame's
  // own context propagates it back — no per-call-site plumbing.
  const obs::TraceContext ctx = obs::current_trace_context();
  f.trace_id = ctx.trace_id;
  f.parent_span = ctx.span_id;
  f.payload = std::move(payload);
  return encode_frame(f);
}

}  // namespace

bool is_known_frame_type(std::uint16_t t) noexcept {
  return t >= static_cast<std::uint16_t>(FrameType::kHello) &&
         t <= static_cast<std::uint16_t>(FrameType::kDrainAck);
}

std::string encode_frame(const Frame& frame) {
  if (frame.payload.size() > kMaxPayloadBytes) {
    throw std::runtime_error("service protocol: payload too large");
  }
  std::string out;
  out.reserve(kFrameHeaderSize + frame.payload.size());
  put_u32(out, kProtocolMagic);
  put_u16(out, kProtocolVersion);
  put_u16(out, static_cast<std::uint16_t>(frame.type));
  put_u32(out, frame.session);
  put_u32(out, static_cast<std::uint32_t>(frame.payload.size()));
  put_u64(out, frame.trace_id);
  put_u32(out, frame.parent_span);
  out.append(frame.payload);
  return out;
}

Frame decode_frame(std::string_view bytes) {
  util::ByteReader r = reader(bytes);
  if (r.u32() != kProtocolMagic) {
    throw std::runtime_error("service protocol: bad magic");
  }
  const std::uint16_t version = r.u16();
  if (version != kProtocolVersion) {
    throw std::runtime_error("service protocol: unsupported version " +
                             std::to_string(version));
  }
  const std::uint16_t type = r.u16();
  if (!is_known_frame_type(type)) {
    throw std::runtime_error("service protocol: unknown frame type " +
                             std::to_string(type));
  }
  Frame f;
  f.type = static_cast<FrameType>(type);
  f.session = r.u32();
  const std::uint32_t len = r.u32();
  if (len > kMaxPayloadBytes) {
    throw std::runtime_error("service protocol: payload length " +
                             std::to_string(len) + " exceeds bound");
  }
  f.trace_id = r.u64();
  f.parent_span = r.u32();
  f.payload = r.str(len);
  r.expect_end("frame");
  return f;
}

std::uint32_t frame_payload_length(std::string_view header) {
  if (header.size() < kFrameHeaderSize) {
    throw std::runtime_error("service protocol: short frame header");
  }
  util::ByteReader r = reader(header);
  if (r.u32() != kProtocolMagic) {
    throw std::runtime_error("service protocol: bad magic");
  }
  r.u16();  // version: decode_frame rejects a bad one, budgeted
  r.u16();  // type
  r.u32();  // session
  const std::uint32_t len = r.u32();
  if (len > kMaxPayloadBytes) {
    throw std::runtime_error("service protocol: payload length " +
                             std::to_string(len) + " exceeds bound");
  }
  return len;
}

WireTraceContext peek_trace_context(std::string_view bytes) noexcept {
  // Past the size check every read below is in bounds, so none throws.
  if (bytes.size() < kFrameHeaderSize) return {};
  util::ByteReader r = reader(bytes);
  if (r.u32() != kProtocolMagic || r.u16() != kProtocolVersion) return {};
  r.u16();  // type
  r.u32();  // session
  r.u32();  // payload_len
  WireTraceContext ctx;
  ctx.trace_id = r.u64();
  ctx.parent_span = r.u32();
  return ctx;
}

std::string encode_hello(const HelloPayload& p) {
  std::string out;
  put_str(out, p.client_name);
  put_u64(out, p.interval_ns);
  put_u8(out, p.subscribe_events ? 1 : 0);
  put_u32(out, p.resume_session_id);
  return out;
}

HelloPayload decode_hello(std::string_view bytes) {
  util::ByteReader r = reader(bytes);
  HelloPayload p;
  p.client_name = r.str();
  p.interval_ns = r.u64();
  p.subscribe_events = r.u8() != 0;
  p.resume_session_id = r.u32();
  r.expect_end("hello");
  return p;
}

std::string encode_hello_ack(const HelloAckPayload& p) {
  std::string out;
  put_u32(out, p.session_id);
  put_u16(out, p.server_version);
  put_u32(out, p.resume_next_interval);
  return out;
}

HelloAckPayload decode_hello_ack(std::string_view bytes) {
  util::ByteReader r = reader(bytes);
  HelloAckPayload p;
  p.session_id = r.u32();
  p.server_version = r.u16();
  p.resume_next_interval = r.u32();
  r.expect_end("hello-ack");
  return p;
}

std::string encode_snapshot(const gmon::ProfileSnapshot& snap) {
  return gmon::encode_binary(snap);
}

gmon::ProfileSnapshot decode_snapshot(std::string_view bytes) {
  return gmon::decode_binary(bytes);
}

std::string encode_heartbeat_batch(const HeartbeatBatchPayload& p) {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(p.records.size()));
  for (const auto& rec : p.records) {
    put_u32(out, rec.interval);
    put_u32(out, rec.id);
    put_u64(out, rec.count);
    put_f64(out, rec.mean_duration_ns);
    put_f64(out, rec.max_duration_ns);
  }
  return out;
}

HeartbeatBatchPayload decode_heartbeat_batch(std::string_view bytes) {
  util::ByteReader r = reader(bytes);
  HeartbeatBatchPayload p;
  const std::uint32_t count = r.u32();
  p.records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ekg::HeartbeatRecord rec;
    rec.interval = r.u32();
    rec.id = r.u32();
    rec.count = r.u64();
    rec.mean_duration_ns = r.f64();
    rec.max_duration_ns = r.f64();
    p.records.push_back(rec);
  }
  r.expect_end("heartbeat-batch");
  return p;
}

std::string encode_query(const QueryPayload& p) {
  std::string out;
  put_u16(out, static_cast<std::uint16_t>(p.kind));
  return out;
}

QueryPayload decode_query(std::string_view bytes) {
  util::ByteReader r = reader(bytes);
  QueryPayload p;
  const std::uint16_t kind = r.u16();
  if (kind < static_cast<std::uint16_t>(QueryKind::kSessionStatus) ||
      kind > static_cast<std::uint16_t>(QueryKind::kTraceDump)) {
    throw std::runtime_error("service protocol: unknown query kind " +
                             std::to_string(kind));
  }
  p.kind = static_cast<QueryKind>(kind);
  r.expect_end("query");
  return p;
}

std::string encode_query_reply(const QueryReplyPayload& p) {
  std::string out;
  put_u16(out, static_cast<std::uint16_t>(p.kind));
  put_str(out, p.text);
  return out;
}

QueryReplyPayload decode_query_reply(std::string_view bytes) {
  util::ByteReader r = reader(bytes);
  QueryReplyPayload p;
  p.kind = static_cast<QueryKind>(r.u16());
  p.text = r.str();
  r.expect_end("query-reply");
  return p;
}

std::string encode_phase_event(const PhaseEventPayload& p) {
  std::string out;
  put_u32(out, p.interval);
  put_u32(out, p.phase);
  put_u8(out, p.new_phase ? 1 : 0);
  put_u8(out, p.transition ? 1 : 0);
  put_f64(out, p.distance);
  return out;
}

PhaseEventPayload decode_phase_event(std::string_view bytes) {
  util::ByteReader r = reader(bytes);
  PhaseEventPayload p;
  p.interval = r.u32();
  p.phase = r.u32();
  p.new_phase = r.u8() != 0;
  p.transition = r.u8() != 0;
  p.distance = r.f64();
  r.expect_end("phase-event");
  return p;
}

std::string encode_protocol_error(const ProtocolErrorPayload& p) {
  std::string out;
  put_u16(out, static_cast<std::uint16_t>(p.code));
  put_u32(out, p.errors);
  put_u32(out, p.budget);
  put_str(out, p.message);
  return out;
}

ProtocolErrorPayload decode_protocol_error(std::string_view bytes) {
  util::ByteReader r = reader(bytes);
  ProtocolErrorPayload p;
  const std::uint16_t code = r.u16();
  if (code < static_cast<std::uint16_t>(ProtocolErrorCode::kMalformedFrame) ||
      code > static_cast<std::uint16_t>(ProtocolErrorCode::kRedirect)) {
    throw std::runtime_error("service protocol: unknown error code " +
                             std::to_string(code));
  }
  p.code = static_cast<ProtocolErrorCode>(code);
  p.errors = r.u32();
  p.budget = r.u32();
  p.message = r.str();
  r.expect_end("protocol-error");
  return p;
}

std::string make_hello_frame(const HelloPayload& p) {
  return frame_of(FrameType::kHello, 0, encode_hello(p));
}

std::string make_hello_ack_frame(std::uint32_t session,
                                 const HelloAckPayload& p) {
  return frame_of(FrameType::kHelloAck, session, encode_hello_ack(p));
}

std::string make_snapshot_frame(std::uint32_t session,
                                const gmon::ProfileSnapshot& snap) {
  return frame_of(FrameType::kSnapshot, session, encode_snapshot(snap));
}

std::string make_heartbeat_batch_frame(std::uint32_t session,
                                       const HeartbeatBatchPayload& p) {
  return frame_of(FrameType::kHeartbeatBatch, session,
                  encode_heartbeat_batch(p));
}

std::string make_query_frame(std::uint32_t session, const QueryPayload& p) {
  return frame_of(FrameType::kQuery, session, encode_query(p));
}

std::string make_query_reply_frame(std::uint32_t session,
                                   const QueryReplyPayload& p) {
  return frame_of(FrameType::kQueryReply, session, encode_query_reply(p));
}

std::string make_phase_event_frame(std::uint32_t session,
                                   const PhaseEventPayload& p) {
  return frame_of(FrameType::kPhaseEvent, session, encode_phase_event(p));
}

std::string make_bye_frame(std::uint32_t session) {
  return frame_of(FrameType::kBye, session, std::string());
}

std::string make_protocol_error_frame(std::uint32_t session,
                                      const ProtocolErrorPayload& p) {
  return frame_of(FrameType::kProtocolError, session,
                  encode_protocol_error(p));
}

std::string encode_drain_ack(const DrainAckPayload& p) {
  std::string out;
  put_u32(out, p.sessions_closed);
  return out;
}

DrainAckPayload decode_drain_ack(std::string_view bytes) {
  util::ByteReader r = reader(bytes);
  DrainAckPayload p;
  p.sessions_closed = r.u32();
  r.expect_end("drain-ack");
  return p;
}

std::string make_drain_frame() {
  return frame_of(FrameType::kDrain, 0, std::string());
}

std::string make_drain_ack_frame(const DrainAckPayload& p) {
  return frame_of(FrameType::kDrainAck, 0, encode_drain_ack(p));
}

}  // namespace incprof::service
