#include "service/protocol.hpp"

#include "../hex.hpp"

#include <gtest/gtest.h>

namespace incprof::service {
namespace {

using incprof::testing::to_hex;

gmon::ProfileSnapshot sample_snapshot() {
  gmon::ProfileSnapshot snap(7, 7'000'000'000);
  gmon::FunctionProfile fp;
  fp.name = "solve";
  fp.self_ns = 900'000'000;
  fp.calls = 3;
  fp.inclusive_ns = 950'000'000;
  snap.upsert(fp);
  fp.name = "init";
  fp.self_ns = 100'000'000;
  fp.calls = 1;
  fp.inclusive_ns = 100'000'000;
  snap.upsert(fp);
  return snap;
}

TEST(Protocol, FrameRoundTripsByteForByte) {
  Frame f;
  f.type = FrameType::kSnapshot;
  f.session = 42;
  f.payload = "arbitrary \0 bytes";
  const std::string wire = encode_frame(f);
  EXPECT_EQ(wire.size(), kFrameHeaderSize + f.payload.size());
  const Frame back = decode_frame(wire);
  EXPECT_EQ(back, f);
  // Re-encoding reproduces identical wire bytes.
  EXPECT_EQ(encode_frame(back), wire);
}

// The wire format is what independently built clients and daemons
// share, so its bytes are pinned: the 28-byte little-endian header
// (magic "IPSV", version 2, type, session, payload length, trace id,
// parent span) and payloads that use every field width.
TEST(Protocol, WireBytesArePinned) {
  Frame f;
  f.type = FrameType::kSnapshot;
  f.session = 0x01020304;
  f.trace_id = 0x1122334455667788ull;
  f.parent_span = 0x9abcdef0u;
  f.payload = "xy";
  EXPECT_EQ(to_hex(encode_frame(f)),
            "49505356"           // magic
            "0200"               // version
            "0300"               // type
            "04030201"           // session
            "02000000"           // payload_len
            "8877665544332211"   // trace_id
            "f0debc9a"           // parent_span
            "7879");             // payload

  HelloPayload hello;
  hello.client_name = "c";
  hello.interval_ns = 0x0102030405060708ull;
  hello.subscribe_events = true;
  hello.resume_session_id = 9;
  EXPECT_EQ(to_hex(encode_hello(hello)),
            "01000000" "63"  // client_name
            "0807060504030201"
            "01"
            "09000000");

  HeartbeatBatchPayload batch;
  ekg::HeartbeatRecord rec;
  rec.interval = 3;
  rec.id = 4;
  rec.count = 5;
  rec.mean_duration_ns = 1.5;
  rec.max_duration_ns = -2.0;
  batch.records.push_back(rec);
  EXPECT_EQ(to_hex(encode_heartbeat_batch(batch)),
            "01000000"           // record count
            "03000000" "04000000"
            "0500000000000000"
            "000000000000f83f"   // 1.5
            "00000000000000c0"); // -2.0

  ProtocolErrorPayload err;
  err.code = ProtocolErrorCode::kQuarantined;
  err.errors = 2;
  err.budget = 1;
  err.message = "no";
  EXPECT_EQ(to_hex(encode_protocol_error(err)),
            "0400" "02000000" "01000000" "02000000" "6e6f");

  PhaseEventPayload ev;
  ev.interval = 6;
  ev.phase = 1;
  ev.new_phase = true;
  ev.distance = 0.25;
  EXPECT_EQ(to_hex(encode_phase_event(ev)),
            "06000000" "01000000" "01" "00"
            "000000000000d03f");  // 0.25
}

TEST(Protocol, HeaderCarriesPayloadLength) {
  Frame f;
  f.type = FrameType::kQuery;
  f.session = 9;
  f.payload = std::string(123, 'x');
  const std::string wire = encode_frame(f);
  EXPECT_EQ(frame_payload_length(wire.substr(0, kFrameHeaderSize)), 123u);
}

TEST(Protocol, DecodeRejectsCorruptFrames) {
  Frame f;
  f.type = FrameType::kBye;
  const std::string wire = encode_frame(f);

  std::string bad_magic = wire;
  bad_magic[0] = 'X';
  EXPECT_THROW(decode_frame(bad_magic), std::runtime_error);

  std::string bad_version = wire;
  bad_version[4] = 99;
  EXPECT_THROW(decode_frame(bad_version), std::runtime_error);

  std::string bad_type = wire;
  bad_type[6] = 77;
  EXPECT_THROW(decode_frame(bad_type), std::runtime_error);

  EXPECT_THROW(decode_frame(wire.substr(0, kFrameHeaderSize - 1)),
               std::runtime_error);
  EXPECT_THROW(decode_frame(wire + "trailing"), std::runtime_error);
}

TEST(Protocol, DecodeRejectsOversizedDeclaredLength) {
  Frame f;
  f.type = FrameType::kHello;
  std::string wire = encode_frame(f);
  // Patch payload_len (bytes 12..15) to an absurd value.
  wire[12] = '\xff';
  wire[13] = '\xff';
  wire[14] = '\xff';
  wire[15] = '\x7f';
  EXPECT_THROW(decode_frame(wire), std::runtime_error);
  EXPECT_THROW(frame_payload_length(wire), std::runtime_error);
}

TEST(Protocol, HelloRoundTrip) {
  HelloPayload p;
  p.client_name = "miniamr@host:1234";
  p.interval_ns = 1'000'000'000;
  p.subscribe_events = true;
  EXPECT_EQ(decode_hello(encode_hello(p)), p);

  const std::string frame_bytes = make_hello_frame(p);
  const Frame f = decode_frame(frame_bytes);
  EXPECT_EQ(f.type, FrameType::kHello);
  EXPECT_EQ(decode_hello(f.payload), p);
}

TEST(Protocol, HelloAckRoundTrip) {
  HelloAckPayload p;
  p.session_id = 31337;
  EXPECT_EQ(decode_hello_ack(encode_hello_ack(p)), p);
}

TEST(Protocol, HelloResumeFieldsRoundTrip) {
  HelloPayload p;
  p.client_name = "reconnecting-client";
  p.interval_ns = 500'000'000;
  p.subscribe_events = true;
  p.resume_session_id = 42;
  const HelloPayload back = decode_hello(encode_hello(p));
  EXPECT_EQ(back, p);
  EXPECT_EQ(back.resume_session_id, 42u);

  HelloAckPayload ack;
  ack.session_id = 42;
  ack.resume_next_interval = 137;
  const HelloAckPayload ack_back = decode_hello_ack(encode_hello_ack(ack));
  EXPECT_EQ(ack_back, ack);
  EXPECT_EQ(ack_back.resume_next_interval, 137u);
}

TEST(Protocol, ProtocolErrorRoundTrip) {
  ProtocolErrorPayload p;
  p.code = ProtocolErrorCode::kQuarantined;
  p.errors = 5;
  p.budget = 4;
  p.message = "too many malformed frames";
  EXPECT_EQ(decode_protocol_error(encode_protocol_error(p)), p);

  const std::string frame_bytes = make_protocol_error_frame(7, p);
  const Frame f = decode_frame(frame_bytes);
  EXPECT_EQ(f.type, FrameType::kProtocolError);
  EXPECT_EQ(f.session, 7u);
  EXPECT_EQ(decode_protocol_error(f.payload), p);

  // Unknown error codes are rejected, not misinterpreted.
  std::string bad = encode_protocol_error(p);
  bad[0] = 99;
  EXPECT_THROW(decode_protocol_error(bad), std::runtime_error);

  // Truncations at every byte boundary throw.
  const std::string bytes = encode_protocol_error(p);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(decode_protocol_error(bytes.substr(0, cut)),
                 std::runtime_error);
  }
}

TEST(Protocol, SnapshotPayloadIsTheGmonBinaryFormat) {
  const auto snap = sample_snapshot();
  const std::string frame_bytes = make_snapshot_frame(5, snap);
  const Frame f = decode_frame(frame_bytes);
  EXPECT_EQ(f.type, FrameType::kSnapshot);
  EXPECT_EQ(f.session, 5u);
  EXPECT_EQ(decode_snapshot(f.payload), snap);
}

TEST(Protocol, HeartbeatBatchRoundTrip) {
  HeartbeatBatchPayload p;
  for (std::uint32_t i = 0; i < 5; ++i) {
    ekg::HeartbeatRecord rec;
    rec.interval = i;
    rec.id = 100 + i;
    rec.count = 7 * (i + 1);
    rec.mean_duration_ns = 1234.5 * (i + 1);
    rec.max_duration_ns = 5000.25;
    p.records.push_back(rec);
  }
  EXPECT_EQ(decode_heartbeat_batch(encode_heartbeat_batch(p)), p);
  // Empty batches are legal.
  EXPECT_EQ(decode_heartbeat_batch(encode_heartbeat_batch({})).records.size(),
            0u);
}

TEST(Protocol, QueryAndReplyRoundTrip) {
  QueryPayload q;
  q.kind = QueryKind::kFleetSummary;
  EXPECT_EQ(decode_query(encode_query(q)), q);

  QueryReplyPayload r;
  r.kind = QueryKind::kFleetSummary;
  r.text = "fleet: 3 sessions\nwith, commas and \"quotes\"";
  EXPECT_EQ(decode_query_reply(encode_query_reply(r)), r);

  // Unknown query kinds are rejected, not misinterpreted.
  std::string bad = encode_query(q);
  bad[0] = 9;
  EXPECT_THROW(decode_query(bad), std::runtime_error);
}

TEST(Protocol, PhaseEventRoundTrip) {
  PhaseEventPayload p;
  p.interval = 17;
  p.phase = 3;
  p.new_phase = true;
  p.transition = true;
  p.distance = 0.6180339887;
  EXPECT_EQ(decode_phase_event(encode_phase_event(p)), p);
}

TEST(Protocol, DrainAndDrainAckRoundTrip) {
  const std::string drain = make_drain_frame();
  const Frame f = decode_frame(drain);
  EXPECT_EQ(f.type, FrameType::kDrain);
  EXPECT_EQ(f.session, 0u);  // sessionless control frame
  EXPECT_TRUE(f.payload.empty());

  DrainAckPayload ack;
  ack.sessions_closed = 17;
  EXPECT_EQ(decode_drain_ack(encode_drain_ack(ack)).sessions_closed, 17u);
  const Frame g = decode_frame(make_drain_ack_frame(ack));
  EXPECT_EQ(g.type, FrameType::kDrainAck);
  EXPECT_EQ(decode_drain_ack(g.payload).sessions_closed, 17u);
  EXPECT_THROW(decode_drain_ack(""), std::runtime_error);
  EXPECT_THROW(decode_drain_ack(g.payload + "x"), std::runtime_error);
}

TEST(Protocol, FleetStateQueryKindRoundTrips) {
  QueryPayload q;
  q.kind = QueryKind::kFleetState;
  EXPECT_EQ(decode_query(encode_query(q)), q);
  QueryReplyPayload r;
  r.kind = QueryKind::kFleetState;
  r.text = "incprof-shard-state v1\nshard 3 serving\n";
  EXPECT_EQ(decode_query_reply(encode_query_reply(r)), r);
}

TEST(Protocol, SessionIdShardPartitioning) {
  // The gateway derives a resume's owner from the id alone; these
  // identities are the wire contract behind that.
  EXPECT_EQ(session_id_shard(first_session_id_for_shard(0)), 0u);
  EXPECT_EQ(session_id_shard(first_session_id_for_shard(7)), 7u);
  EXPECT_EQ(session_id_shard(first_session_id_for_shard(kMaxShardId)),
            kMaxShardId);
  // A shard may mint a full block of ids before leaking into the next
  // shard's space.
  const std::uint32_t first = first_session_id_for_shard(3);
  EXPECT_EQ(session_id_shard(first + (1u << kSessionShardShift) - 2),
            3u);
  EXPECT_EQ(session_id_shard(first + (1u << kSessionShardShift) - 1),
            4u);
}

TEST(Protocol, TruncatedPayloadsThrow) {
  HelloPayload hello;
  hello.client_name = "abc";
  const std::string bytes = encode_hello(hello);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW(decode_hello(bytes.substr(0, cut)), std::runtime_error);
  }
}

}  // namespace
}  // namespace incprof::service
