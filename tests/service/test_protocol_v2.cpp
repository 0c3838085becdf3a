// Version-2 framing: the trace context rides the header, and every
// other version — the pre-tracing version 1 included — is rejected.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace incprof::service {
namespace {

Frame traced_frame() {
  Frame frame;
  frame.type = FrameType::kSnapshot;
  frame.session = 12;
  frame.trace_id = 0x1122334455667788ull;
  frame.parent_span = 0x9abcdef0u;
  frame.payload = "payload-bytes";
  return frame;
}

TEST(ProtocolV2, RoundTripsTraceContext) {
  const Frame frame = traced_frame();
  const std::string bytes = encode_frame(frame);
  EXPECT_EQ(bytes.size(), kFrameHeaderSize + frame.payload.size());
  const Frame back = decode_frame(bytes);
  EXPECT_EQ(back, frame);
}

TEST(ProtocolV2, PeekReadsContextWithoutDecoding) {
  const Frame frame = traced_frame();
  const WireTraceContext ctx = peek_trace_context(encode_frame(frame));
  EXPECT_EQ(ctx.trace_id, frame.trace_id);
  EXPECT_EQ(ctx.parent_span, frame.parent_span);
}

TEST(ProtocolV2, PeekNeverThrows) {
  // Short, empty, wrong-magic, and other-version inputs all peek as
  // untraced.
  EXPECT_EQ(peek_trace_context("").trace_id, 0u);
  EXPECT_EQ(peek_trace_context("short").trace_id, 0u);
  std::string garbage(kFrameHeaderSize, '\xff');
  EXPECT_EQ(peek_trace_context(garbage).trace_id, 0u);
  std::string other_version = encode_frame(traced_frame());
  other_version[4] = 1;
  EXPECT_EQ(peek_trace_context(other_version).trace_id, 0u);
  // A header cut one byte short: the context is not all there to read,
  // so the peek reports untraced rather than over-reading.
  const std::string truncated =
      encode_frame(traced_frame()).substr(0, kFrameHeaderSize - 1);
  EXPECT_EQ(peek_trace_context(truncated).trace_id, 0u);
}

TEST(ProtocolV2, DecodeRejectsUnsupportedVersion) {
  const std::string v2 = encode_frame(traced_frame());
  std::string clobbered = v2;
  clobbered[4] = 0x7f;  // clobber the version field
  // A version-1 frame as a pre-tracing client wrote it: the 16-byte
  // header (magic, version 1, type, session, length), then the payload.
  std::string v1 = v2.substr(0, 16) + traced_frame().payload;
  v1[4] = 1;
  for (const std::string& bytes : {clobbered, v1}) {
    EXPECT_THROW(decode_frame(bytes), std::runtime_error);
  }
}

}  // namespace
}  // namespace incprof::service
