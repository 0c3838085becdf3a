#include "gmon/callgraph.hpp"

#include "../hex.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace incprof::gmon {
namespace {

CallEdge edge(std::string caller, std::string callee, std::int64_t count,
              std::int64_t time_ns) {
  CallEdge e;
  e.caller = std::move(caller);
  e.callee = std::move(callee);
  e.count = count;
  e.time_ns = time_ns;
  return e;
}

using incprof::testing::to_hex;

CallGraphSnapshot sample_graph() {
  CallGraphSnapshot g(3, 5'000'000'000);
  g.upsert(edge(std::string(kSpontaneous), "perform_elem_loop", 1, 0));
  g.upsert(edge("perform_elem_loop", "sum_in_symm_elem_matrix", 24000,
                11'820'000'000));
  g.upsert(edge("cg_solve", "matvec", 790, 3'000'000'000));
  g.upsert(edge("cg_solve", "dot", 1580, 1'000'000'000));
  return g;
}

TEST(CallGraph, EdgesSortedByCallerThenCallee) {
  const auto g = sample_graph();
  ASSERT_EQ(g.size(), 4u);
  EXPECT_EQ(g.edges()[0].caller, kSpontaneous);
  EXPECT_EQ(g.edges()[1].caller, "cg_solve");
  EXPECT_EQ(g.edges()[1].callee, "dot");
  EXPECT_EQ(g.edges()[2].callee, "matvec");
  EXPECT_EQ(g.edges()[3].caller, "perform_elem_loop");
}

TEST(CallGraph, UpsertOverwrites) {
  CallGraphSnapshot g;
  g.upsert(edge("a", "b", 1, 10));
  g.upsert(edge("a", "b", 5, 50));
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.find("a", "b")->count, 5);
}

TEST(CallGraph, AccumulateAddsAndCreates) {
  CallGraphSnapshot g;
  g.accumulate("a", "b", 1, 10);
  g.accumulate("a", "b", 2, 20);
  g.accumulate("a", "c", 1, 5);
  EXPECT_EQ(g.find("a", "b")->count, 3);
  EXPECT_EQ(g.find("a", "b")->time_ns, 30);
  EXPECT_EQ(g.find("a", "c")->count, 1);
}

TEST(CallGraph, FindMissingReturnsNull) {
  const auto g = sample_graph();
  EXPECT_EQ(g.find("nobody", "nothing"), nullptr);
  EXPECT_EQ(g.find("cg_solve", "nothing"), nullptr);
}

TEST(CallGraph, CallersAndCalleesQueries) {
  const auto g = sample_graph();
  const auto callers = g.callers_of("sum_in_symm_elem_matrix");
  ASSERT_EQ(callers.size(), 1u);
  EXPECT_EQ(callers[0]->caller, "perform_elem_loop");

  const auto callees = g.callees_of("cg_solve");
  ASSERT_EQ(callees.size(), 2u);
  EXPECT_EQ(callees[0]->callee, "dot");
  EXPECT_EQ(callees[1]->callee, "matvec");
}

TEST(CallGraph, TotalCallsInto) {
  CallGraphSnapshot g;
  g.upsert(edge("a", "x", 10, 0));
  g.upsert(edge("b", "x", 5, 0));
  g.upsert(edge(std::string(kSpontaneous), "x", 1, 0));
  EXPECT_EQ(g.total_calls_into("x"), 16);
  EXPECT_EQ(g.total_calls_into("y"), 0);
}

TEST(CallGraph, TextRoundTrip) {
  const auto g = sample_graph();
  const std::string text = format_call_graph(g);
  EXPECT_NE(text.find("Call graph:"), std::string::npos);
  const CallGraphSnapshot back = parse_call_graph(text);
  ASSERT_EQ(back.size(), g.size());
  for (const auto& e : g.edges()) {
    const CallEdge* p = back.find(e.caller, e.callee);
    ASSERT_NE(p, nullptr) << e.caller << "->" << e.callee;
    EXPECT_EQ(p->count, e.count);
    EXPECT_EQ(p->time_ns, e.time_ns);
  }
}

TEST(CallGraph, ParseRejectsMalformed) {
  EXPECT_THROW(parse_call_graph("no banner"), std::runtime_error);
  EXPECT_THROW(parse_call_graph("Call graph:\n"
                                "caller  calls  self-s  callee\n"
                                "a\n"
                                "   bogus row here\n"),
               std::runtime_error);
}

TEST(CallGraph, BinaryRoundTripPreservesSeqAndTimestamp) {
  const auto g = sample_graph();
  const CallGraphSnapshot back = decode_call_graph(encode_call_graph(g));
  EXPECT_EQ(back, g);
  EXPECT_EQ(back.seq(), 3u);
  EXPECT_EQ(back.timestamp_ns(), 5'000'000'000);
}

// callgraph.bin is written by the collector and read back by the
// analyzer, so its bytes are pinned: little-endian u32 magic "IPCG",
// version 1, seq, edge count, i64 timestamp, then per edge two
// u32-length names and two i64 fields.
TEST(CallGraph, BinaryEncodingIsPinnedByteForByte) {
  CallGraphSnapshot g(0x01020304, -2);
  g.upsert(edge("a", "bc", -1, 0x0102030405060708));
  EXPECT_EQ(to_hex(encode_call_graph(g)),
            "49504347"            // magic
            "01000000"            // version
            "04030201"            // seq
            "01000000"            // edge count
            "feffffffffffffff"    // timestamp_ns
            "01000000" "61"       // caller
            "02000000" "6263"     // callee
            "ffffffffffffffff"    // count
            "0807060504030201");  // time_ns
}

TEST(CallGraph, BinaryRejectsCorruption) {
  std::string bytes = encode_call_graph(sample_graph());
  EXPECT_THROW(decode_call_graph(bytes.substr(0, bytes.size() / 2)),
               std::runtime_error);
  bytes[0] = 'z';
  EXPECT_THROW(decode_call_graph(bytes), std::runtime_error);
  EXPECT_THROW(decode_call_graph(""), std::runtime_error);
}

}  // namespace
}  // namespace incprof::gmon
