#include "gmon/binary_io.hpp"

#include "util/bytes.hpp"

#include "../hex.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <unistd.h>

namespace incprof::gmon {
namespace {

using incprof::testing::to_hex;

ProfileSnapshot sample_snapshot() {
  ProfileSnapshot s(42, 987654321);
  FunctionProfile a;
  a.name = "validate_bfs_result";
  a.self_ns = 1'170'000'000;
  a.calls = 12;
  a.inclusive_ns = 1'170'000'000;
  s.upsert(a);
  FunctionProfile b;
  b.name = "PairLJCut::compute";  // punctuation must survive
  b.self_ns = 7;
  b.calls = 0;
  b.inclusive_ns = 9;
  s.upsert(b);
  return s;
}

TEST(BinaryIo, RoundTripPreservesEverything) {
  const ProfileSnapshot s = sample_snapshot();
  const ProfileSnapshot back = decode_binary(encode_binary(s));
  EXPECT_EQ(back, s);
}

// The dump file format is read back across versions of this code base,
// so its bytes are pinned: little-endian u32 magic "IPGM", version 1,
// seq, function count, i64 timestamp, then per function a u32-length
// name and three i64 fields.
TEST(BinaryIo, EncodingIsPinnedByteForByte) {
  ProfileSnapshot s(0x01020304, -2);
  FunctionProfile fp;
  fp.name = "f";
  fp.self_ns = 1;
  fp.calls = -1;
  fp.inclusive_ns = 0x0102030405060708;
  s.upsert(fp);
  EXPECT_EQ(to_hex(encode_binary(s)),
            "4950474d"           // magic
            "01000000"           // version
            "04030201"           // seq
            "01000000"           // function count
            "feffffffffffffff"   // timestamp_ns
            "01000000" "66"      // name
            "0100000000000000"   // self_ns
            "ffffffffffffffff"   // calls
            "0807060504030201"); // inclusive_ns
}

TEST(BinaryIo, EmptySnapshotRoundTrips) {
  const ProfileSnapshot s(0, 0);
  EXPECT_EQ(decode_binary(encode_binary(s)), s);
}

TEST(BinaryIo, BadMagicThrows) {
  std::string bytes = encode_binary(sample_snapshot());
  bytes[0] = 'X';
  EXPECT_THROW(decode_binary(bytes), std::runtime_error);
}

TEST(BinaryIo, UnsupportedVersionThrows) {
  std::string bytes = encode_binary(sample_snapshot());
  bytes[4] = 99;
  EXPECT_THROW(decode_binary(bytes), std::runtime_error);
}

TEST(BinaryIo, TruncationThrows) {
  const std::string bytes = encode_binary(sample_snapshot());
  for (const std::size_t cut : {std::size_t{1}, std::size_t{4},
                                std::size_t{10}, bytes.size() - 1}) {
    EXPECT_THROW(decode_binary(std::string_view(bytes).substr(0, cut)),
                 std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(BinaryIo, TrailingGarbageThrows) {
  std::string bytes = encode_binary(sample_snapshot());
  bytes += "junk";
  EXPECT_THROW(decode_binary(bytes), std::runtime_error);
}

TEST(BinaryIo, EmptyInputThrows) {
  EXPECT_THROW(decode_binary(""), std::runtime_error);
}

/// Header of a snapshot claiming `count` rows; the rows are appended by
/// the caller.
std::string header(std::uint32_t count) {
  std::string out;
  util::put_u32(out, 0x4d475049);  // "IPGM"
  util::put_u32(out, 1);
  util::put_u32(out, 7);  // seq
  util::put_u32(out, count);
  util::put_i64(out, 1000);  // timestamp_ns
  return out;
}

void put_row(std::string& out, std::string_view name, std::int64_t self_ns,
             std::int64_t calls, std::int64_t inclusive_ns) {
  util::put_str(out, name);
  util::put_i64(out, self_ns);
  util::put_i64(out, calls);
  util::put_i64(out, inclusive_ns);
}

/// decode_binary's error for a one-row snapshot with these counters, or
/// "" when it decodes.
std::string one_row_error(std::int64_t self_ns, std::int64_t calls,
                          std::int64_t inclusive_ns) {
  std::string bytes = header(1);
  put_row(bytes, "f", self_ns, calls, inclusive_ns);
  try {
    (void)decode_binary(bytes);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// gprof counters are never negative; a decoded one would reach the
// unchecked subtraction in gmon::difference_into (DESIGN §2).
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

TEST(BinaryIo, NegativeSelfNsThrows) {
  EXPECT_EQ(one_row_error(-1, 0, 0), "gmon binary: negative self_ns");
  EXPECT_EQ(one_row_error(kMin, 0, 0), "gmon binary: negative self_ns");
}

TEST(BinaryIo, NegativeCallsThrows) {
  EXPECT_EQ(one_row_error(0, -1, 0), "gmon binary: negative calls");
  EXPECT_EQ(one_row_error(0, kMin, 0), "gmon binary: negative calls");
}

TEST(BinaryIo, NegativeInclusiveNsThrows) {
  EXPECT_EQ(one_row_error(0, 0, -1), "gmon binary: negative inclusive_ns");
  EXPECT_EQ(one_row_error(0, 0, kMin), "gmon binary: negative inclusive_ns");
}

TEST(BinaryIo, ZeroAndMaximalCountersDecode) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(one_row_error(0, 0, 0), "");
  EXPECT_EQ(one_row_error(kMax, kMax, kMax), "");
}

// The row reservation is capped by the bytes left (28 a row at least),
// so a hostile count neither allocates for it nor hides the truncation.
TEST(BinaryIo, HostileRowCountGivesTruncationNotAnAllocation) {
  std::string bytes = header(0xFFFFFFFFu);
  put_row(bytes, "ab", 1, 2, 3);  // 30 bytes: one whole row
  ASSERT_EQ(bytes.size(), 24u + 30u);
  try {
    (void)decode_binary(bytes);
    FAIL() << "decoded a snapshot claiming 2^32 - 1 rows";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "gmon binary: truncated snapshot");
  }
}

// The encoder writes names ascending, and the decoder appends those
// without a search; rows out of order or repeated still land sorted,
// the last row of a name winning.
TEST(BinaryIo, UnsortedAndRepeatedNamesDecodeSortedLastRowWins) {
  std::string bytes = header(5);
  put_row(bytes, "m", 1, 1, 1);
  put_row(bytes, "z", 2, 2, 2);
  put_row(bytes, "a", 3, 3, 3);
  put_row(bytes, "m", 4, 4, 4);
  put_row(bytes, "z", 5, 5, 5);
  const ProfileSnapshot snap = decode_binary(bytes);
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.functions()[0], (FunctionProfile{"a", 3, 3, 3}));
  EXPECT_EQ(snap.functions()[1], (FunctionProfile{"m", 4, 4, 4}));
  EXPECT_EQ(snap.functions()[2], (FunctionProfile{"z", 5, 5, 5}));
  EXPECT_EQ(snap.seq(), 7u);
  EXPECT_EQ(snap.timestamp_ns(), 1000);
}

class BinaryFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("incprof_binio_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(BinaryFileTest, FileRoundTrip) {
  const ProfileSnapshot s = sample_snapshot();
  const auto path = dir_ / "gmon-000042.out";
  write_binary_file(s, path);
  EXPECT_EQ(read_binary_file(path), s);
}

TEST_F(BinaryFileTest, ReadMissingFileThrows) {
  EXPECT_THROW(read_binary_file(dir_ / "nope.out"), std::runtime_error);
}

TEST_F(BinaryFileTest, WriteToMissingDirectoryThrows) {
  EXPECT_THROW(
      write_binary_file(sample_snapshot(), dir_ / "no" / "such" / "dir.out"),
      std::runtime_error);
}

}  // namespace
}  // namespace incprof::gmon
