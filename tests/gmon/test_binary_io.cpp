#include "gmon/binary_io.hpp"

#include "../hex.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
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
