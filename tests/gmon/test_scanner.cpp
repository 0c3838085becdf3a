#include "gmon/scanner.hpp"

#include "gmon/binary_io.hpp"
#include "gmon/flat_text.hpp"
#include "util/bytes.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <unistd.h>

namespace incprof::gmon {
namespace {

ProfileSnapshot snap(std::uint32_t seq, std::int64_t self_ns) {
  ProfileSnapshot s(seq, static_cast<std::int64_t>(seq) * 1'000'000'000);
  FunctionProfile f;
  f.name = "work";
  f.self_ns = self_ns;
  f.calls = seq + 1;
  f.inclusive_ns = self_ns;
  s.upsert(f);
  return s;
}

TEST(DumpNames, ZeroPaddedAndParseable) {
  EXPECT_EQ(binary_dump_name(0), "gmon-000000.out");
  EXPECT_EQ(binary_dump_name(42), "gmon-000042.out");
  EXPECT_EQ(text_dump_name(7), "flat-000007.txt");

  std::uint32_t seq = 99;
  EXPECT_TRUE(parse_dump_seq("gmon-000042.out", seq));
  EXPECT_EQ(seq, 42u);
  EXPECT_TRUE(parse_dump_seq("flat-000007.txt", seq));
  EXPECT_EQ(seq, 7u);
}

TEST(DumpNames, RejectsForeignNames) {
  std::uint32_t seq = 0;
  EXPECT_FALSE(parse_dump_seq("gmon.out", seq));
  EXPECT_FALSE(parse_dump_seq("gmon-xyz.out", seq));
  EXPECT_FALSE(parse_dump_seq("flat-12.csv", seq));
  EXPECT_FALSE(parse_dump_seq("other-000001.out", seq));
  EXPECT_FALSE(parse_dump_seq("", seq));
}

TEST(DumpNames, LargeSequenceNumbersOverflowTheFixedPad) {
  // More than 6 digits still round-trips (pad is a minimum, not a cap).
  const std::string name = binary_dump_name(1234567);
  std::uint32_t seq = 0;
  EXPECT_TRUE(parse_dump_seq(name, seq));
  EXPECT_EQ(seq, 1234567u);
}

class ScannerDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("incprof_scan_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(ScannerDirTest, LoadBinaryDumpsOrderedBySeq) {
  // Write out of order; loader must sort by seq.
  for (const std::uint32_t seq : {2u, 0u, 1u}) {
    write_binary_file(snap(seq, (seq + 1) * 1000), dir_ / binary_dump_name(seq));
  }
  const auto snaps = load_binary_dumps(dir_);
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].seq(), 0u);
  EXPECT_EQ(snaps[1].seq(), 1u);
  EXPECT_EQ(snaps[2].seq(), 2u);
}

TEST_F(ScannerDirTest, IgnoresUnrelatedFiles) {
  write_binary_file(snap(0, 5000), dir_ / binary_dump_name(0));
  std::ofstream(dir_ / "notes.txt") << "not a dump";
  std::ofstream(dir_ / "gmon.out") << "legacy un-renamed dump";
  EXPECT_EQ(load_binary_dumps(dir_).size(), 1u);
}

TEST_F(ScannerDirTest, MissingDirectoryGivesEmpty) {
  EXPECT_TRUE(load_binary_dumps(dir_ / "missing").empty());
  EXPECT_TRUE(load_text_dumps(dir_ / "missing").empty());
}

TEST_F(ScannerDirTest, ConvertThenLoadTextMatchesBinary) {
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    write_binary_file(snap(seq, (seq + 1) * 10'000'000),
                      dir_ / binary_dump_name(seq));
  }
  EXPECT_EQ(convert_dumps_to_text(dir_, 10'000'000), 4u);

  const auto text_snaps = load_text_dumps(dir_);
  const auto bin_snaps = load_binary_dumps(dir_);
  ASSERT_EQ(text_snaps.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(text_snaps[i].seq(), bin_snaps[i].seq());
    const auto* t = text_snaps[i].find("work");
    const auto* b = bin_snaps[i].find("work");
    ASSERT_NE(t, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(t->self_ns, b->self_ns);
    EXPECT_EQ(t->calls, b->calls);
  }
}

TEST_F(ScannerDirTest, CorruptBinaryDumpThrows) {
  std::ofstream(dir_ / binary_dump_name(0), std::ios::binary) << "garbage";
  EXPECT_THROW(load_binary_dumps(dir_), std::runtime_error);
}

/// The parallel loader's tests: load units of a fixed number of files,
/// on pools of several sizes.
class Scanner : public ScannerDirTest {
 protected:
  /// Dumps enough for several load units, written in reverse order.
  /// Every seventh file holds its rows out of name order and every
  /// eleventh repeats a name; both must decode as the sorted, last-row-
  /// wins snapshot.
  void write_dumps(std::uint32_t count) {
    for (std::uint32_t seq = count; seq-- > 0;) {
      std::vector<FunctionProfile> rows;
      for (std::uint32_t f = 0; f < 5 + seq % 4; ++f) {
        rows.push_back({"fn_" + std::to_string(f), (seq + 1) * (f + 1),
                        seq + f, (seq + 2) * (f + 1)});
      }
      if (seq % 7 == 3) std::reverse(rows.begin(), rows.end());
      if (seq % 11 == 5) rows.push_back({"fn_1", 9, 9, 9});
      std::string bytes;
      util::put_u32(bytes, 0x4d475049);  // "IPGM"
      util::put_u32(bytes, 1);
      util::put_u32(bytes, seq);
      util::put_u32(bytes, static_cast<std::uint32_t>(rows.size()));
      util::put_i64(bytes, static_cast<std::int64_t>(seq) * 1000);
      for (const FunctionProfile& fp : rows) {
        util::put_str(bytes, fp.name);
        util::put_i64(bytes, fp.self_ns);
        util::put_i64(bytes, fp.calls);
        util::put_i64(bytes, fp.inclusive_ns);
      }
      std::ofstream(dir_ / binary_dump_name(seq), std::ios::binary) << bytes;
    }
  }

  /// load_binary_dumps' message for `dir_` on a pool of `workers`
  /// (nullptr below 1), or "" when it loads.
  std::string load_error(std::size_t workers) {
    util::ThreadPool pool(workers);
    try {
      (void)load_binary_dumps(dir_, workers == 0 ? nullptr : &pool);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  }
};

TEST_F(Scanner, PoolNeverChangesTheLoad) {
  write_dumps(100);
  // The reference: each file read on its own, in seq order.
  std::vector<ProfileSnapshot> want;
  for (std::uint32_t seq = 0; seq < 100; ++seq) {
    want.push_back(read_binary_file(dir_ / binary_dump_name(seq)));
  }
  EXPECT_EQ(want[3].functions().front().name, "fn_0");  // was reversed
  EXPECT_EQ(want[5].find("fn_1")->self_ns, 9);          // repeated name

  EXPECT_EQ(load_binary_dumps(dir_), want);
  for (const std::size_t workers : {0, 1, 3}) {
    util::ThreadPool pool(workers);
    EXPECT_EQ(load_binary_dumps(dir_, &pool), want) << workers << " workers";
  }
}

// The pool's own error rule is first-thrown-wins; the loader instead
// keeps each unit's error and throws the first in path order, so the
// message never depends on which thread failed first. File 63 ends the
// second 32-file unit and 64 starts the third, so on a pool the second
// corrupt file is usually read first.
TEST_F(Scanner, LoadErrorNamesTheFirstCorruptFileInPathOrder) {
  write_dumps(100);
  const std::filesystem::path first = dir_ / binary_dump_name(63);
  const std::filesystem::path second = dir_ / binary_dump_name(64);
  std::ofstream(first, std::ios::binary | std::ios::trunc) << "garbage";
  std::ofstream(second, std::ios::binary | std::ios::trunc) << "IPGM";
  for (const std::size_t workers : {0, 1, 3}) {
    for (int rep = 0; rep < 10; ++rep) {
      const std::string error = load_error(workers);
      EXPECT_NE(error.find(first.string()), std::string::npos) << error;
      EXPECT_EQ(error.find(second.string()), std::string::npos) << error;
    }
  }
}

}  // namespace
}  // namespace incprof::gmon
