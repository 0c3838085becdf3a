// Snapshot-directory scanning. The IncProf collector leaves a directory of
// per-interval dumps named like gmon-000042.out (binary) or
// flat-000042.txt (already-converted text reports); the analysis stage
// loads them all, ordered by the interval id embedded in the name — the
// "unique sample name" of the paper's rename step.
#pragma once

#include "gmon/snapshot.hpp"

#include <filesystem>
#include <string>
#include <vector>

namespace incprof::util {
class ThreadPool;
}  // namespace incprof::util

namespace incprof::gmon {

/// File-name helpers used by both the collector and the scanner.
/// Sequence numbers are zero-padded to six digits so lexicographic and
/// numeric order agree.
std::string binary_dump_name(std::uint32_t seq);
std::string text_dump_name(std::uint32_t seq);

/// Extracts the sequence number from a dump file name of either kind;
/// returns false if the name does not match.
bool parse_dump_seq(const std::string& filename, std::uint32_t& seq);

/// Loads all binary dumps (gmon-*.out) under `dir`, ordered by seq,
/// decoding on `pool` when one is given (nullptr = serial; the result is
/// the same). Throws std::runtime_error on unreadable or malformed
/// files; with several, the error names the first in path order.
std::vector<ProfileSnapshot> load_binary_dumps(
    const std::filesystem::path& dir, util::ThreadPool* pool = nullptr);

/// Outcome of a lenient directory load.
struct LenientLoadResult {
  std::vector<ProfileSnapshot> snapshots;
  /// Files that failed to parse (truncated by a crash, partially
  /// written over NFS, ...), skipped rather than fatal.
  std::vector<std::filesystem::path> skipped;
  /// Duplicate-seq dumps dropped (the collector was restarted into the
  /// same directory); the chronologically later file wins.
  std::size_t duplicates_dropped = 0;
};

/// Like load_binary_dumps, but corrupt files are skipped and duplicate
/// sequence numbers resolved instead of throwing — what an analysis run
/// over a production dump directory wants. The interval axis may have
/// gaps; differencing still works because dumps are cumulative.
LenientLoadResult load_binary_dumps_lenient(
    const std::filesystem::path& dir);

/// Loads all text dumps (flat-*.txt) under `dir`, ordered by seq, and
/// assigns each snapshot's seq from its file name.
std::vector<ProfileSnapshot> load_text_dumps(
    const std::filesystem::path& dir);

/// Converts every binary dump in `dir` to the gprof flat-profile text
/// form next to it (flat-NNNNNN.txt) — the equivalent of the paper's
/// "invoke the gprof command line tool on each gmon file" step. Returns
/// the number of files converted.
std::size_t convert_dumps_to_text(const std::filesystem::path& dir,
                                  std::int64_t sample_period_ns);

}  // namespace incprof::gmon
