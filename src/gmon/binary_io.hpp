// Binary snapshot serialization — the stand-in for gprof's gmon.out
// format. The IncProf collector writes one of these per interval (then
// "renames it to a unique sample name", paper Section IV); the analysis
// stage reads them back. Fixed little-endian layout:
//
//   magic   u32  'IPGM' (0x4d475049)
//   version u32  (currently 1)
//   seq     u32
//   count   u32  number of function records
//   ts      i64  dump timestamp, ns
//   then per function:
//     name_len u32, name bytes (no NUL)
//     self_ns i64, calls i64, inclusive_ns i64
#pragma once

#include "gmon/snapshot.hpp"

#include <filesystem>
#include <string>

namespace incprof::gmon {

/// Serializes a snapshot to the binary gmon-style byte string.
std::string encode_binary(const ProfileSnapshot& snap);

/// Parses a binary snapshot. Throws std::runtime_error on a bad magic,
/// unsupported version, truncated input, trailing garbage, or a negative
/// counter.
ProfileSnapshot decode_binary(std::string_view bytes);

/// Writes a snapshot to `path` (binary). Throws std::runtime_error on I/O
/// failure.
void write_binary_file(const ProfileSnapshot& snap,
                       const std::filesystem::path& path);

/// Reads a snapshot from `path`. Throws std::runtime_error on I/O or
/// format failure; every message names the path.
ProfileSnapshot read_binary_file(const std::filesystem::path& path);

/// As above, reading the file's bytes through `buffer`, which a caller
/// that reads many files reuses.
ProfileSnapshot read_binary_file(const std::filesystem::path& path,
                                 std::string& buffer);

}  // namespace incprof::gmon
