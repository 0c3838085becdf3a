#include "gmon/binary_io.hpp"

#include "util/bytes.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace incprof::gmon {

namespace {
constexpr std::uint32_t kMagic = 0x4d475049;  // "IPGM" little-endian
constexpr std::uint32_t kVersion = 1;

/// name_len u32 plus the three i64 counters of an empty-named row.
constexpr std::size_t kMinRowBytes = 4 + 3 * 8;

using util::put_i64;
using util::put_str;
using util::put_u32;

/// One counter. gprof counters are never negative, and rejecting one
/// here keeps every later `max(0, a - b)` free of overflow (DESIGN §2).
std::int64_t counter(util::ByteReader& r, const char* field) {
  const std::int64_t v = r.i64();
  if (v < 0) {
    throw std::runtime_error(std::string("gmon binary: negative ") + field);
  }
  return v;
}
}  // namespace

std::string encode_binary(const ProfileSnapshot& snap) {
  std::string out;
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_u32(out, snap.seq());
  put_u32(out, static_cast<std::uint32_t>(snap.functions().size()));
  put_i64(out, snap.timestamp_ns());
  for (const auto& fp : snap.functions()) {
    put_str(out, fp.name);
    put_i64(out, fp.self_ns);
    put_i64(out, fp.calls);
    put_i64(out, fp.inclusive_ns);
  }
  return out;
}

ProfileSnapshot decode_binary(std::string_view bytes) {
  util::ByteReader r(bytes, "gmon binary", "truncated snapshot");
  if (r.u32() != kMagic) {
    throw std::runtime_error("gmon binary: bad magic");
  }
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    throw std::runtime_error("gmon binary: unsupported version " +
                             std::to_string(version));
  }
  const std::uint32_t seq = r.u32();
  const std::uint32_t count = r.u32();
  const std::int64_t ts = r.i64();
  ProfileSnapshot snap(seq, ts);
  // A row takes at least kMinRowBytes, so a hostile count cannot reserve
  // more rows than the bytes left could hold.
  snap.reserve(std::min<std::size_t>(count, r.remaining() / kMinRowBytes));
  for (std::uint32_t i = 0; i < count; ++i) {
    FunctionProfile fp;
    fp.name = r.str();
    fp.self_ns = counter(r, "self_ns");
    fp.calls = counter(r, "calls");
    fp.inclusive_ns = counter(r, "inclusive_ns");
    snap.append(std::move(fp));
  }
  r.expect_end();
  return snap;
}

void write_binary_file(const ProfileSnapshot& snap,
                       const std::filesystem::path& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw std::runtime_error("gmon binary: cannot open for write: " +
                             path.string());
  }
  const std::string bytes = encode_binary(snap);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) {
    throw std::runtime_error("gmon binary: write failed: " + path.string());
  }
}

ProfileSnapshot read_binary_file(const std::filesystem::path& path,
                                 std::string& buffer) {
  // Opened at the end so tellg() sizes the one read of the whole file.
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) {
    throw std::runtime_error("gmon binary: cannot open for read: " +
                             path.string());
  }
  const std::streamoff size = is.tellg();
  if (size < 0 || !is.seekg(0)) {
    throw std::runtime_error("gmon binary: cannot size: " + path.string());
  }
  buffer.resize(static_cast<std::size_t>(size));
  if (!is.read(buffer.data(), size)) {
    throw std::runtime_error("gmon binary: short read: " + path.string());
  }
  try {
    return decode_binary(buffer);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + ": " + path.string());
  }
}

ProfileSnapshot read_binary_file(const std::filesystem::path& path) {
  std::string buffer;
  return read_binary_file(path, buffer);
}

}  // namespace incprof::gmon
