#include "gmon/binary_io.hpp"

#include "util/bytes.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace incprof::gmon {

namespace {
constexpr std::uint32_t kMagic = 0x4d475049;  // "IPGM" little-endian
constexpr std::uint32_t kVersion = 1;

using util::put_i64;
using util::put_str;
using util::put_u32;
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
  for (std::uint32_t i = 0; i < count; ++i) {
    FunctionProfile fp;
    fp.name = r.str();
    fp.self_ns = r.i64();
    fp.calls = r.i64();
    fp.inclusive_ns = r.i64();
    snap.upsert(std::move(fp));
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

ProfileSnapshot read_binary_file(const std::filesystem::path& path) {
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
  std::string bytes(static_cast<std::size_t>(size), '\0');
  if (!is.read(bytes.data(), size)) {
    throw std::runtime_error("gmon binary: short read: " + path.string());
  }
  return decode_binary(bytes);
}

}  // namespace incprof::gmon
