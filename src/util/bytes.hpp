// The little-endian byte codec shared by every binary format in the
// tree: the gmon dump (gmon/binary_io), the call-graph dump
// (gmon/callgraph) and the incprofd wire protocol (service/protocol).
// Writers append fixed-width integers, IEEE-754 doubles and u32-length
// strings to a std::string. ByteReader walks a byte view with a bounds
// check before every read, so a parser of untrusted bytes throws
// std::runtime_error instead of over-reading; each format passes its
// own error prefix and so keeps its own error text.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace incprof::util {

namespace detail {

template <class U>
void put_le(std::string& out, U v) {
  char buf[sizeof(U)];
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out.append(buf, sizeof(U));
}

}  // namespace detail

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
inline void put_u16(std::string& out, std::uint16_t v) {
  detail::put_le(out, v);
}
inline void put_u32(std::string& out, std::uint32_t v) {
  detail::put_le(out, v);
}
inline void put_u64(std::string& out, std::uint64_t v) {
  detail::put_le(out, v);
}
inline void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}
inline void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}
/// u32 byte count, then the bytes.
inline void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked little-endian reader over a borrowed byte view.
class ByteReader {
 public:
  /// Errors read "<error_prefix>: <truncated>" when a read runs past the
  /// end and "<error_prefix>: trailing bytes..." from expect_end. Both
  /// strings must outlive the reader (pass literals).
  ByteReader(std::string_view bytes, const char* error_prefix,
             const char* truncated = "truncated") noexcept
      : bytes_(bytes), prefix_(error_prefix), truncated_(truncated) {}

  std::uint8_t u8() { return load<std::uint8_t>(); }
  std::uint16_t u16() { return load<std::uint16_t>(); }
  std::uint32_t u32() { return load<std::uint32_t>(); }
  std::uint64_t u64() { return load<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// The next `len` bytes.
  std::string str(std::size_t len) {
    need(len);
    std::string s(bytes_.substr(pos_, len));
    pos_ += len;
    return s;
  }
  /// A u32 byte count, then that many bytes (the put_str layout).
  std::string str() { return str(u32()); }

  /// Bytes not yet read.
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  /// Throws unless every byte was consumed; `what` (optional) names the
  /// message in the error ("trailing bytes in hello").
  void expect_end(const char* what = nullptr) const {
    if (pos_ == bytes_.size()) return;
    std::string msg = std::string(prefix_) + ": trailing bytes";
    if (what != nullptr) msg += std::string(" in ") + what;
    throw std::runtime_error(msg);
  }

 private:
  template <class U>
  U load() {
    need(sizeof(U));
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= std::uint64_t{static_cast<unsigned char>(bytes_[pos_ + i])}
           << (8 * i);
    }
    pos_ += sizeof(U);
    return static_cast<U>(v);
  }

  void need(std::size_t n) const {
    if (n > bytes_.size() - pos_) {
      throw std::runtime_error(std::string(prefix_) + ": " + truncated_);
    }
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  const char* prefix_;
  const char* truncated_;
};

}  // namespace incprof::util
