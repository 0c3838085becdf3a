// Test helper: lowercase hex of a byte string, for pinning binary
// encodings byte for byte in readable goldens.
#pragma once

#include <string>

namespace incprof::testing {

inline std::string to_hex(const std::string& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

}  // namespace incprof::testing
