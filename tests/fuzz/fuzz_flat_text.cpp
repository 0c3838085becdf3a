// Fuzz target for the gprof flat-profile text parser. Built as a
// libFuzzer binary where the compiler supports -fsanitize=fuzzer
// (tests/CMakeLists.txt), and driven under ctest on any compiler by
// tests/gmon/test_flat_text_fuzz.cpp. Malformed text must surface as
// std::runtime_error; any other exception escapes and is a finding.
#include "gmon/flat_text.hpp"

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  try {
    incprof::gmon::parse_flat_profile(
        std::string_view(reinterpret_cast<const char*>(data), size));
  } catch (const std::runtime_error&) {
  }
  return 0;
}
