// String helpers shared by the gprof-report parser, CSV layer and table
// formatters. Kept dependency-free and allocation-conscious: parsing the
// flat-profile text of hundreds of interval snapshots is on the analysis
// fast path.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace incprof::util {

/// True for the ASCII whitespace characters (space, \t, \n, \r, \f, \v)
/// that trim() strips and split_ws() splits on.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

/// Removes leading and trailing ASCII whitespace (no allocation).
std::string_view trim(std::string_view s) noexcept;

/// Splits on a single character; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; empty fields are skipped.
std::vector<std::string_view> split_ws(std::string_view s);

/// Splits into lines on '\n'; a trailing newline does not produce an
/// empty final line. '\r' before '\n' is stripped.
std::vector<std::string_view> split_lines(std::string_view s);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// True if `s` ends with `suffix`.
bool ends_with(std::string_view s, std::string_view suffix) noexcept;

/// Joins the pieces with `sep` between them.
std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// Parses a double; returns false (leaving `out` untouched) on any
/// malformed or partially consumed input.
bool parse_double(std::string_view s, double& out) noexcept;

/// Parses a non-negative 64-bit integer; returns false on malformed
/// input or overflow.
bool parse_u64(std::string_view s, std::uint64_t& out) noexcept;

/// Parses a signed integer with full-string validation; returns false
/// (leaving `out` untouched) on malformed input, overflow, or a value
/// outside [lo, hi]. This is the checked replacement for std::atoi in
/// the tool flag parsers, where "--port banana" must be an error, not
/// port 0.
bool parse_int(std::string_view s, std::int64_t lo, std::int64_t hi,
               std::int64_t& out) noexcept;

/// Parses a "host:port" endpoint: non-empty host, port in [1, 65535]
/// validated via parse_int. Returns false (leaving the outputs
/// untouched) on a missing colon, empty host, or bad port — the tool
/// flag parsers turn that into exit 2.
bool parse_endpoint(std::string_view s, std::string& host,
                    std::uint16_t& port);

/// Formats `v` with `prec` digits after the decimal point.
std::string format_fixed(double v, int prec);

/// Formats a fraction in [0,1] as a percentage with one decimal, e.g.
/// 0.981 -> "98.1".
std::string format_pct(double fraction);

}  // namespace incprof::util
