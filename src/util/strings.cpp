#include "util/strings.hpp"

#include <charconv>
#include <cstdint>
#include <cstdio>

namespace incprof::util {

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::vector<std::string_view> split_lines(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\n') {
      std::size_t end = i;
      if (end > start && s[end - 1] == '\r') --end;
      out.push_back(s.substr(start, end - start));
      start = i + 1;
    }
  }
  if (start < s.size()) {
    std::size_t end = s.size();
    if (end > start && s[end - 1] == '\r') --end;
    out.push_back(s.substr(start, end - start));
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

bool parse_double(std::string_view s, double& out) noexcept {
  s = trim(s);
  if (s.empty()) return false;
  double v = 0.0;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last) return false;
  out = v;
  return true;
}

bool parse_u64(std::string_view s, std::uint64_t& out) noexcept {
  s = trim(s);
  if (s.empty()) return false;
  std::uint64_t v = 0;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last) return false;
  out = v;
  return true;
}

bool parse_int(std::string_view s, std::int64_t lo, std::int64_t hi,
               std::int64_t& out) noexcept {
  s = trim(s);
  if (s.empty()) return false;
  std::int64_t v = 0;
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last) return false;
  if (v < lo || v > hi) return false;
  out = v;
  return true;
}

bool parse_endpoint(std::string_view s, std::string& host,
                    std::uint16_t& port) {
  s = trim(s);
  // Last colon splits host from port, so a future bracketed-IPv6 form
  // stays representable; today hosts are names or IPv4 literals.
  const auto colon = s.rfind(':');
  if (colon == std::string_view::npos || colon == 0) return false;
  std::int64_t p = 0;
  if (!parse_int(s.substr(colon + 1), 1, 65535, p)) return false;
  host = std::string(s.substr(0, colon));
  port = static_cast<std::uint16_t>(p);
  return true;
}

std::string format_fixed(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string format_pct(double fraction) {
  return format_fixed(fraction * 100.0, 1);
}

}  // namespace incprof::util
