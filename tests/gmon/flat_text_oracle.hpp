// Reference implementations of the gprof flat-profile text layer, kept
// as test oracles for gmon/flat_text.cpp: the snprintf formatter and the
// split_lines/split_ws/upsert parser the production code replaced. Both
// define the byte format and the parse semantics the fast versions must
// reproduce exactly. Also a seeded random-snapshot generator shared by
// the oracle tests and the parser fuzz driver.
#pragma once

#include "gmon/flat_text.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace incprof::gmon::oracle {

/// printf into a string of whatever length the format needs.
inline std::string printf_string(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(static_cast<std::size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, again);
  va_end(again);
  return out;
}

/// The snprintf formatter: one printf call per row. (The original
/// rendered rows through a 256-byte buffer, which cut rows with very
/// long names short; this reference prints every row whole.)
inline std::string format_flat_profile(const ProfileSnapshot& snap,
                                       const FlatTextOptions& opts = {}) {
  constexpr double kNsPerSec = 1e9;
  constexpr double kNsPerUs = 1e3;
  std::vector<const FunctionProfile*> rows;
  for (const auto& fp : snap.functions()) {
    if (!opts.include_idle && fp.self_ns == 0 && fp.calls == 0) continue;
    rows.push_back(&fp);
  }
  std::sort(rows.begin(), rows.end(),
            [](const FunctionProfile* a, const FunctionProfile* b) {
              if (a->self_ns != b->self_ns) return a->self_ns > b->self_ns;
              return a->name < b->name;
            });

  const std::int64_t total_ns = snap.total_self_ns();
  std::string out = "Flat profile:\n\n";
  out += printf_string("Each sample counts as %.9f seconds.\n",
                       static_cast<double>(opts.sample_period_ns) /
                           kNsPerSec);
  out +=
      "  %   cumulative   self              self     total\n"
      " time   seconds   seconds    calls  us/call  us/call  name\n";
  double cumulative = 0.0;
  for (const FunctionProfile* fp : rows) {
    const double self_s = static_cast<double>(fp->self_ns) / kNsPerSec;
    cumulative += self_s;
    const double pct = total_ns > 0 ? 100.0 *
                                          static_cast<double>(fp->self_ns) /
                                          static_cast<double>(total_ns)
                                    : 0.0;
    if (fp->calls > 0) {
      const double self_per_call = static_cast<double>(fp->self_ns) /
                                   kNsPerUs /
                                   static_cast<double>(fp->calls);
      const double total_per_call = static_cast<double>(fp->inclusive_ns) /
                                    kNsPerUs /
                                    static_cast<double>(fp->calls);
      out += printf_string("%6.2f %10.6f %9.6f %8lld %8.2f %8.2f  %s\n",
                           pct, cumulative, self_s,
                           static_cast<long long>(fp->calls), self_per_call,
                           total_per_call, fp->name.c_str());
    } else {
      out += printf_string("%6.2f %10.6f %9.6f %8s %8s %8s  %s\n", pct,
                           cumulative, self_s, "", "", "",
                           fp->name.c_str());
    }
  }
  return out;
}

/// The token-vector parser: split_lines, split_ws per row, one upsert
/// per row (so a repeated name keeps its last row).
inline ProfileSnapshot parse_flat_profile(std::string_view text) {
  constexpr double kNsPerSec = 1e9;
  constexpr double kNsPerUs = 1e3;
  ProfileSnapshot snap;
  bool saw_banner = false;
  bool in_rows = false;
  for (std::string_view line : util::split_lines(text)) {
    const std::string_view t = util::trim(line);
    if (t.empty()) continue;
    if (util::starts_with(t, "Flat profile:")) {
      saw_banner = true;
      continue;
    }
    if (util::starts_with(t, "Each sample counts")) continue;
    if (util::starts_with(t, "%")) continue;
    if (util::starts_with(t, "time")) {
      in_rows = true;
      continue;
    }
    if (!in_rows) continue;

    const auto tokens = util::split_ws(t);
    if (tokens.size() < 4) throw std::runtime_error("short row");
    double pct = 0.0, cum = 0.0, self_s = 0.0;
    if (!util::parse_double(tokens[0], pct) ||
        !util::parse_double(tokens[1], cum) ||
        !util::parse_double(tokens[2], self_s)) {
      throw std::runtime_error("bad numeric columns");
    }
    FunctionProfile fp;
    fp.self_ns = static_cast<std::int64_t>(std::llround(self_s * kNsPerSec));
    std::uint64_t calls = 0;
    std::size_t name_start;
    if (tokens.size() >= 7 && util::parse_u64(tokens[3], calls)) {
      double self_pc = 0.0, total_pc = 0.0;
      if (!util::parse_double(tokens[4], self_pc) ||
          !util::parse_double(tokens[5], total_pc)) {
        throw std::runtime_error("bad per-call columns");
      }
      fp.calls = static_cast<std::int64_t>(calls);
      fp.inclusive_ns = static_cast<std::int64_t>(
          std::llround(total_pc * kNsPerUs * static_cast<double>(calls)));
      name_start = 6;
    } else {
      fp.calls = 0;
      fp.inclusive_ns = fp.self_ns;
      name_start = 3;
    }
    std::string name;
    for (std::size_t i = name_start; i < tokens.size(); ++i) {
      if (i > name_start) name += ' ';
      name.append(tokens[i]);
    }
    fp.name = std::move(name);
    snap.upsert(std::move(fp));
  }
  if (!saw_banner) throw std::runtime_error("missing banner");
  return snap;
}

/// A seeded random cumulative snapshot: up to `max_functions` rows with
/// self times from whole samples down to single nanoseconds, zero-call
/// and idle rows, names with inner spaces, and now and then a negative
/// counter. Magnitudes stay below 2^50 so no sum overflows.
inline ProfileSnapshot random_snapshot(util::Rng& rng,
                                       std::size_t max_functions = 40) {
  static const char* const kStems[] = {
      "main", "compute", "exchange_halo", "operator new(unsigned long)",
      "std::vector<double>::push_back(double const&)", "pack_block",
      "validate bfs result", "a", "Z"};
  ProfileSnapshot snap(static_cast<std::uint32_t>(rng.next_below(1000)),
                       rng.next_in(0, std::int64_t{1} << 40));
  const std::size_t n = rng.next_below(max_functions + 1);
  for (std::size_t i = 0; i < n; ++i) {
    FunctionProfile fp;
    fp.name = kStems[rng.next_below(std::size(kStems))];
    fp.name += '_' + std::to_string(rng.next_below(64));
    switch (rng.next_below(4)) {
      case 0: fp.self_ns = rng.next_in(0, 1000) * 10'000'000; break;
      case 1: fp.self_ns = rng.next_in(0, 5'000'000) * 1'000; break;
      case 2: fp.self_ns = rng.next_in(0, std::int64_t{1} << 40); break;
      default: fp.self_ns = 0; break;
    }
    fp.calls = rng.next_below(3) == 0 ? 0 : rng.next_in(1, 1'000'000'000);
    fp.inclusive_ns = fp.self_ns + rng.next_in(0, std::int64_t{1} << 36);
    if (rng.next_below(16) == 0) fp.self_ns = -fp.self_ns;
    if (rng.next_below(16) == 0) fp.calls = -fp.calls;
    if (rng.next_below(16) == 0) fp.inclusive_ns = -fp.inclusive_ns;
    snap.upsert(std::move(fp));
  }
  return snap;
}

}  // namespace incprof::gmon::oracle
