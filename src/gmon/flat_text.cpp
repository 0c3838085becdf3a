#include "gmon/flat_text.hpp"

#include "util/strings.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace incprof::gmon {

namespace {
constexpr double kNsPerSec = 1e9;
constexpr double kNsPerUs = 1e3;

// Appends `s` right-aligned in `width` columns, as printf's "%*s" does:
// a wider value is written whole.
void append_padded(std::string& out, std::string_view s, std::size_t width) {
  if (s.size() < width) out.append(width - s.size(), ' ');
  out.append(s);
}

// printf("%*.*f", width, precision, v). std::to_chars with an explicit
// precision is specified to print what printf prints in the C locale,
// rounding included. The buffer holds the widest double (309 integer
// digits) with a sign, a point and the largest precision used here.
void append_fixed(std::string& out, double v, std::size_t width,
                  int precision) {
  char buf[330];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::fixed, precision);
  append_padded(out, {buf, static_cast<std::size_t>(res.ptr - buf)}, width);
}

// printf("%*lld", width, v).
void append_int(std::string& out, std::int64_t v, std::size_t width) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  append_padded(out, {buf, static_cast<std::size_t>(res.ptr - buf)}, width);
}

// One data row of a trimmed line: the numeric columns and the name,
// whose inner whitespace runs collapse to single spaces. Only the first
// seven tokens are looked at; the name is the rest of the line.
FunctionProfile parse_row(std::string_view t) {
  std::string_view tokens[7];
  std::size_t count = 0;
  for (std::size_t i = 0; count < 7;) {
    while (i < t.size() && util::is_space(t[i])) ++i;
    if (i == t.size()) break;
    const std::size_t start = i;
    while (i < t.size() && !util::is_space(t[i])) ++i;
    tokens[count++] = t.substr(start, i - start);
  }
  // A data row is either:
  //   pct cum self calls self/call total/call name...
  // or (zero-call row):
  //   pct cum self name...
  if (count < 4) {
    throw std::runtime_error("flat profile: short row: " + std::string(t));
  }
  double pct = 0.0, cum = 0.0, self_s = 0.0;
  if (!util::parse_double(tokens[0], pct) ||
      !util::parse_double(tokens[1], cum) ||
      !util::parse_double(tokens[2], self_s)) {
    throw std::runtime_error("flat profile: bad numeric columns: " +
                             std::string(t));
  }

  FunctionProfile fp;
  fp.self_ns = static_cast<std::int64_t>(std::llround(self_s * kNsPerSec));
  std::uint64_t calls = 0;
  std::string_view name_token;
  if (count == 7 && util::parse_u64(tokens[3], calls)) {
    double self_pc = 0.0, total_pc = 0.0;
    if (!util::parse_double(tokens[4], self_pc) ||
        !util::parse_double(tokens[5], total_pc)) {
      throw std::runtime_error("flat profile: bad per-call columns: " +
                               std::string(t));
    }
    fp.calls = static_cast<std::int64_t>(calls);
    fp.inclusive_ns = static_cast<std::int64_t>(
        std::llround(total_pc * kNsPerUs * static_cast<double>(calls)));
    name_token = tokens[6];
  } else {
    // Zero-call row: call columns are blank, so the 4th token starts
    // the name. Inclusive time is unrecoverable; approximate by self.
    fp.calls = 0;
    fp.inclusive_ns = fp.self_ns;
    name_token = tokens[3];
  }

  // t is trimmed, so the name ends on a non-space character.
  const std::string_view rest =
      t.substr(static_cast<std::size_t>(name_token.data() - t.data()));
  fp.name.reserve(rest.size());
  for (std::size_t i = 0; i < rest.size();) {
    if (util::is_space(rest[i])) {
      fp.name += ' ';
      while (i < rest.size() && util::is_space(rest[i])) ++i;
    }
    const std::size_t start = i;
    while (i < rest.size() && !util::is_space(rest[i])) ++i;
    fp.name.append(rest.substr(start, i - start));
  }
  return fp;
}
}  // namespace

std::string format_flat_profile(const ProfileSnapshot& snap,
                                const FlatTextOptions& opts) {
  std::vector<const FunctionProfile*> rows;
  rows.reserve(snap.functions().size());
  std::size_t name_bytes = 0;
  for (const auto& fp : snap.functions()) {
    if (!opts.include_idle && fp.self_ns == 0 && fp.calls == 0) continue;
    rows.push_back(&fp);
    name_bytes += fp.name.size();
  }
  std::sort(rows.begin(), rows.end(),
            [](const FunctionProfile* a, const FunctionProfile* b) {
              if (a->self_ns != b->self_ns) return a->self_ns > b->self_ns;
              return a->name < b->name;
            });

  const std::int64_t total_ns = snap.total_self_ns();

  // Header plus 64 bytes of columns per row: one allocation unless a
  // value is wider than its column.
  std::string out;
  out.reserve(192 + 64 * rows.size() + name_bytes);
  out += "Flat profile:\n\nEach sample counts as ";
  append_fixed(out,
               static_cast<double>(opts.sample_period_ns) / kNsPerSec, 0, 9);
  out +=
      " seconds.\n"
      "  %   cumulative   self              self     total\n"
      " time   seconds   seconds    calls  us/call  us/call  name\n";

  double cumulative = 0.0;
  for (const FunctionProfile* fp : rows) {
    const double self_s = static_cast<double>(fp->self_ns) / kNsPerSec;
    cumulative += self_s;
    const double pct =
        total_ns > 0
            ? 100.0 * static_cast<double>(fp->self_ns) /
                  static_cast<double>(total_ns)
            : 0.0;
    // "%6.2f %10.6f %9.6f %8lld %8.2f %8.2f  %s\n"
    append_fixed(out, pct, 6, 2);
    out += ' ';
    append_fixed(out, cumulative, 10, 6);
    out += ' ';
    append_fixed(out, self_s, 9, 6);
    out += ' ';
    if (fp->calls > 0) {
      const double calls = static_cast<double>(fp->calls);
      append_int(out, fp->calls, 8);
      out += ' ';
      append_fixed(out, static_cast<double>(fp->self_ns) / kNsPerUs / calls,
                   8, 2);
      out += ' ';
      append_fixed(out,
                   static_cast<double>(fp->inclusive_ns) / kNsPerUs / calls,
                   8, 2);
    } else {
      // Sampled but never counted entering: gprof leaves the three call
      // columns blank. This is the signature of a long-lived function
      // that the site selector designates "loop".
      out.append(8 + 1 + 8 + 1 + 8, ' ');  // "%8s %8s %8s" of ""
    }
    out += "  ";
    out += fp->name;
    out += '\n';
  }
  return out;
}

ProfileSnapshot parse_flat_profile(std::string_view text) {
  std::vector<FunctionProfile> rows;
  bool saw_banner = false;
  bool in_rows = false;

  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view t = util::trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    if (t.empty()) continue;
    if (util::starts_with(t, "Flat profile:")) {
      saw_banner = true;
      continue;
    }
    if (util::starts_with(t, "Each sample counts")) continue;
    if (util::starts_with(t, "%")) continue;  // first header line
    if (util::starts_with(t, "time")) {       // second header line
      in_rows = true;
      continue;
    }
    if (!in_rows) continue;
    rows.push_back(parse_row(t));
  }

  if (!saw_banner) {
    throw std::runtime_error("flat profile: missing 'Flat profile:' banner");
  }
  // Rows arrive in self-time order. One stable sort by name makes every
  // upsert an append, and a repeated name overwrites its earlier row, so
  // the last row of a name wins.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const FunctionProfile& a, const FunctionProfile& b) {
                     return a.name < b.name;
                   });
  ProfileSnapshot snap;
  for (auto& fp : rows) snap.upsert(std::move(fp));
  return snap;
}

}  // namespace incprof::gmon
