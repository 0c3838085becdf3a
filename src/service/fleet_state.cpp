#include "service/fleet_state.hpp"

#include "util/strings.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace incprof::service {

namespace {

constexpr std::string_view kHeader = "incprof-shard-state v1";

[[noreturn]] void bad(const std::string& why) {
  throw std::runtime_error("shard-state: " + why);
}

std::uint64_t field_u64(std::string_view tok, const char* what) {
  std::uint64_t v = 0;
  if (!util::parse_u64(tok, v)) {
    bad(std::string("bad ") + what + " '" + std::string(tok) + "'");
  }
  return v;
}

std::int64_t field_i64(std::string_view tok, const char* what) {
  std::int64_t v = 0;
  if (!util::parse_int(tok, INT64_MIN, INT64_MAX, v)) {
    bad(std::string("bad ") + what + " '" + std::string(tok) + "'");
  }
  return v;
}

bool key_is_token(std::string_view key) {
  return key.find_first_of(" \t\r\n") == std::string_view::npos &&
         !key.empty();
}

/// The client name is the one client-controlled string in the codec and
/// rides as the final field of a line-oriented row. A raw newline would
/// split the row — letting a client inject or corrupt other rows — and
/// an empty (or all-whitespace) name would drop the token entirely,
/// making the row too short to decode. Neither may reach the wire.
std::string sanitize_name(std::string_view name) {
  std::string out(name);
  std::replace_if(
      out.begin(), out.end(),
      [](char c) { return c == '\n' || c == '\r'; }, ' ');
  if (util::trim(out).empty()) return "?";
  return out;
}

/// Offset of the n-th whitespace-separated token in `line` (for rows
/// whose final field — the client name — may itself contain spaces).
std::size_t token_offset(std::string_view line, std::size_t n) {
  std::size_t pos = 0;
  for (std::size_t tok = 0; tok < n; ++tok) {
    while (pos < line.size() && line[pos] != ' ') ++pos;
    while (pos < line.size() && line[pos] == ' ') ++pos;
  }
  return pos;
}

}  // namespace

ShardState capture_shard_state(std::uint32_t shard_id, bool draining,
                               std::vector<FleetSessionInfo> sessions,
                               const obs::MetricsRegistry& metrics) {
  ShardState s;
  s.shard_id = shard_id;
  s.draining = draining;
  for (const auto& row : sessions) {
    if (!row.closed) ++s.open_sessions;
    s.total_intervals += row.intervals;
    // A session's first interval opens its first phase; every later
    // phase event is a transition.
    s.total_transitions += row.transitions + (row.intervals > 0 ? 1 : 0);
    if (row.phases >= s.phase_count_histogram.size()) {
      s.phase_count_histogram.resize(row.phases + 1, 0);
    }
    ++s.phase_count_histogram[row.phases];
  }
  s.sessions = std::move(sessions);
  for (const auto& sample : metrics.samples()) {
    if (!key_is_token(sample.name)) continue;
    if (sample.kind == "counter") {
      s.counters.emplace_back(sample.name,
                              static_cast<std::uint64_t>(sample.value));
    } else {
      s.gauges.emplace_back(sample.name, sample.value);
    }
  }
  for (auto& [name, snap] : metrics.histogram_snapshots()) {
    if (!key_is_token(name)) continue;
    s.histograms.emplace_back(name, std::move(snap));
  }
  return s;
}

std::string encode_shard_state(const ShardState& s) {
  std::string out(kHeader);
  out += '\n';
  out += "shard " + std::to_string(s.shard_id) + ' ' +
         (s.draining ? "draining" : "serving") + '\n';
  out += "totals " + std::to_string(s.open_sessions) + ' ' +
         std::to_string(s.total_intervals) + ' ' +
         std::to_string(s.total_transitions) + '\n';
  out += "phasehist";
  for (std::uint64_t n : s.phase_count_histogram) {
    out += ' ';
    out += std::to_string(n);
  }
  out += '\n';
  for (const auto& row : s.sessions) {
    out += "session " + std::to_string(row.id) + ' ' +
           std::to_string(row.intervals) + ' ' + std::to_string(row.phases) +
           ' ' + std::to_string(row.current_phase) + ' ' +
           std::to_string(row.transitions) + ' ' +
           std::to_string(row.heartbeat_records) + ' ' +
           std::to_string(row.dropped_frames) + ' ' +
           (row.closed ? "1" : "0") + ' ' + sanitize_name(row.client_name) +
           '\n';
  }
  for (const auto& [name, value] : s.counters) {
    out += "counter " + name + ' ' + std::to_string(value) + '\n';
  }
  for (const auto& [name, value] : s.gauges) {
    out += "gauge " + name + ' ' + std::to_string(value) + '\n';
  }
  for (const auto& [name, snap] : s.histograms) {
    out += "hist " + name + ' ' + std::to_string(snap.count) + ' ' +
           std::to_string(snap.sum) + ' ' + std::to_string(snap.max);
    // Sparse bucket list: almost all of the ~1000 buckets are zero.
    for (std::size_t i = 0; i < snap.counts.size(); ++i) {
      if (snap.counts[i] == 0) continue;
      out += ' ' + std::to_string(i) + ':' + std::to_string(snap.counts[i]);
    }
    out += '\n';
  }
  return out;
}

ShardState decode_shard_state(std::string_view text) {
  const auto lines = util::split_lines(text);
  if (lines.empty() || util::trim(lines[0]) != kHeader) {
    bad("missing header");
  }
  ShardState s;
  for (std::size_t li = 1; li < lines.size(); ++li) {
    const std::string_view line = lines[li];
    const auto tok = util::split_ws(line);
    if (tok.empty()) continue;
    const std::string_view kw = tok[0];
    if (kw == "shard") {
      if (tok.size() != 3) bad("short shard row");
      s.shard_id = static_cast<std::uint32_t>(field_u64(tok[1], "shard id"));
      s.draining = tok[2] == "draining";
    } else if (kw == "totals") {
      if (tok.size() != 4) bad("short totals row");
      s.open_sessions = field_u64(tok[1], "open_sessions");
      s.total_intervals = field_u64(tok[2], "total_intervals");
      s.total_transitions = field_u64(tok[3], "total_transitions");
    } else if (kw == "phasehist") {
      for (std::size_t i = 1; i < tok.size(); ++i) {
        s.phase_count_histogram.push_back(field_u64(tok[i], "phasehist"));
      }
    } else if (kw == "session") {
      if (tok.size() < 9) bad("short session row");
      FleetSessionInfo row;
      row.id = static_cast<std::uint32_t>(field_u64(tok[1], "session id"));
      row.intervals = static_cast<std::size_t>(field_u64(tok[2], "intervals"));
      row.phases = static_cast<std::size_t>(field_u64(tok[3], "phases"));
      row.current_phase =
          static_cast<std::size_t>(field_u64(tok[4], "current_phase"));
      row.transitions =
          static_cast<std::size_t>(field_u64(tok[5], "transitions"));
      row.heartbeat_records = field_u64(tok[6], "heartbeats");
      row.dropped_frames = field_u64(tok[7], "dropped");
      row.closed = field_u64(tok[8], "closed") != 0;
      // The client name is everything after the 9th token — it may
      // contain spaces. Tolerate a missing name (pre-sanitizer
      // emitters could drop it) rather than rejecting the whole state.
      row.client_name = tok.size() >= 10
                            ? std::string(line.substr(token_offset(line, 9)))
                            : "?";
      s.sessions.push_back(std::move(row));
    } else if (kw == "counter") {
      if (tok.size() != 3) bad("short counter row");
      s.counters.emplace_back(std::string(tok[1]),
                              field_u64(tok[2], "counter value"));
    } else if (kw == "gauge") {
      if (tok.size() != 3) bad("short gauge row");
      s.gauges.emplace_back(std::string(tok[1]),
                            field_i64(tok[2], "gauge value"));
    } else if (kw == "hist") {
      if (tok.size() < 5) bad("short hist row");
      obs::HistogramSnapshot snap;
      snap.count = field_u64(tok[2], "hist count");
      snap.sum = field_u64(tok[3], "hist sum");
      snap.max = field_u64(tok[4], "hist max");
      for (std::size_t i = 5; i < tok.size(); ++i) {
        const auto sep = tok[i].find(':');
        if (sep == std::string_view::npos) bad("bad hist bucket");
        const auto idx = static_cast<std::size_t>(
            field_u64(tok[i].substr(0, sep), "hist bucket index"));
        if (idx >= obs::Histogram::kBuckets) bad("hist bucket out of range");
        if (idx >= snap.counts.size()) snap.counts.resize(idx + 1, 0);
        snap.counts[idx] =
            field_u64(tok[i].substr(sep + 1), "hist bucket count");
      }
      s.histograms.emplace_back(std::string(tok[1]), std::move(snap));
    } else {
      // Unknown keyword: skip, for forward compatibility with v1.x
      // emitters that add rows.
    }
  }
  return s;
}

void merge_shard_state(ShardState& dst, const ShardState& src) {
  dst.open_sessions += src.open_sessions;
  dst.total_intervals += src.total_intervals;
  dst.total_transitions += src.total_transitions;
  if (src.phase_count_histogram.size() > dst.phase_count_histogram.size()) {
    dst.phase_count_histogram.resize(src.phase_count_histogram.size(), 0);
  }
  for (std::size_t i = 0; i < src.phase_count_histogram.size(); ++i) {
    dst.phase_count_histogram[i] += src.phase_count_histogram[i];
  }
  dst.sessions.insert(dst.sessions.end(), src.sessions.begin(),
                      src.sessions.end());
  const auto merge_rows = [](auto& dst_rows, const auto& src_rows) {
    for (const auto& [name, value] : src_rows) {
      auto it = std::find_if(dst_rows.begin(), dst_rows.end(),
                             [&](const auto& r) { return r.first == name; });
      if (it == dst_rows.end()) {
        dst_rows.emplace_back(name, value);
      } else {
        it->second += value;
      }
    }
  };
  merge_rows(dst.counters, src.counters);
  merge_rows(dst.gauges, src.gauges);
  for (const auto& [name, snap] : src.histograms) {
    auto it = std::find_if(dst.histograms.begin(), dst.histograms.end(),
                           [&](const auto& r) { return r.first == name; });
    if (it == dst.histograms.end()) {
      dst.histograms.emplace_back(name, snap);
    } else {
      it->second.merge(snap);
    }
  }
}

}  // namespace incprof::service
