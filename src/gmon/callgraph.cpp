#include "gmon/callgraph.hpp"

#include "util/bytes.hpp"
#include "util/strings.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace incprof::gmon {

namespace {
struct EdgeKeyLess {
  bool operator()(const CallEdge& e,
                  const std::pair<std::string_view, std::string_view>& key)
      const noexcept {
    if (e.caller != key.first) return e.caller < key.first;
    return e.callee < key.second;
  }
};

std::vector<CallEdge>::const_iterator lower_bound_edge(
    const std::vector<CallEdge>& edges, std::string_view caller,
    std::string_view callee) {
  return std::lower_bound(edges.begin(), edges.end(),
                          std::make_pair(caller, callee), EdgeKeyLess{});
}
}  // namespace

void CallGraphSnapshot::upsert(CallEdge edge) {
  auto it = lower_bound_edge(edges_, edge.caller, edge.callee);
  const auto idx = static_cast<std::size_t>(it - edges_.begin());
  if (it != edges_.end() && it->caller == edge.caller &&
      it->callee == edge.callee) {
    edges_[idx] = std::move(edge);
  } else {
    edges_.insert(edges_.begin() + static_cast<std::ptrdiff_t>(idx),
                  std::move(edge));
  }
}

void CallGraphSnapshot::accumulate(std::string_view caller,
                                   std::string_view callee,
                                   std::int64_t count_delta,
                                   std::int64_t time_delta_ns) {
  auto it = lower_bound_edge(edges_, caller, callee);
  const auto idx = static_cast<std::size_t>(it - edges_.begin());
  if (it != edges_.end() && it->caller == caller && it->callee == callee) {
    edges_[idx].count += count_delta;
    edges_[idx].time_ns += time_delta_ns;
    return;
  }
  CallEdge edge;
  edge.caller = std::string(caller);
  edge.callee = std::string(callee);
  edge.count = count_delta;
  edge.time_ns = time_delta_ns;
  edges_.insert(edges_.begin() + static_cast<std::ptrdiff_t>(idx),
                std::move(edge));
}

const CallEdge* CallGraphSnapshot::find(
    std::string_view caller, std::string_view callee) const noexcept {
  auto it = lower_bound_edge(edges_, caller, callee);
  if (it != edges_.end() && it->caller == caller && it->callee == callee) {
    return &*it;
  }
  return nullptr;
}

std::vector<const CallEdge*> CallGraphSnapshot::callers_of(
    std::string_view callee) const {
  std::vector<const CallEdge*> out;
  for (const auto& e : edges_) {
    if (e.callee == callee) out.push_back(&e);
  }
  return out;
}

std::vector<const CallEdge*> CallGraphSnapshot::callees_of(
    std::string_view caller) const {
  std::vector<const CallEdge*> out;
  auto it = lower_bound_edge(edges_, caller, "");
  for (; it != edges_.end() && it->caller == caller; ++it) {
    out.push_back(&*it);
  }
  return out;
}

std::int64_t CallGraphSnapshot::total_calls_into(
    std::string_view callee) const {
  std::int64_t total = 0;
  for (const auto& e : edges_) {
    if (e.callee == callee) total += e.count;
  }
  return total;
}

std::string format_call_graph(const CallGraphSnapshot& snap) {
  std::string out = "Call graph:\n\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-32s %10s %14s  %s\n", "caller",
                "calls", "self-s", "callee");
  out += buf;

  // Group by caller (edges are sorted by caller already).
  std::string_view current;
  bool first = true;
  for (const auto& e : snap.edges()) {
    if (first || e.caller != current) {
      current = e.caller;
      first = false;
      out += e.caller;
      out += '\n';
    }
    std::snprintf(buf, sizeof(buf), "%-32s %10lld %14.6f  %s\n", "",
                  static_cast<long long>(e.count),
                  static_cast<double>(e.time_ns) / 1e9, e.callee.c_str());
    out += buf;
  }
  return out;
}

CallGraphSnapshot parse_call_graph(std::string_view text) {
  CallGraphSnapshot snap;
  bool saw_banner = false;
  bool in_rows = false;
  std::string caller;

  for (std::string_view line : util::split_lines(text)) {
    if (util::starts_with(util::trim(line), "Call graph:")) {
      saw_banner = true;
      continue;
    }
    if (!saw_banner) continue;
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    if (util::starts_with(trimmed, "caller")) {
      in_rows = true;
      continue;
    }
    if (!in_rows) continue;

    if (!line.empty() && line[0] != ' ') {
      // A caller heading (flush to the left margin).
      caller = std::string(trimmed);
      continue;
    }
    // An edge row: calls, self seconds, callee name (may contain spaces).
    const auto tokens = util::split_ws(trimmed);
    if (tokens.size() < 3) {
      throw std::runtime_error("call graph: short edge row: " +
                               std::string(line));
    }
    std::uint64_t count = 0;
    double secs = 0.0;
    if (!util::parse_u64(tokens[0], count) ||
        !util::parse_double(tokens[1], secs)) {
      throw std::runtime_error("call graph: bad edge columns: " +
                               std::string(line));
    }
    if (caller.empty()) {
      throw std::runtime_error("call graph: edge row before any caller");
    }
    std::string callee;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      if (i > 2) callee += ' ';
      callee.append(tokens[i]);
    }
    CallEdge edge;
    edge.caller = caller;
    edge.callee = std::move(callee);
    edge.count = static_cast<std::int64_t>(count);
    edge.time_ns = static_cast<std::int64_t>(secs * 1e9 + 0.5);
    snap.upsert(std::move(edge));
  }
  if (!saw_banner) {
    throw std::runtime_error("call graph: missing 'Call graph:' banner");
  }
  return snap;
}

namespace {
constexpr std::uint32_t kMagic = 0x47435049;  // "IPCG" little-endian
constexpr std::uint32_t kVersion = 1;

using util::put_i64;
using util::put_str;
using util::put_u32;
}  // namespace

std::string encode_call_graph(const CallGraphSnapshot& snap) {
  std::string out;
  put_u32(out, kMagic);
  put_u32(out, kVersion);
  put_u32(out, snap.seq());
  put_u32(out, static_cast<std::uint32_t>(snap.edges().size()));
  put_i64(out, snap.timestamp_ns());
  for (const auto& e : snap.edges()) {
    put_str(out, e.caller);
    put_str(out, e.callee);
    put_i64(out, e.count);
    put_i64(out, e.time_ns);
  }
  return out;
}

CallGraphSnapshot decode_call_graph(std::string_view bytes) {
  util::ByteReader r(bytes, "call graph binary");
  if (r.u32() != kMagic) {
    throw std::runtime_error("call graph binary: bad magic");
  }
  if (r.u32() != kVersion) {
    throw std::runtime_error("call graph binary: unsupported version");
  }
  const std::uint32_t seq = r.u32();
  const std::uint32_t count = r.u32();
  const std::int64_t ts = r.i64();
  CallGraphSnapshot snap(seq, ts);
  for (std::uint32_t i = 0; i < count; ++i) {
    CallEdge e;
    e.caller = r.str();
    e.callee = r.str();
    e.count = r.i64();
    e.time_ns = r.i64();
    snap.upsert(std::move(e));
  }
  r.expect_end();
  return snap;
}

}  // namespace incprof::gmon
