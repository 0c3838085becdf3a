#include "trace.hpp"

#include "probe.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

std::size_t Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.op = op_;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back(s);
  const std::size_t index = spans_.size() - 1;
  open_.push_back(index);
  spans_[index].start_ns = now_ns();
  return index;
}

void Tracer::end(std::size_t index) {
  spans_[index].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void TraceSet::add(const Tracer& tracer) {
  const auto offset = static_cast<std::int64_t>(spans_.size());
  for (Span s : tracer.spans()) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(s);
  }
  dirty_ = true;
}

void TraceSet::compute_self_times() const {
  if (!dirty_) return;
  dirty_ = false;
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  self_ns_.assign(spans_.size(), 0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    covered.clear();
    for (const std::size_t c : children[i]) {
      covered.emplace_back(std::max(spans_[c].start_ns, s.start_ns),
                           std::min(spans_[c].end_ns, s.end_ns));
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t busy = 0;
    std::uint64_t reach = s.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) {
        busy += hi - from;
        reach = hi;
      }
    }
    const std::uint64_t dur = s.end_ns - s.start_ns;
    self_ns_[i] = dur > busy ? dur - busy : 0;
  }
}

double TraceSet::median_self_ns(const std::string& name) const {
  compute_self_times();
  std::vector<double> v;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) v.push_back(static_cast<double>(self_ns_[i]));
  }
  return median(v);
}

double TraceSet::median_op_self_ns(const std::string& name,
                                   const std::string& root) const {
  compute_self_times();
  std::map<std::uint64_t, double> per_op;
  for (const Span& s : spans_) {
    if (root == s.name) per_op.emplace(s.op, 0.0);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    const auto it = per_op.find(spans_[i].op);
    if (it != per_op.end()) it->second += static_cast<double>(self_ns_[i]);
  }
  std::vector<double> v;
  v.reserve(per_op.size());
  for (const auto& [op, ns] : per_op) v.push_back(ns);
  return median(v);
}

bool TraceSet::write_csv(const std::string& path) const {
  compute_self_times();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,op,parent,start_ns,end_ns,self_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s,%llu,%lld,%llu,%llu,%llu\n", s.name,
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(self_ns_[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
