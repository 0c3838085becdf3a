#include "core/intervals.hpp"

#include "util/saturating.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <string_view>

namespace incprof::core {

namespace {

/// Matrix rows one from_cumulative unit fills.
constexpr std::size_t kRowsPerUnit = 64;

// Sorted union of every snapshot's function names, as views into the
// snapshots. Each snapshot's names are already sorted and unique, so a
// snapshot that brings no new name costs one merge-walk of compares;
// only one that does is merged in. (The final cumulative snapshot
// usually holds every name, but pruned dumps need not.)
std::vector<std::string_view> name_universe(
    const std::vector<gmon::ProfileSnapshot>& snapshots) {
  std::vector<std::string_view> names;
  std::vector<std::string_view> merged;
  for (const auto& snap : snapshots) {
    const auto& fns = snap.functions();
    std::size_t a = 0;
    std::size_t b = 0;
    while (b < fns.size()) {
      while (a < names.size() && names[a] < fns[b].name) ++a;
      if (a == names.size() || names[a] != fns[b].name) break;
      ++a;
      ++b;
    }
    if (b == fns.size()) continue;  // nothing new

    merged.clear();
    merged.reserve(names.size() + fns.size());
    a = 0;
    b = 0;
    while (a < names.size() || b < fns.size()) {
      if (b == fns.size() ||
          (a < names.size() && names[a] < fns[b].name)) {
        merged.push_back(names[a++]);
      } else {
        if (a < names.size() && names[a] == fns[b].name) ++a;
        merged.push_back(fns[b++].name);
      }
    }
    names.swap(merged);
  }
  return names;
}

// Universe column of each of `snap`'s functions. A snapshot whose size
// equals the universe's holds every name, in the same order.
void column_indices(const gmon::ProfileSnapshot& snap,
                    const std::vector<std::string_view>& names,
                    std::vector<std::size_t>& cols) {
  const auto& fns = snap.functions();
  cols.resize(fns.size());
  if (fns.size() == names.size()) {
    std::iota(cols.begin(), cols.end(), std::size_t{0});
    return;
  }
  std::size_t j = 0;
  for (std::size_t k = 0; k < fns.size(); ++k) {
    while (names[j] < fns[k].name) ++j;
    cols[k] = j++;
  }
}

}  // namespace

IntervalData IntervalData::from_cumulative(
    const std::vector<gmon::ProfileSnapshot>& snapshots,
    util::ThreadPool* pool) {
  IntervalData data;
  if (snapshots.empty()) return data;

  const std::vector<std::string_view> names = name_universe(snapshots);
  data.function_names_.assign(names.begin(), names.end());

  const std::size_t n = snapshots.size();
  const std::size_t m = names.size();
  data.self_seconds_ = cluster::Matrix(n, m);
  data.calls_ = cluster::Matrix(n, m);
  data.children_seconds_ = cluster::Matrix(n, m);
  data.timestamps_sec_.resize(n);

  // Each interval is snapshot i minus snapshot i-1 (the first minus
  // zero), as gmon::difference computes it: a function absent from the
  // previous dump keeps its raw counters, one present in both gets
  // field-wise deltas clamped at zero. One merge-walk over the two
  // snapshots' universe columns writes each delta straight into the
  // three matrix rows; functions absent from snapshot i stay zero.
  // Unit c fills rows [c * kRowsPerUnit, ...) and recomputes the columns
  // of the row before its first, so units share nothing and their split
  // does not depend on the thread count (DESIGN §6 rules 1 and 4).
  auto fill_unit = [&](std::size_t c) {
    const std::size_t begin = c * kRowsPerUnit;
    const std::size_t end = std::min(n, begin + kRowsPerUnit);
    std::vector<std::size_t> cur_cols;
    std::vector<std::size_t> prev_cols;
    if (begin > 0) column_indices(snapshots[begin - 1], names, prev_cols);
    for (std::size_t i = begin; i < end; ++i) {
      const auto& cur = snapshots[i].functions();
      column_indices(snapshots[i], names, cur_cols);
      // prev_cols is empty for i == 0, so prev is never read there.
      const gmon::FunctionProfile* prev =
          i == 0 ? nullptr : snapshots[i - 1].functions().data();
      const std::span<double> self_row = data.self_seconds_.row(i);
      const std::span<double> calls_row = data.calls_.row(i);
      const std::span<double> children_row = data.children_seconds_.row(i);

      std::size_t p = 0;
      for (std::size_t k = 0; k < cur.size(); ++k) {
        const gmon::FunctionProfile& fp = cur[k];
        const std::size_t j = cur_cols[k];
        std::int64_t self_ns = fp.self_ns;
        std::int64_t calls = fp.calls;
        std::int64_t inclusive_ns = fp.inclusive_ns;
        while (p < prev_cols.size() && prev_cols[p] < j) ++p;
        if (p < prev_cols.size() && prev_cols[p] == j) {
          self_ns = std::max<std::int64_t>(
              0, util::saturating_sub(self_ns, prev[p].self_ns));
          calls = std::max<std::int64_t>(
              0, util::saturating_sub(calls, prev[p].calls));
          inclusive_ns = std::max<std::int64_t>(
              0, util::saturating_sub(inclusive_ns, prev[p].inclusive_ns));
        }
        self_row[j] = static_cast<double>(self_ns) / 1e9;
        calls_row[j] = static_cast<double>(calls);
        const std::int64_t children =
            util::saturating_sub(inclusive_ns, self_ns);
        children_row[j] =
            children > 0 ? static_cast<double>(children) / 1e9 : 0.0;
      }
      data.timestamps_sec_[i] =
          static_cast<double>(snapshots[i].timestamp_ns()) / 1e9;
      cur_cols.swap(prev_cols);
    }
  };
  const std::size_t units = (n + kRowsPerUnit - 1) / kRowsPerUnit;
  if (pool != nullptr) {
    pool->parallel_for(units, fill_unit);
  } else {
    for (std::size_t c = 0; c < units; ++c) fill_unit(c);
  }
  return data;
}

int IntervalData::function_index(std::string_view name) const noexcept {
  const auto it = std::lower_bound(function_names_.begin(),
                                   function_names_.end(), name);
  if (it != function_names_.end() && *it == name) {
    return static_cast<int>(it - function_names_.begin());
  }
  return -1;
}

double IntervalData::total_self_seconds() const noexcept {
  double total = 0.0;
  // Row by row: Matrix storage is stride-padded, so the raw span holds
  // pad lanes that must not enter the sum.
  for (std::size_t r = 0; r < self_seconds_.rows(); ++r) {
    for (double v : self_seconds_.row(r)) total += v;
  }
  return total;
}

}  // namespace incprof::core
