#include "gmon/snapshot.hpp"

#include "util/saturating.hpp"

#include <algorithm>

namespace incprof::gmon {

namespace {
struct NameLess {
  bool operator()(const FunctionProfile& fp, std::string_view name) const {
    return fp.name < name;
  }
};
}  // namespace

void ProfileSnapshot::upsert(FunctionProfile fp) {
  auto it = std::lower_bound(functions_.begin(), functions_.end(),
                             std::string_view(fp.name), NameLess{});
  if (it != functions_.end() && it->name == fp.name) {
    *it = std::move(fp);
  } else {
    functions_.insert(it, std::move(fp));
  }
}

void ProfileSnapshot::append(FunctionProfile fp) {
  if (functions_.empty() || functions_.back().name < fp.name) {
    functions_.push_back(std::move(fp));
  } else {
    upsert(std::move(fp));
  }
}

const FunctionProfile* ProfileSnapshot::find(
    std::string_view name) const noexcept {
  auto it = std::lower_bound(functions_.begin(), functions_.end(), name,
                             NameLess{});
  if (it != functions_.end() && it->name == name) return &*it;
  return nullptr;
}

std::int64_t ProfileSnapshot::total_self_ns() const noexcept {
  std::int64_t total = 0;
  for (const auto& fp : functions_) {
    total = util::saturating_add(total, fp.self_ns);
  }
  return total;
}

ProfileSnapshot difference(const ProfileSnapshot& cur,
                           const ProfileSnapshot& prev) {
  ProfileSnapshot out;
  difference_into(cur, prev, out);
  return out;
}

void difference_into(const ProfileSnapshot& cur, const ProfileSnapshot& prev,
                     ProfileSnapshot& out) {
  out.seq_ = cur.seq();
  out.timestamp_ns_ = cur.timestamp_ns();
  // Both function lists are sorted by name (class invariant), so one
  // merge-walk finds every prev counterpart; the output inherits cur's
  // order and stays sorted. resize + copy-assign reuse out's vector and
  // string capacity from the previous call.
  out.functions_.resize(cur.functions_.size());
  auto pit = prev.functions_.begin();
  const auto pend = prev.functions_.end();
  for (std::size_t i = 0; i < cur.functions_.size(); ++i) {
    const FunctionProfile& fp = cur.functions_[i];
    FunctionProfile& d = out.functions_[i];
    d.name = fp.name;
    d.self_ns = fp.self_ns;
    d.calls = fp.calls;
    d.inclusive_ns = fp.inclusive_ns;
    while (pit != pend && pit->name < fp.name) ++pit;
    if (pit != pend && pit->name == fp.name) {
      d.self_ns = std::max<std::int64_t>(0, fp.self_ns - pit->self_ns);
      d.calls = std::max<std::int64_t>(0, fp.calls - pit->calls);
      d.inclusive_ns =
          std::max<std::int64_t>(0, fp.inclusive_ns - pit->inclusive_ns);
    }
  }
}

}  // namespace incprof::gmon
