#include "core/online.hpp"

#include "cluster/simd/simd.hpp"
#include "obs/span.hpp"
#include "util/hash.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace incprof::core {

OnlinePhaseTracker::OnlinePhaseTracker(OnlineConfig config)
    : config_(config) {
  if (config_.sketch_width == 0) config_.sketch_width = 1;
  if (config_.assignment_window == 0) config_.assignment_window = 1;
  // Pre-size the bounded state once: the interval vector is always
  // sketch_width wide, and at most max_phases centroids of that width
  // ever exist. The ring grows in observe() instead.
  v_.reserve(config_.sketch_width);
  centroids_.reserve(config_.max_phases);
  phases_.reserve(config_.max_phases);
  assign_ptrs_.reserve(config_.max_phases);
  assign_slots_.reserve(config_.max_phases);
  assign_d2_.reserve(config_.max_phases);
}

void OnlinePhaseTracker::vectorize(const gmon::ProfileSnapshot& delta) {
  // Fixed-width sketch: bucket by the fleet-convention string hash
  // (FNV-1a + splitmix64); colliding functions accumulate. A session
  // discovering 100k distinct functions still does fixed work here.
  v_.assign(config_.sketch_width, 0.0);
  for (const auto& fp : delta.functions()) {
    const std::size_t bucket = static_cast<std::size_t>(
        util::hash_string(fp.name) % config_.sketch_width);
    v_[bucket] += static_cast<double>(fp.self_ns) / 1e9;
  }
}

OnlineObservation OnlinePhaseTracker::observe(
    const gmon::ProfileSnapshot& snap) {
  return observe_impl(snap, nullptr);
}

OnlineObservation OnlinePhaseTracker::observe(gmon::ProfileSnapshot&& snap) {
  return observe_impl(snap, &snap);
}

OnlineObservation OnlinePhaseTracker::observe_impl(
    const gmon::ProfileSnapshot& snap, gmon::ProfileSnapshot* movable) {
  // The five stage spans mirror the offline pipeline.* set; under the
  // daemon they run on a worker thread that carries the interval's
  // trace context, so each stage lands in the client's end-to-end
  // trace as a child of frame.process.
  {
    obs::ScopedSpan span("online.differencing", "analysis");
    // Difference against the previous cumulative dump into the reused
    // delta buffer (first dump differences against the empty snapshot,
    // yielding the dump itself), then retire `snap` into previous_ —
    // moved when the caller ceded ownership, copy-assigned (reusing
    // previous_'s storage) otherwise. The old code deep-copied the full
    // cumulative snapshot every interval.
    gmon::difference_into(snap, previous_, delta_);
    if (movable != nullptr) {
      previous_ = std::move(*movable);
    } else {
      previous_ = snap;
    }
  }

  {
    obs::ScopedSpan span("online.vectorize", "analysis");
    vectorize(delta_);
  }

  // Nearest live centroid.
  double best = std::numeric_limits<double>::max();
  std::size_t best_phase = kNoPhase;
  {
    obs::ScopedSpan span("online.assign", "analysis");
    // Every live centroid is sketch_width wide, so one batched SIMD
    // call computes all squared distances. The sqrt still runs
    // per-candidate *before* the strict-< compare: two distinct d2 can
    // round to the same d, and comparing d2 directly would then pick a
    // different first winner.
    assign_ptrs_.clear();
    assign_slots_.clear();
    for (std::size_t p = 0; p < centroids_.size(); ++p) {
      if (phases_[p].merged_into != kNoPhase) continue;
      assign_ptrs_.push_back(centroids_[p].data());
      assign_slots_.push_back(p);
    }
    if (!assign_ptrs_.empty()) {
      assign_d2_.resize(assign_ptrs_.size());
      cluster::simd::kernels().squared_euclidean(
          v_.data(), assign_ptrs_.data(), assign_ptrs_.size(), v_.size(),
          assign_d2_.data());
      for (std::size_t t = 0; t < assign_slots_.size(); ++t) {
        const double d = std::sqrt(assign_d2_[t]);
        if (d < best) {
          best = d;
          best_phase = assign_slots_[t];
        }
      }
    }
  }

  OnlineObservation obs;
  obs.interval = num_intervals_;
  std::size_t slot = 0;
  {
    obs::ScopedSpan span("online.update", "analysis");
    const bool open_new =
        live_phases_ == 0 || (best > config_.new_phase_distance &&
                              live_phases_ < config_.max_phases);
    if (open_new) {
      slot = phases_.size();
      obs.new_phase = true;
      obs.distance = live_phases_ == 0 ? 0.0 : best;
      centroids_.push_back(v_);
      phases_.push_back(PhaseState{1, 0.0, kNoPhase});
      ++live_phases_;
    } else {
      slot = best_phase;
      obs.distance = best;
      auto& c = centroids_[slot];
      PhaseState& ph = phases_[slot];
      ++ph.count;
      const double alpha =
          config_.ewma_alpha > 0.0
              ? config_.ewma_alpha
              : 1.0 / static_cast<double>(ph.count);
      for (std::size_t j = 0; j < c.size(); ++j) {
        c[j] += alpha * (v_[j] - c[j]);
      }
      ph.dispersion += alpha * (best - ph.dispersion);
      if (config_.merge_ratio > 0.0) {
        merge_overlapping_phases();
        slot = resolve_phase(slot);
      }
    }
    obs.phase = slot;
  }

  {
    obs::ScopedSpan span("online.classify", "analysis");
    obs.transition =
        num_intervals_ > 0 && resolve_phase(last_phase_) != slot;
    if (obs.transition) ++transitions_;
    last_phase_ = slot;
    // The ring grows with the session until it holds assignment_window
    // entries, so a short session pays only for its own length (the
    // daemon keeps every served session's tracker); then it wraps.
    if (ring_.size() < config_.assignment_window) {
      ring_.push_back(slot);
    } else {
      ring_[num_intervals_ % ring_.size()] = slot;
    }
    ++num_intervals_;
  }
  return obs;
}

double OnlinePhaseTracker::centroid_distance(std::size_t a,
                                             std::size_t b) const {
  const auto& ca = centroids_[a];
  const auto& cb = centroids_[b];
  double d2 = 0.0;
  for (std::size_t j = 0; j < ca.size(); ++j) {
    d2 += (ca[j] - cb[j]) * (ca[j] - cb[j]);
  }
  return std::sqrt(d2);
}

void OnlinePhaseTracker::merge_overlapping_phases() {
  if (live_phases_ < 2) return;
  // Worst simplified-Davies-Bouldin pair among mature live phases; one
  // merge per interval keeps the cost bounded and the sequence
  // deterministic. O(k^2) with k <= max_phases — constant work.
  double worst = 0.0;
  std::size_t wi = kNoPhase;
  std::size_t wj = kNoPhase;
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].merged_into != kNoPhase ||
        phases_[i].count < OnlineConfig::kMergeMinCount) {
      continue;
    }
    for (std::size_t j = i + 1; j < phases_.size(); ++j) {
      if (phases_[j].merged_into != kNoPhase ||
          phases_[j].count < OnlineConfig::kMergeMinCount) {
        continue;
      }
      const double d = std::max(centroid_distance(i, j), 1e-12);
      const double ratio =
          (phases_[i].dispersion + phases_[j].dispersion) / d;
      if (ratio > worst) {
        worst = ratio;
        wi = i;
        wj = j;
      }
    }
  }
  if (wi != kNoPhase && worst > config_.merge_ratio) {
    merge_phases(wi, wj);
  }
}

void OnlinePhaseTracker::merge_phases(std::size_t survivor,
                                      std::size_t victim) {
  PhaseState& s = phases_[survivor];
  PhaseState& t = phases_[victim];
  const double ws = static_cast<double>(s.count);
  const double wt = static_cast<double>(t.count);
  const double w = ws + wt;
  const double d = centroid_distance(survivor, victim);
  auto& cs = centroids_[survivor];
  const auto& ct = centroids_[victim];
  for (std::size_t j = 0; j < cs.size(); ++j) {
    cs[j] = (ws * cs[j] + wt * ct[j]) / w;
  }
  // Combined dispersion: count-weighted member dispersions plus each
  // side's centroid shift toward the merged mean.
  s.dispersion = (ws * s.dispersion + wt * t.dispersion) / w +
                 2.0 * ws * wt * d / (w * w);
  s.count += t.count;
  t.count = 0;
  t.dispersion = 0.0;
  t.merged_into = survivor;
  std::vector<double>().swap(centroids_[victim]);  // release the slot
  --live_phases_;
}

std::size_t OnlinePhaseTracker::resolve_phase(std::size_t phase) const {
  while (phase < phases_.size() &&
         phases_[phase].merged_into != kNoPhase) {
    phase = phases_[phase].merged_into;
  }
  return phase;
}

std::vector<std::size_t> OnlinePhaseTracker::phase_sizes() const {
  std::vector<std::size_t> sizes(phases_.size(), 0);
  for (std::size_t p = 0; p < phases_.size(); ++p) {
    sizes[p] = phases_[p].count;
  }
  return sizes;
}

std::vector<std::size_t> OnlinePhaseTracker::recent_assignments() const {
  const std::size_t n = std::min(num_intervals_, ring_.size());
  std::vector<std::size_t> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = ring_[(num_intervals_ - n + k) % ring_.size()];
  }
  return out;
}

std::vector<double> OnlinePhaseTracker::centroid(std::size_t phase) const {
  return centroids_.at(phase);
}

double OnlinePhaseTracker::davies_bouldin() const {
  if (live_phases_ < 2) return 0.0;
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i].merged_into != kNoPhase || phases_[i].count == 0) {
      continue;
    }
    double r = 0.0;
    for (std::size_t j = 0; j < phases_.size(); ++j) {
      if (j == i || phases_[j].merged_into != kNoPhase ||
          phases_[j].count == 0) {
        continue;
      }
      const double d = std::max(centroid_distance(i, j), 1e-12);
      r = std::max(r, (phases_[i].dispersion + phases_[j].dispersion) / d);
    }
    sum += r;
    ++counted;
  }
  return counted > 0 ? sum / static_cast<double>(counted) : 0.0;
}

std::size_t OnlinePhaseTracker::state_bytes() const {
  const auto snap_bytes = [](const gmon::ProfileSnapshot& s) {
    std::size_t b = s.functions().size() * sizeof(gmon::FunctionProfile);
    for (const auto& fp : s.functions()) b += fp.name.capacity();
    return b;
  };
  std::size_t b = sizeof(*this);
  b += snap_bytes(previous_) + snap_bytes(delta_);
  b += v_.capacity() * sizeof(double);
  for (const auto& c : centroids_) b += c.capacity() * sizeof(double);
  b += phases_.capacity() * sizeof(PhaseState);
  b += ring_.capacity() * sizeof(std::size_t);
  return b;
}

}  // namespace incprof::core
