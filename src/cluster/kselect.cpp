#include "cluster/kselect.hpp"

#include "cluster/distance_cache.hpp"
#include "cluster/quality.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace incprof::cluster {

namespace {

/// Most heap score_silhouettes silently spends on a pairwise-distance
/// cache (~1 GiB, reached around 16k rows). Larger inputs score
/// directly, recomputing each point's distance row.
constexpr std::size_t kCacheBudget = std::size_t{1} << 30;

}  // namespace

std::vector<double> KSweep::inertia_curve() const {
  std::vector<double> out;
  out.reserve(entries.size());
  for (const auto& e : entries) out.push_back(e.result.inertia);
  return out;
}

KSweep sweep_k(const Matrix& points, std::size_t k_max,
               const KMeansConfig& base) {
  return sweep_k(points, k_max, base, nullptr, nullptr);
}

KSweep sweep_k(const Matrix& points, std::size_t k_max,
               const KMeansConfig& base, util::ThreadPool* pool,
               const DistanceCache* cache) {
  if (k_max == 0) throw std::invalid_argument("sweep_k: k_max must be >= 1");
  KSweep sweep;
  const std::size_t top = std::min(k_max, points.rows());
  if (top == 0) return sweep;

  // Derive every restart's RNG stream serially, in exactly the order the
  // serial path consumes them (fresh Rng(seed) per k, split() in restart
  // order), before anything fans out — the grid can then run the cells
  // in any interleaving without perturbing seeding.
  const std::size_t restarts = std::max<std::size_t>(1, base.n_init);
  std::vector<util::Rng> rngs;
  rngs.reserve(top * restarts);
  for (std::size_t k = 1; k <= top; ++k) {
    util::Rng rng(base.seed);
    for (std::size_t s = 0; s < restarts; ++s) rngs.push_back(rng.split());
  }

  // Fan out the k x restart grid: each cell is one independent restart
  // writing its own slot. Inside a grid task a nested parallel_for runs
  // inline, so passing the pool down is harmless; it only buys extra
  // parallelism on the serial-grid path.
  std::vector<KMeansResult> grid(top * restarts);
  auto run_cell = [&](std::size_t idx) {
    KMeansConfig cfg = base;
    cfg.k = idx / restarts + 1;
    util::Rng rng = rngs[idx];
    grid[idx] = kmeans_run(points, cfg, rng, pool);
  };
  if (pool != nullptr) {
    pool->parallel_for(grid.size(), run_cell);
  } else {
    for (std::size_t idx = 0; idx < grid.size(); ++idx) run_cell(idx);
  }

  // Pick each k's winner by strict `<` in restart order — the same
  // tie-breaking the serial restart loop applies.
  for (std::size_t ki = 0; ki < top; ++ki) {
    std::size_t best = ki * restarts;
    for (std::size_t s = 1; s < restarts; ++s) {
      const std::size_t idx = ki * restarts + s;
      if (grid[idx].inertia < grid[best].inertia) best = idx;
    }
    KSweepEntry entry;
    entry.k = ki + 1;
    entry.result = std::move(grid[best]);
    std::vector<bool> seen(entry.k, false);
    for (auto a : entry.result.assignments) seen[a] = true;
    entry.result.populated_clusters = static_cast<std::size_t>(
        std::count(seen.begin(), seen.end(), true));
    sweep.entries.push_back(std::move(entry));
  }
  if (cache != nullptr) score_silhouettes(sweep, points, pool, cache);
  return sweep;
}

void score_silhouettes(KSweep& sweep, const Matrix& points,
                       util::ThreadPool* pool, const DistanceCache* cache) {
  if (sweep.silhouettes_scored) return;
  DistanceCache local_cache;
  // Only entries with k >= 2 are scored, so a one-entry sweep needs no
  // cache. bytes_required saturates on overflow, so adversarial row
  // counts fail the budget instead of wrapping into a tiny allocation.
  if (cache == nullptr && sweep.entries.size() >= 2 &&
      DistanceCache::bytes_required(points.rows()) <= kCacheBudget) {
    local_cache = DistanceCache::build(points, pool);
    cache = &local_cache;
  }
  for (KSweepEntry& entry : sweep.entries) {
    entry.silhouette =
        entry.k >= 2
            ? mean_silhouette(points, entry.result.assignments, cache, pool)
            : 0.0;
  }
  sweep.silhouettes_scored = true;
}

std::size_t select_elbow(const KSweep& sweep) {
  const auto& es = sweep.entries;
  if (es.empty()) throw std::invalid_argument("select_elbow: empty sweep");

  // A flat curve (WCSS barely improves with k) means one phase. This
  // guard must run before any short-sweep shortcut: returning the last
  // entry unconditionally made a structureless 2-entry sweep report
  // k=2 every time.
  if (es.front().result.inertia - es.back().result.inertia <=
      1e-9 * std::max(std::fabs(es.front().result.inertia), 1.0)) {
    return 0;
  }
  if (es.size() <= 2) return es.size() - 1;

  // WCSS decays roughly geometrically in k for well-separated phases, so
  // the elbow is found on the log curve (the standard kneedle transform
  // for exponential decay); on the linear curve the first one or two
  // drops dominate and finer phase structure is never selected.
  const double floor_val = 1e-12 * std::max(es.front().result.inertia, 1.0);
  auto logy = [&](std::size_t i) {
    return std::log(std::max(es[i].result.inertia, floor_val));
  };

  const double x0 = static_cast<double>(es.front().k);
  const double y0 = logy(0);
  const double x1 = static_cast<double>(es.back().k);
  const double y1 = logy(es.size() - 1);

  const double span = y0 - y1;
  if (span <= 1e-12) {
    // Degenerate on the log curve too: one phase.
    return 0;
  }

  // Distance from each point to the chord (x0,y0)-(x1,y1), with both
  // axes normalized to [0,1] so k steps and log-WCSS are comparable.
  const double dx = x1 - x0;
  double best = -1.0;
  std::size_t besti = 0;
  for (std::size_t i = 0; i < es.size(); ++i) {
    const double xn = (static_cast<double>(es[i].k) - x0) / dx;
    const double yn = (logy(i) - y1) / span;  // 1 at k=1 -> 0 at k_max
    // Chord in normalized space runs (0,1) -> (1,0): x + y - 1 = 0.
    const double dist = (1.0 - xn - yn) / std::sqrt(2.0);
    // Points *below* the chord (convex decreasing curve) have dist > 0.
    if (dist > best) {
      best = dist;
      besti = i;
    }
  }
  return besti;
}

std::size_t select_silhouette(const KSweep& sweep) {
  const auto& es = sweep.entries;
  if (es.empty()) {
    throw std::invalid_argument("select_silhouette: empty sweep");
  }
  if (!sweep.silhouettes_scored) {
    throw std::invalid_argument(
        "select_silhouette: sweep is unscored; call score_silhouettes");
  }
  double best = 0.0;
  std::size_t besti = 0;  // k = 1 fallback
  for (std::size_t i = 0; i < es.size(); ++i) {
    if (es[i].k < 2) continue;
    if (es[i].silhouette > best) {
      best = es[i].silhouette;
      besti = i;
    }
  }
  return besti;
}

const KSweepEntry& select_k(const KSweep& sweep, KSelection rule) {
  const std::size_t i = rule == KSelection::kElbow
                            ? select_elbow(sweep)
                            : select_silhouette(sweep);
  return sweep.entries[i];
}

}  // namespace incprof::cluster
