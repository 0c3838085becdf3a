// Online (streaming) phase tracking. The paper's motivation is
// *deployment-time* visibility: "efficiently tracking deployed
// application performance in the future by providing information to
// identify good instrumentation points" (Abstract), and its related-work
// section singles out Nickolayev et al.'s real-time statistical
// clustering. OnlinePhaseTracker is that deployment-side counterpart to
// the offline k-means pipeline: it consumes cumulative profile dumps one
// at a time as the collector produces them, differences them
// incrementally, and assigns each completed interval to a phase. It
// never revisits old intervals.
//
// Its state is bounded however long a session runs and however many
// distinct functions it reports. Function names are hash-bucketed into a
// fixed `sketch_width` vector (FNV-1a + splitmix64, the fleet HashRing
// construction; colliding functions accumulate into the same bucket),
// centroids are fixed-width with running-mean or EWMA updates
// (sequential k-means), phases can be *merged* online when an
// incrementally-maintained simplified Davies-Bouldin pair term says two
// of them overlap, and the assignment history is a fixed ring plus exact
// counters. observe() does O(|dump| + max_phases * sketch_width) work
// and allocates nothing on the steady path. The offline pipeline
// (core::analyze_snapshots) stays the reference it is compared against.
#pragma once

#include "gmon/snapshot.hpp"

#include <string>
#include <vector>

namespace incprof::core {

/// Online-tracker parameters.
struct OnlineConfig {
  /// A new interval joins its nearest phase when the Euclidean distance
  /// (raw self-seconds space) is at most this; otherwise a new phase
  /// opens. With 1-second intervals, 0.5 means "more than half the
  /// interval's time moved to different functions".
  double new_phase_distance = 0.5;
  /// Hard cap on phases (the paper's k_max); once reached, intervals
  /// always join the nearest phase.
  std::size_t max_phases = 8;
  /// Centroid update weight for the newest member: centroids are
  /// running means when 0 (default), or exponentially-weighted with
  /// this alpha in (0, 1].
  double ewma_alpha = 0.0;
  /// Feature-vector width. Function names are bucketed by hash;
  /// collisions add their self-time into the same bucket. DESIGN §9
  /// records the measured collision rates behind the default.
  std::size_t sketch_width = 256;
  /// Per-interval assignments retained (a ring; the counters keep
  /// counting past it). A caller that wants a whole run's history sets
  /// this to at least the run length.
  std::size_t assignment_window = 1024;
  /// Online k selection: two phases are merged when their simplified
  /// Davies-Bouldin pair term
  /// (dispersion_i + dispersion_j) / centroid_distance(i, j) exceeds
  /// this ratio (both phases need kMergeMinCount members first).
  /// A pair of well-separated clusters scores < 1; overlapping ones
  /// score > 1. 0 disables merging.
  double merge_ratio = 1.0;

  /// Members each phase needs before it may take part in a merge —
  /// dispersion EWMAs are meaningless on a handful of samples.
  static constexpr std::size_t kMergeMinCount = 8;
};

/// One observation result.
struct OnlineObservation {
  /// Interval index (0-based) the dump completed.
  std::size_t interval = 0;
  /// Phase assigned to the interval.
  std::size_t phase = 0;
  /// True when this dump opened a brand-new phase.
  bool new_phase = false;
  /// True when the phase differs from the previous interval's (a phase
  /// transition — the event a deployment monitor would log).
  bool transition = false;
  /// Distance to the chosen centroid before the update.
  double distance = 0.0;
};

/// Bounded-state phase tracker over cumulative dumps (see the top of
/// this header).
class OnlinePhaseTracker {
 public:
  static constexpr std::size_t kNoPhase = static_cast<std::size_t>(-1);

  explicit OnlinePhaseTracker(OnlineConfig config = {});

  /// Feeds the next cumulative snapshot (in seq order); returns the
  /// assignment of the interval it completes.
  OnlineObservation observe(const gmon::ProfileSnapshot& snap);
  /// Same, but takes ownership: the snapshot is moved into the
  /// tracker's previous-dump slot instead of deep-copied — the
  /// allocation-free path for call sites that are done with the dump
  /// (the daemon decodes a fresh snapshot per frame anyway).
  OnlineObservation observe(gmon::ProfileSnapshot&& snap);

  /// The last min(num_intervals, assignment_window) assignments, oldest
  /// first. Ids are phase slots: a slot merged away keeps its id here.
  std::vector<std::size_t> recent_assignments() const;

  /// Number of live phases (merges can lower this).
  std::size_t num_phases() const noexcept { return live_phases_; }

  /// Phase slots ever opened — the exclusive upper bound of phase ids
  /// appearing in assignments (merged slots keep their id in history).
  std::size_t num_phase_slots() const noexcept { return phases_.size(); }

  /// Number of intervals observed (exact counter, not a history size).
  std::size_t num_intervals() const noexcept { return num_intervals_; }

  /// Phase transitions observed so far (exact counter).
  std::size_t transitions() const noexcept { return transitions_; }

  /// Phase of the latest interval (0 before the first).
  std::size_t current_phase() const noexcept {
    return num_intervals_ == 0 ? 0 : last_phase_;
  }

  /// Members per phase slot, from the exact incremental counters — O(k),
  /// never a rescan of the history. A slot merged away reports 0 (its
  /// members were transferred to the survivor); the sum over slots is
  /// always num_intervals().
  std::vector<std::size_t> phase_sizes() const;

  /// Where a phase slot's members live now: the slot itself while live,
  /// or the final survivor after following any chain of online merges.
  std::size_t resolve_phase(std::size_t phase) const;

  /// Copy of a phase slot's centroid: sketch_width wide while live,
  /// empty once merged away.
  std::vector<double> centroid(std::size_t phase) const;

  /// Incrementally-maintained simplified Davies-Bouldin score over live
  /// phases: mean over i of max_{j != i} (S_i + S_j) / d(c_i, c_j),
  /// with S the EWMA dispersion. Lower is better-separated; 0 when
  /// fewer than two live phases. O(k^2) with k <= max_phases.
  double davies_bouldin() const;

  /// Approximate resident bytes of all tracker state (buffers counted
  /// at capacity). Only the retained previous dump and its difference
  /// buffer scale with the dump's size; nothing grows with session
  /// length or with the names hashed into the sketch.
  std::size_t state_bytes() const;

  /// Always empty: the sketch is one-way and keeps no names. Exists
  /// only for perfbench's `core.functions` row.
  std::vector<std::string> function_names() const { return {}; }

  const OnlineConfig& config() const noexcept { return config_; }

 private:
  struct PhaseState {
    std::size_t count = 0;       // exact membership, incl. merged-in
    double dispersion = 0.0;     // EWMA distance-to-centroid
    std::size_t merged_into = kNoPhase;  // redirect when merged away
  };

  OnlineObservation observe_impl(const gmon::ProfileSnapshot& snap,
                                 gmon::ProfileSnapshot* movable);
  void vectorize(const gmon::ProfileSnapshot& delta);
  void merge_overlapping_phases();
  void merge_phases(std::size_t survivor, std::size_t victim);
  double centroid_distance(std::size_t a, std::size_t b) const;

  OnlineConfig config_;
  gmon::ProfileSnapshot previous_;
  gmon::ProfileSnapshot delta_;  // reused difference buffer
  std::vector<double> v_;  // reused sketch_width-wide interval vector
  std::vector<std::vector<double>> centroids_;  // sketch_width wide each
  std::vector<PhaseState> phases_;
  std::size_t live_phases_ = 0;

  // Reused assignment scratch (capacity-stable after warmup, honoring
  // the zero-steady-path-allocation contract): live centroid pointers,
  // their phase slots, and the batched squared distances.
  std::vector<const double*> assign_ptrs_;
  std::vector<std::size_t> assign_slots_;
  std::vector<double> assign_d2_;

  // Assignment state: a ring of at most assignment_window entries plus
  // exact counters.
  std::vector<std::size_t> ring_;
  std::size_t num_intervals_ = 0;
  std::size_t transitions_ = 0;
  std::size_t last_phase_ = kNoPhase;
};

}  // namespace incprof::core
