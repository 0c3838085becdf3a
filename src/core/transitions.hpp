// Phase-transition structure: the first-order Markov view of a phase
// assignment sequence. This is the quantitative form of "understanding
// the varying behavior of long running applications" (paper,
// Introduction): which phases follow which, how long the application
// dwells in each, and what fraction of the run each phase occupies —
// the numbers behind plots like Figures 2-6.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace incprof::core {

/// First-order transition statistics over a phase sequence.
class PhaseTransitionModel {
 public:
  /// Builds the model from per-interval assignments. `num_phases` may
  /// exceed the largest label (empty phases get zero rows).
  static PhaseTransitionModel from_assignments(
      const std::vector<std::size_t>& assignments, std::size_t num_phases);

  /// Number of phases modelled.
  std::size_t num_phases() const noexcept { return k_; }

  /// Transitions observed from `from` to `to` (consecutive intervals).
  std::size_t count(std::size_t from, std::size_t to) const noexcept {
    return counts_[from * k_ + to];
  }

  /// P(next = to | current = from); 0 when `from` was never left nor
  /// re-entered (no outgoing observations).
  double probability(std::size_t from, std::size_t to) const noexcept;

  /// Fraction of intervals spent in `phase`.
  double occupancy(std::size_t phase) const noexcept;

  /// Mean dwell: average length of a maximal consecutive run of `phase`.
  double mean_dwell(std::size_t phase) const noexcept;

  /// Number of intervals in the sequence.
  std::size_t total_intervals() const noexcept { return total_intervals_; }

  /// Number of phase changes in the sequence.
  std::size_t num_transitions() const noexcept { return transitions_; }

  /// Most likely successor of `from` (excluding self-loops); returns
  /// num_phases() when the phase never hands off to another.
  std::size_t likely_successor(std::size_t from) const;

  /// Renders the transition-probability matrix plus occupancy/dwell
  /// columns as a text table.
  std::string render() const;

 private:
  std::size_t k_ = 0;
  std::vector<std::size_t> counts_;     // k x k, row-major
  std::vector<std::size_t> occupancy_;  // intervals per phase
  std::vector<std::size_t> runs_;       // maximal runs per phase
  std::size_t total_intervals_ = 0;
  std::size_t transitions_ = 0;
};

}  // namespace incprof::core
