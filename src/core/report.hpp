// Paper-style reporting of site-selection results. render_site_table
// produces the layout of Tables II-VI: one row per (phase, site) with
// heartbeat id, discovered function, Phase %, App % and instrumentation
// type, plus an optional trailing "Manual Instrumentation Sites" section
// for the hand-picked comparison sites.
#pragma once

#include "core/sites.hpp"

#include <map>
#include <string>
#include <vector>

namespace incprof::core {

/// A manually chosen comparison site (the paper's human baseline).
struct ManualSite {
  std::string function;
  InstType type = InstType::kBody;
};

/// Stable heartbeat-id assignment across a result: each distinct
/// (function, type) pair gets the next id (1-based) in order of first
/// appearance, so a site shared by two phases shares its HB id, as in
/// Table III's cg_solve.
std::map<std::pair<std::string, InstType>, unsigned> assign_heartbeat_ids(
    const SiteSelectionResult& result);

/// Renders the Tables II-VI layout.
std::string render_site_table(const std::string& app_name,
                              const SiteSelectionResult& result,
                              const std::vector<ManualSite>& manual_sites);

/// One-line-per-phase summary (phase id, #intervals, coverage, sites).
std::string render_phase_summary(const SiteSelectionResult& result);

/// Renders the k-selection diagnostics: the WCSS (elbow) curve and
/// silhouette per k from a sweep ("-" when the sweep is unscored; see
/// cluster::score_silhouettes).
std::string render_k_sweep(const cluster::KSweep& sweep,
                           std::size_t chosen_index);

/// Renders the phase assignment over time as a one-line strip (one
/// digit per interval bucket, '.' for mixed buckets) — the time-varying
/// behaviour view that motivates the whole method. `width` caps the
/// strip length; wider runs are bucketed by majority phase.
std::string render_phase_timeline(
    const std::vector<std::size_t>& assignments, std::size_t width = 96);

}  // namespace incprof::core
