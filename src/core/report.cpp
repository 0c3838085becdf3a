#include "core/report.hpp"

#include <algorithm>
#include <cstdio>

#include "util/strings.hpp"
#include "util/table.hpp"

namespace incprof::core {

std::map<std::pair<std::string, InstType>, unsigned> assign_heartbeat_ids(
    const SiteSelectionResult& result) {
  std::map<std::pair<std::string, InstType>, unsigned> ids;
  unsigned next = 1;
  for (const auto& phase : result.phases) {
    for (const auto& site : phase.sites) {
      const auto key = std::make_pair(site.function_name, site.type);
      if (ids.emplace(key, next).second) ++next;
    }
  }
  return ids;
}

std::string render_site_table(const std::string& app_name,
                              const SiteSelectionResult& result,
                              const std::vector<ManualSite>& manual_sites) {
  const auto hb_ids = assign_heartbeat_ids(result);

  util::TextTable t;
  t.set_title(app_name + " instrumented functions");
  t.set_header({"Phase ID", "HB ID", "Discovered Site Function", "Phase %",
                "App %", "Inst. Type"});
  t.set_align(0, util::Align::kRight);
  t.set_align(1, util::Align::kRight);
  t.set_align(3, util::Align::kRight);
  t.set_align(4, util::Align::kRight);

  for (const auto& phase : result.phases) {
    for (const auto& site : phase.sites) {
      const unsigned hb =
          hb_ids.at(std::make_pair(site.function_name, site.type));
      t.add_row({std::to_string(phase.phase), std::to_string(hb),
                 site.function_name,
                 util::format_pct(site.phase_fraction),
                 util::format_pct(site.app_fraction),
                 to_string(site.type)});
    }
  }
  if (!manual_sites.empty()) {
    t.add_section("Manual Instrumentation Sites");
    for (const auto& m : manual_sites) {
      t.add_row({"", "", m.function, "", "", to_string(m.type)});
    }
  }
  return t.render();
}

std::string render_phase_summary(const SiteSelectionResult& result) {
  util::TextTable t;
  t.set_header({"Phase", "Intervals", "Coverage %", "Sites"});
  t.set_align(0, util::Align::kRight);
  t.set_align(1, util::Align::kRight);
  t.set_align(2, util::Align::kRight);
  for (const auto& phase : result.phases) {
    std::vector<std::string> names;
    for (const auto& s : phase.sites) {
      names.push_back(s.function_name + "/" + to_string(s.type));
    }
    t.add_row({std::to_string(phase.phase),
               std::to_string(phase.intervals.size()),
               util::format_pct(phase.coverage), util::join(names, ", ")});
  }
  return t.render();
}

std::string render_phase_timeline(
    const std::vector<std::size_t>& assignments, std::size_t width) {
  if (assignments.empty() || width == 0) return "";
  const std::size_t n = assignments.size();
  const std::size_t cols = std::min(width, n);

  std::string strip;
  strip.reserve(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t lo = c * n / cols;
    std::size_t hi = (c + 1) * n / cols;
    if (hi <= lo) hi = lo + 1;
    // Majority phase within the bucket; '.' when no majority.
    std::size_t best_phase = assignments[lo];
    std::size_t best_count = 0;
    for (std::size_t i = lo; i < hi && i < n; ++i) {
      std::size_t count = 0;
      for (std::size_t j = lo; j < hi && j < n; ++j) {
        if (assignments[j] == assignments[i]) ++count;
      }
      if (count > best_count) {
        best_count = count;
        best_phase = assignments[i];
      }
    }
    const std::size_t span = std::min(hi, n) - lo;
    if (best_count * 2 <= span) {
      strip += '.';
    } else if (best_phase < 10) {
      strip += static_cast<char>('0' + best_phase);
    } else {
      strip += static_cast<char>('a' + (best_phase - 10) % 26);
    }
  }
  return "phase/interval |" + strip + "| 0.." + std::to_string(n) + "\n";
}

std::string render_k_sweep(const cluster::KSweep& sweep,
                           std::size_t chosen_index) {
  util::TextTable t;
  t.set_header({"k", "WCSS", "silhouette", "chosen"});
  t.set_align(0, util::Align::kRight);
  t.set_align(1, util::Align::kRight);
  t.set_align(2, util::Align::kRight);
  for (std::size_t i = 0; i < sweep.entries.size(); ++i) {
    const auto& e = sweep.entries[i];
    t.add_row({std::to_string(e.k),
               util::format_fixed(e.result.inertia, 3),
               sweep.silhouettes_scored ? util::format_fixed(e.silhouette, 3)
                                        : "-",
               i == chosen_index ? "*" : ""});
  }
  return t.render();
}

}  // namespace incprof::core
