// incprof_lint v2: the repo's static-analysis gate, built on the
// src/analysis library (lexer -> scope/lock tracker -> rules). Still
// deliberately libclang-free; DESIGN §10 documents what that buys and
// what it costs. Eight rules:
//
//   bare-mutex       no std::mutex / lock_guard / unique_lock /
//                    condition_variable outside
//                    util/thread_annotations.hpp — everything goes
//                    through util::Mutex so Clang's thread-safety
//                    analysis can see every acquisition.
//   detach           no zero-argument .detach(): a detached thread
//                    outlives stop()/join accounting.
//   metric-name      every literal registered via counter("...") /
//                    gauge("...") / histogram("...") matches
//                    [a-z_][a-z0-9_]*(\{.*\})?.
//   naked-new        no naked `new` / `malloc(` — ownership goes
//                    through make_unique/make_shared/containers.
//   lock-order       every util::MutexLock acquisition names a mutex
//                    declared in src/analysis/lock_order.txt, and
//                    nested acquisitions follow its partial order
//                    (the machine-readable DESIGN §5.3 hierarchy).
//   lock-across-io   no blocking call (send/recv/read/write/poll/
//                    select/accept/connect/sleep_for/flush/join)
//                    inside a live lock region.
//   determinism      src/cluster + src/core must not read wall
//                    clocks, process entropy, or the environment
//                    (random_device, rand(, time(, system_clock,
//                    getenv) — the §6 replay contract.
//   metric-registry  cross-file: metric/span names keep one type,
//                    the fleet_ prefix stays reserved for the
//                    gateway's merged exposition, and every metric
//                    cited in README.md / DESIGN.md exists in code.
//
// Scans src/, tools/ and tests/ with per-directory profiles (see
// src/analysis/analyzer.hpp); the seeded fixtures under
// tests/lint_seed and tests/analysis/corpus are skipped unless passed
// as the root themselves. False positives are silenced in place with
//   // incprof-lint: allow(<rule>)
// on the offending line. Exit status: 0 clean, 1 findings, 2 on
// usage/IO errors.
//
// Usage: incprof_lint [repo-root]
//            [--format text|json|sarif]
//            [--rules r1,r2,...]
//            [--baseline FILE] [--write-baseline FILE]
//
// The rules' exact finding sets are pinned by tests/analysis (unit
// cases plus one seeded corpus tree per rule).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"

namespace {

namespace analysis = incprof::analysis;

int usage(int exit_code) {
  (exit_code == 0 ? std::cout : std::cerr)
      << "usage: incprof_lint [repo-root]\n"
         "           [--format text|json|sarif]\n"
         "           [--rules rule1,rule2,...]\n"
         "           [--baseline FILE] [--write-baseline FILE]\n";
  return exit_code;
}

bool read_text_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool root_set = false;
  std::string format = "text";
  std::string baseline_path;
  std::string write_baseline_path;
  analysis::AnalyzeOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "incprof_lint: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else if (arg == "--format") {
      const char* v = value("--format");
      if (v == nullptr) return 2;
      format = v;
      if (format != "text" && format != "json" && format != "sarif") {
        std::cerr << "incprof_lint: unknown format '" << format
                  << "'\n";
        return 2;
      }
    } else if (arg == "--baseline") {
      const char* v = value("--baseline");
      if (v == nullptr) return 2;
      baseline_path = v;
    } else if (arg == "--write-baseline") {
      const char* v = value("--write-baseline");
      if (v == nullptr) return 2;
      write_baseline_path = v;
    } else if (arg == "--rules") {
      const char* v = value("--rules");
      if (v == nullptr) return 2;
      std::istringstream is(v);
      std::string rule;
      while (std::getline(is, rule, ',')) {
        if (rule.empty()) continue;
        const auto& all = analysis::all_rules();
        if (std::find(all.begin(), all.end(), rule) == all.end()) {
          std::cerr << "incprof_lint: unknown rule '" << rule << "'\n";
          return 2;
        }
        options.rules.insert(rule);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "incprof_lint: unknown flag '" << arg << "'\n";
      return usage(2);
    } else if (!root_set) {
      root = arg;
      root_set = true;
    } else {
      return usage(2);
    }
  }

  const analysis::AnalyzeResult result =
      analysis::analyze_tree(root, options);
  if (result.files_scanned == 0 && result.errors.empty()) {
    std::cerr << "incprof_lint: nothing to scan under " << root
              << " (no src/, tools/ or tests/ sources)\n";
    return 2;
  }
  for (const std::string& error : result.errors) {
    std::cerr << "incprof_lint: " << error << "\n";
  }
  if (!result.errors.empty()) return 2;

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path, std::ios::binary);
    out << analysis::render_baseline(result.findings);
    if (!out) {
      std::cerr << "incprof_lint: cannot write " << write_baseline_path
                << "\n";
      return 2;
    }
    std::cout << "incprof_lint: wrote " << result.findings.size()
              << " baseline entr"
              << (result.findings.size() == 1 ? "y" : "ies") << " to "
              << write_baseline_path << "\n";
    return 0;
  }

  std::vector<analysis::Finding> findings = result.findings;
  if (!baseline_path.empty()) {
    std::string baseline_text;
    if (!read_text_file(baseline_path, &baseline_text)) {
      std::cerr << "incprof_lint: cannot read baseline "
                << baseline_path << "\n";
      return 2;
    }
    findings = analysis::apply_baseline(findings, baseline_text);
  }

  analysis::AnalyzeResult reported = result;
  reported.findings = findings;
  if (format == "json") {
    std::cout << analysis::format_json(reported);
  } else if (format == "sarif") {
    std::cout << analysis::format_sarif(reported);
  } else {
    for (const analysis::Finding& f : findings) {
      std::cerr << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.detail << "\n";
    }
    if (findings.empty()) {
      std::cout << "incprof_lint: " << result.files_scanned
                << " files clean\n";
    } else {
      std::cerr << "incprof_lint: " << findings.size()
                << " finding(s) in " << result.files_scanned
                << " files\n";
    }
  }
  return findings.empty() ? 0 : 1;
}
