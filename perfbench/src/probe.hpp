// Measurement helpers shared by the workloads: order statistics,
// process CPU and memory readings, /proc/self resource counts, the
// result checksum, and the run result that main() prints as JSON.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty.
double median(std::vector<double> v);

/// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
double quantile(std::vector<double> v, double q);

/// Process CPU time (user + system, every thread), seconds.
double process_cpu_s();

/// Peak resident set size of the process so far, MiB.
double peak_rss_mb();

/// Entries under /proc/self/fd, /proc/self/task, and lines of
/// /proc/self/maps; -1 when unreadable.
long open_fds();
long threads();
long memory_maps();

/// FNV-1a over 64-bit words: the checksum that pins analysis results.
class Checksum {
 public:
  void add(std::uint64_t word) noexcept;
  void add(double value) noexcept;
  void add(std::string_view bytes) noexcept;
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// What one benchmark invocation reports.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// name -> (value, unit), printed in name order.
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Human-readable notes for stderr (why a check failed, ...).
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why, std::uint64_t count = 1) {
    failed += count;
    correct = false;
    notes.push_back(why);
  }
};

/// The single-line JSON object printed as the last line of stdout.
std::string to_json(const RunResult& r);

}  // namespace perfbench
