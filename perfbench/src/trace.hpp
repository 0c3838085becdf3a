// In-memory span recording for the traced benchmark run. Spans are
// recorded around the benchmark's own calls into the library's public
// layers (gmon, core, cluster, service, fleet); nothing inside the
// program is instrumented. Each thread owns one Tracer, so recording is
// a vector push with no locking. Self time of a span is its duration
// minus the part of it covered by its child spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";
  std::uint64_t op = 0;       // operation the span belongs to
  std::int64_t parent = -1;   // index into the same span list, -1 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-thread span recorder. A disabled tracer records nothing, so the
/// untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  /// Opens a span under the innermost open span; returns its index.
  std::size_t begin(const char* name);
  void end(std::size_t index);

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null or disabled tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        index_(tracer_ != nullptr ? tracer_->begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

/// Spans of several tracers folded into one list, with self times.
class TraceSet {
 public:
  void add(const Tracer& tracer);

  /// Median over spans named `name` of their self time, ns; 0 if none.
  double median_self_ns(const std::string& name) const;
  /// Median over the operations that have a span named `root` of the
  /// summed self time of spans named `name` in that operation, ns.
  double median_op_self_ns(const std::string& name,
                           const std::string& root = "op") const;

  /// Writes one CSV row per span: name,op,parent,start_ns,end_ns,self_ns.
  /// Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  void compute_self_times() const;

  std::vector<Span> spans_;
  mutable std::vector<std::uint64_t> self_ns_;
  mutable bool dirty_ = false;
};

}  // namespace perfbench
