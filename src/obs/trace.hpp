// Fixed-capacity ring of span events, exportable as Chrome trace_event
// JSON ("X" complete events) so a run of the daemon or a bench can be
// dropped straight into Perfetto / chrome://tracing. The ring records
// with one atomic fetch_add plus a per-slot seqlock whose writer claims
// the slot by CAS (so writers lapping the ring never write one slot at
// once; the later arrival drops its span), never allocates on
// the hot path (names must be string literals or otherwise outlive the
// buffer), and simply overwrites the oldest spans when full — a flight
// recorder, not a log.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace incprof::obs {

/// One completed span. `name`/`category` are borrowed pointers: pass
/// string literals (or strings that outlive the buffer).
struct SpanEvent {
  const char* name = "";
  const char* category = "";
  std::uint32_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  /// Distributed-trace context (all zero when the span was recorded
  /// outside any trace): the end-to-end trace this span belongs to, its
  /// own id, and its parent span (0 = a root within the trace).
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent_span = 0;
};

/// Concurrent fixed-capacity span ring.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 16384);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  /// Records one span (no-op while disabled). Thread-safe, lock-free.
  void record(const char* name, const char* category,
              std::uint64_t start_ns, std::uint64_t duration_ns) noexcept {
    record(name, category, start_ns, duration_ns, 0, 0, 0);
  }

  /// Records one span carrying distributed-trace context (zeros =
  /// untraced). Thread-safe, lock-free.
  void record(const char* name, const char* category,
              std::uint64_t start_ns, std::uint64_t duration_ns,
              std::uint64_t trace_id, std::uint32_t span_id,
              std::uint32_t parent_span) noexcept;

  /// Spans currently retained, oldest first. Slots being overwritten
  /// concurrently are skipped rather than returned torn.
  std::vector<SpanEvent> events() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}) of events().
  std::string export_chrome_json() const;

  /// Total spans ever recorded (including those overwritten since).
  std::uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }

  /// Spans overwritten (dropped from the ring) since construction /
  /// clear(): everything recorded beyond capacity displaced an older
  /// span. Monotonic, so it exports cleanly as a counter.
  std::uint64_t dropped() const noexcept {
    const std::uint64_t n = next_.load(std::memory_order_relaxed);
    return n > slots_.size() ? n - slots_.size() : 0;
  }

  std::size_t capacity() const noexcept { return slots_.size(); }

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Forgets all retained spans. Not intended to race live recorders
  /// (tests and bench setup only).
  void clear() noexcept;

 private:
  struct Slot {
    /// 0 = empty, ~0 = being written, otherwise 1 + global span index.
    std::atomic<std::uint64_t> seq{0};
    // Seqlock payload. Each field is individually atomic and accessed
    // with relaxed order: a reader racing a writer may observe a torn
    // *event* (mixed fields), but never a torn *load* or a C++ data
    // race — tearing is detected and discarded via the seq re-read.
    // Ordering comes from the fences in record()/events(), following
    // Boehm's seqlock construction (HotPar'12), so the ring is clean
    // under TSan with no suppressions.
    std::atomic<const char*> name{""};
    std::atomic<const char*> category{""};
    std::atomic<std::uint32_t> tid{0};
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> duration_ns{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint32_t> span_id{0};
    std::atomic<std::uint32_t> parent_span{0};
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<bool> enabled_{true};
};

/// Process-global trace ring every ScopedSpan feeds by default.
TraceBuffer& trace();

}  // namespace incprof::obs
