#include "obs/trace.hpp"

#include "obs/clock.hpp"

#include <algorithm>

namespace incprof::obs {

namespace {

constexpr std::uint64_t kWriting = ~std::uint64_t{0};

std::atomic<std::uint32_t> g_next_thread_tag{0};

/// Minimal JSON string escaping (names are literals, but be safe).
void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += "\\u0020";  // control chars have no business in span names
    } else {
      out.push_back(c);
    }
  }
}

void append_hex_u64(std::string& out, std::uint64_t v) {
  char buf[19];
  int at = 18;
  buf[at] = '\0';
  do {
    buf[--at] = "0123456789abcdef"[v & 0xf];
    v >>= 4;
  } while (v != 0);
  out += "0x";
  out += &buf[at];
}

}  // namespace

std::uint32_t thread_tag() noexcept {
  thread_local const std::uint32_t tag =
      g_next_thread_tag.fetch_add(1, std::memory_order_relaxed) + 1;
  return tag;
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : slots_(std::max<std::size_t>(1, capacity)) {}

void TraceBuffer::record(const char* name, const char* category,
                         std::uint64_t start_ns, std::uint64_t duration_ns,
                         std::uint64_t trace_id, std::uint32_t span_id,
                         std::uint32_t parent_span) noexcept {
  if (!enabled()) return;
  const std::uint64_t index =
      next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[index % slots_.size()];
  // Per-slot seqlock with exclusive writers: claim the slot by CAS-ing
  // its stamp to kWriting, publish the fields, then stamp the slot with
  // its global index so a concurrent reader can tell a torn slot (seq
  // changed underneath it) from a settled one.
  //
  // The claim is what keeps two writers that lap the ring onto one slot
  // from writing it at once. Without it, the first writer's final stamp
  // would let a reader accept a copy the second writer is still
  // overwriting. A writer that finds the slot claimed, or already
  // stamped by a later span, drops its span instead of waiting: the
  // ring stays lock-free, and the span lost is one the ring was about
  // to overwrite anyway. The acquire half of the CAS orders this
  // writer's payload stores after the previous owner's.
  std::uint64_t seen = slot.seq.load(std::memory_order_relaxed);
  do {
    if (seen == kWriting || seen > index) return;
  } while (!slot.seq.compare_exchange_weak(seen, kWriting,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed));
  // The release *fence* (not a release store) is what makes the claim
  // effective: it keeps the relaxed payload stores from becoming
  // visible before the kWriting mark, so a reader that managed to load
  // any of this writer's payload is guaranteed to observe seq !=
  // `before` on its re-read and discard the copy.
  std::atomic_thread_fence(std::memory_order_release);
  slot.name.store(name, std::memory_order_relaxed);
  slot.category.store(category, std::memory_order_relaxed);
  slot.tid.store(thread_tag(), std::memory_order_relaxed);
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.duration_ns.store(duration_ns, std::memory_order_relaxed);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.span_id.store(span_id, std::memory_order_relaxed);
  slot.parent_span.store(parent_span, std::memory_order_relaxed);
  // The release store pairs with the reader's acquire load of seq: a
  // reader that sees index + 1 sees every payload store above.
  slot.seq.store(index + 1, std::memory_order_release);
}

std::vector<SpanEvent> TraceBuffer::events() const {
  struct Tagged {
    std::uint64_t seq;
    SpanEvent event;
  };
  std::vector<Tagged> got;
  got.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    // Seqlock read side: acquire load of seq (pairs with the writer's
    // final release store), relaxed payload loads, acquire fence, then
    // a relaxed re-read of seq. If a writer touched the slot while we
    // copied, the fence guarantees the re-read observes its kWriting
    // mark (or a newer stamp) and the torn copy is discarded.
    const std::uint64_t before = slot.seq.load(std::memory_order_acquire);
    if (before == 0 || before == kWriting) continue;
    SpanEvent copy;
    copy.name = slot.name.load(std::memory_order_relaxed);
    copy.category = slot.category.load(std::memory_order_relaxed);
    copy.tid = slot.tid.load(std::memory_order_relaxed);
    copy.start_ns = slot.start_ns.load(std::memory_order_relaxed);
    copy.duration_ns = slot.duration_ns.load(std::memory_order_relaxed);
    copy.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    copy.span_id = slot.span_id.load(std::memory_order_relaxed);
    copy.parent_span = slot.parent_span.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;
    got.push_back({before, copy});
  }
  std::sort(got.begin(), got.end(),
            [](const Tagged& a, const Tagged& b) { return a.seq < b.seq; });
  std::vector<SpanEvent> out;
  out.reserve(got.size());
  for (const Tagged& t : got) out.push_back(t.event);
  return out;
}

std::string TraceBuffer::export_chrome_json() const {
  const auto evs = events();
  std::string out;
  out.reserve(64 + evs.size() * 96);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& ev : evs) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, ev.name);
    out += "\",\"cat\":\"";
    append_escaped(out, ev.category);
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(ev.tid);
    // Chrome trace timestamps are microseconds; keep ns precision via
    // the fractional part.
    out += ",\"ts\":";
    out += std::to_string(ev.start_ns / 1000);
    out.push_back('.');
    const std::uint64_t ts_frac = ev.start_ns % 1000;
    out += std::to_string(ts_frac / 100);
    out += std::to_string((ts_frac / 10) % 10);
    out += std::to_string(ts_frac % 10);
    out += ",\"dur\":";
    out += std::to_string(ev.duration_ns / 1000);
    out.push_back('.');
    const std::uint64_t dur_frac = ev.duration_ns % 1000;
    out += std::to_string(dur_frac / 100);
    out += std::to_string((dur_frac / 10) % 10);
    out += std::to_string(dur_frac % 10);
    if (ev.trace_id != 0) {
      // Distributed-trace context: Perfetto shows these in the args
      // pane, and the fleet merger joins spans across processes on
      // trace_id.
      out += ",\"args\":{\"trace_id\":\"";
      append_hex_u64(out, ev.trace_id);
      out += "\",\"span\":";
      out += std::to_string(ev.span_id);
      out += ",\"parent\":";
      out += std::to_string(ev.parent_span);
      out += "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

void TraceBuffer::clear() noexcept {
  for (Slot& slot : slots_) slot.seq.store(0, std::memory_order_relaxed);
  next_.store(0, std::memory_order_relaxed);
}

TraceBuffer& trace() {
  static TraceBuffer buffer(16384);
  return buffer;
}

}  // namespace incprof::obs
