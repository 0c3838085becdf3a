// Online path: one client interval -> fleet::Gateway -> service::Server
// shard -> its kPhaseEvent.
//
// fleet_stream runs two in-process TCP shards (the daemon's default
// tracker, 2 workers each) behind one Gateway, and drives them from
// client threads that each own one connection and run a closed loop:
// a session keeps kInFlight intervals in flight, so the next snapshot is
// sent only when the previous one's phase event has come back.
// kInFlight is far below the session queue capacity (256), so a dropped
// frame is never designed load shedding; it counts as a failure.
//
//   stream  4 connections, back-to-back subscribed sessions of 1,000
//           intervals. One operation = one interval. The untraced run
//           measures this alone.
//   churn   3 connections churning 16-interval sessions, plus one thread
//           calling Gateway::poll_once() every 10 ms. Part of the traced
//           run only: session open/close, routing and control-plane
//           reads, and the resources a shard keeps per served session.
#include "workloads.hpp"

#include "core/online.hpp"
#include "fleet/gateway.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/tcp.hpp"
#include "synth.hpp"
#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

using namespace incprof;
using Stream = std::vector<gmon::ProfileSnapshot>;

constexpr std::size_t kShards = 2;
constexpr std::size_t kShardWorkers = 2;
constexpr std::size_t kInFlight = 1;
/// Intervals each connection sends through the gateway during set-up.
constexpr std::size_t kWarmupIntervals = 1000;
constexpr auto kPullPeriod = std::chrono::milliseconds(10);
/// Longest churn phase. Shard handlers are never reaped, so every churned
/// session and every pull keeps a descriptor open; at the fastest rate
/// seen (~1,800 sessions/s) 6 s stays well below a 20,000-fd limit.
constexpr double kMaxChurnS = 6.0;
constexpr auto kReceiveTimeout = std::chrono::milliseconds(10000);

/// Goodput is the median of per-window completion rates, which a short
/// stall of the host does not drag down the way a whole-run mean is.
constexpr double kRateWindowS = 0.5;

struct Shape {
  std::size_t connections;
  std::size_t session_len;
  bool poller;
};
constexpr Shape kStream{4, 1000, false};
constexpr Shape kChurn{3, 16, true};

/// Two shards and a gateway on ephemeral loopback ports. Members are
/// destroyed in reverse order: the gateway stops before the shards, and
/// every listener outlives the server that accepts on it.
struct Fleet {
  std::vector<std::unique_ptr<service::TcpListener>> listeners;
  std::vector<std::unique_ptr<service::Server>> shards;
  service::TcpListener front{0};
  std::unique_ptr<fleet::Gateway> gateway;

  Fleet() {
    for (std::size_t s = 0; s < kShards; ++s) {
      service::ServerConfig cfg;  // the daemon's defaults otherwise
      cfg.worker_threads = kShardWorkers;
      cfg.shard_id = static_cast<std::uint32_t>(s + 1);
      listeners.push_back(std::make_unique<service::TcpListener>(0));
      shards.push_back(
          std::make_unique<service::Server>(*listeners.back(), cfg));
      shards.back()->start();
    }
    fleet::GatewayConfig g;
    g.pull_period = std::chrono::milliseconds(0);  // pulls are driven here
    g.pull_timeout = std::chrono::milliseconds(5000);
    gateway = std::make_unique<fleet::Gateway>(front, g);
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::uint16_t port = listeners[s]->port();
      gateway->add_shard(static_cast<std::uint32_t>(s + 1), [port] {
        return service::tcp_connect("127.0.0.1", port);
      });
    }
    gateway->start();
  }

  std::uint64_t counter(const char* name) const {
    std::uint64_t sum = 0;
    for (const auto& s : shards) sum += s->metrics().counter_value(name);
    return sum;
  }
};

/// Client-side tallies of one connection thread (merged after join).
struct ClientStats {
  std::vector<double> event_us;    // snapshot send -> its phase event
  std::vector<double> traced_event_us;  // the same, in traced sessions
  std::vector<double> open_us;     // connect -> hello-ack
  std::uint64_t intervals = 0;     // attempted
  std::uint64_t intervals_failed = 0;
  std::uint64_t sessions = 0;
  std::uint64_t sessions_failed = 0;
  std::vector<std::string> errors;
  /// Phase events received per kRateWindowS window since `start_ns`.
  std::uint64_t start_ns = 0;
  std::vector<std::uint64_t> window_events;

  void count_event(std::uint64_t t) {
    const auto w = static_cast<std::size_t>(
        static_cast<double>(t - start_ns) * 1e-9 / kRateWindowS);
    if (w >= window_events.size()) window_events.resize(w + 1, 0);
    ++window_events[w];
  }

  void merge(const ClientStats& o) {
    if (o.window_events.size() > window_events.size()) {
      window_events.resize(o.window_events.size(), 0);
    }
    for (std::size_t w = 0; w < o.window_events.size(); ++w) {
      window_events[w] += o.window_events[w];
    }
    event_us.insert(event_us.end(), o.event_us.begin(), o.event_us.end());
    traced_event_us.insert(traced_event_us.end(), o.traced_event_us.begin(),
                           o.traced_event_us.end());
    open_us.insert(open_us.end(), o.open_us.begin(), o.open_us.end());
    intervals += o.intervals;
    intervals_failed += o.intervals_failed;
    sessions += o.sessions;
    sessions_failed += o.sessions_failed;
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  }
};

/// One subscribed session: hello, `count` snapshots with kInFlight in
/// flight, bye, read to EOF. Every interval must come back as exactly
/// one phase event carrying its index, in order.
void run_session(std::uint16_t port, const Stream& stream, std::size_t count,
                 const std::string& name, Tracer* tracer, std::uint64_t op_base,
                 ClientStats& st) {
  ++st.sessions;
  st.intervals += count;
  std::size_t got = 0;
  auto fail = [&](const std::string& why) {
    ++st.sessions_failed;
    st.intervals_failed += std::max<std::size_t>(count - got, 1);
    if (st.errors.size() < 4) st.errors.push_back(name + ": " + why);
  };
  try {
    const std::uint64_t t_open = now_ns();
    std::unique_ptr<service::Connection> conn =
        service::tcp_connect("127.0.0.1", port);
    conn->set_receive_timeout(kReceiveTimeout);
    service::HelloPayload hello;
    hello.client_name = name;
    hello.subscribe_events = true;
    if (!conn->send(service::make_hello_frame(hello))) {
      return fail("hello send failed");
    }
    const auto ack_bytes = conn->receive();
    if (!ack_bytes) return fail("closed before hello-ack");
    const service::Frame ack = service::decode_frame(*ack_bytes);
    if (ack.type != service::FrameType::kHelloAck) return fail("no hello-ack");
    const std::uint32_t sid = service::decode_hello_ack(ack.payload).session_id;
    const std::uint64_t t_acked = now_ns();

    std::vector<double> lat;
    lat.reserve(count);
    std::vector<std::uint64_t> sent_at(count);
    std::size_t next = 0;
    while (got < count) {
      while (next < count && next - got < kInFlight) {
        if (tracer != nullptr) tracer->set_op(op_base + next);
        std::string frame;
        {
          ScopedSpan s(tracer, "service.encode");
          frame = service::make_snapshot_frame(sid, stream[next]);
        }
        sent_at[next] = now_ns();
        bool sent = false;
        {
          ScopedSpan s(tracer, "service.send");
          sent = conn->send(frame);
        }
        if (!sent) return fail("snapshot send failed");
        ++next;
      }
      const auto bytes = conn->receive();
      if (!bytes) return fail("closed with intervals unanswered");
      const std::uint64_t t_event = now_ns();
      const service::Frame f = service::decode_frame(*bytes);
      if (f.type != service::FrameType::kPhaseEvent) {
        return fail("unexpected frame type " +
                    std::to_string(static_cast<int>(f.type)));
      }
      if (service::decode_phase_event(f.payload).interval != got) {
        return fail("phase event out of order");
      }
      lat.push_back(static_cast<double>(t_event - sent_at[got]) / 1e3);
      st.count_event(t_event);
      ++got;
    }
    if (!conn->send(service::make_bye_frame(sid))) {
      return fail("bye send failed");
    }
    while (const auto bytes = conn->receive()) {
      const service::Frame f = service::decode_frame(*bytes);
      if (f.type == service::FrameType::kPhaseEvent) {
        return fail("duplicate phase event");
      }
    }
    st.open_us.push_back(static_cast<double>(t_acked - t_open) / 1e3);
    auto& into = tracer != nullptr ? st.traced_event_us : st.event_us;
    into.insert(into.end(), lat.begin(), lat.end());
  } catch (const std::exception& e) {
    fail(e.what());
  }
}

/// What one measured phase produced.
struct Phase {
  ClientStats clients;
  std::vector<double> pull_ms;
  double seconds = 0;
  double elapsed_s = 0;
  double cpu_s = 0;
  TraceSet spans;
};

/// Runs every connection's closed loop (and the poller) until `seconds`
/// have passed; each connection finishes the session it is in. With
/// `traced`, every second session of a connection records spans, so
/// traced and untraced sessions see the same host conditions.
Phase run_phase(Fleet& fleet, std::uint16_t port,
                const std::vector<Stream>& streams, const Shape& shape,
                double seconds, bool traced, std::uint64_t tag,
                std::uint64_t min_sessions = 1) {
  Phase ph;
  ph.seconds = seconds;
  const double cpu0 = process_cpu_s();
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<ClientStats> stats(streams.size());
  for (auto& st : stats) st.start_ns = start;
  std::vector<Tracer> tracers(streams.size(), Tracer(traced));
  std::vector<std::thread> threads;
  std::atomic<bool> clients_done{false};
  // Joins the client threads on every path, a failed thread start too
  // (each one ends by itself at the deadline).
  struct Joiner {
    std::vector<std::thread>& threads;
    ~Joiner() {
      for (auto& t : threads) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{threads};
  for (std::size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back([&, c] {
      for (std::uint64_t k = 0; k < min_sessions || now_ns() < deadline;
           ++k) {
        const std::string name = "p" + std::to_string(tag) + "-c" +
                                 std::to_string(c) + "-s" + std::to_string(k);
        Tracer* tracer = traced && k % 2 == 1 ? &tracers[c] : nullptr;
        run_session(port, streams[c], shape.session_len, name, tracer,
                    ((tag << 40) | (c << 32) | k) << 12, stats[c]);
      }
    });
  }
  std::thread poller;
  if (shape.poller) {
    poller = std::thread([&] {
      auto next = std::chrono::steady_clock::now();
      while (!clients_done.load()) {
        const std::uint64_t t0 = now_ns();
        fleet.gateway->poll_once();
        ph.pull_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        next = std::max(next + kPullPeriod, std::chrono::steady_clock::now());
        std::this_thread::sleep_until(next);
      }
    });
  }
  for (auto& t : threads) t.join();
  ph.elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
  ph.cpu_s = process_cpu_s() - cpu0;
  clients_done.store(true);
  if (poller.joinable()) poller.join();
  for (std::size_t c = 0; c < streams.size(); ++c) {
    ph.clients.merge(stats[c]);
    ph.spans.add(tracers[c]);
  }
  return ph;
}

/// Counts the phase's intervals as attempted and its unanswered ones
/// (at least one per failed session) as failed.
void tally(const Phase& p, RunResult& res) {
  const ClientStats& cs = p.clients;
  res.attempted += cs.intervals;
  if (cs.intervals_failed > 0) {
    res.fail("client: " + std::to_string(cs.sessions_failed) +
                 " session(s) failed" +
                 (cs.errors.empty() ? "" : " (" + cs.errors.front() + ")"),
             cs.intervals_failed);
  }
}

/// Median over the phase's full windows of phase events per second.
double windowed_rate(const Phase& p) {
  const auto full = static_cast<std::size_t>(p.seconds / kRateWindowS);
  std::vector<double> rates;
  const auto& events = p.clients.window_events;
  for (std::size_t w = 0; w < full && w < events.size(); ++w) {
    rates.push_back(static_cast<double>(events[w]) / kRateWindowS);
  }
  return median(rates);
}

/// True when the gateway's merged view equals the fold of the per-shard
/// states on every session-derived total.
bool merged_equals_sum(const service::ShardState& merged,
                       const std::vector<service::ShardState>& per_shard) {
  service::ShardState sum;
  for (const auto& s : per_shard) service::merge_shard_state(sum, s);
  auto hist = [](std::vector<std::uint64_t> h) {
    while (!h.empty() && h.back() == 0) h.pop_back();
    return h;
  };
  return merged.total_intervals == sum.total_intervals &&
         merged.total_transitions == sum.total_transitions &&
         merged.open_sessions == sum.open_sessions &&
         merged.sessions.size() == sum.sessions.size() &&
         hist(merged.phase_count_histogram) == hist(sum.phase_count_histogram);
}

double stage_p50_us(const service::ShardState& sum, const std::string& stage) {
  const std::string key = "frame_stage_ns{stage=\"" + stage + "\"}";
  for (const auto& [k, h] : sum.histograms) {
    if (k == key) return h.quantile(0.5) / 1e3;
  }
  return 0.0;
}

/// OnlinePhaseTracker::observe at the daemon's default tracker config,
/// replayed in process over the workload's streams.
void replay_observe(const std::vector<Stream>& streams, std::size_t len,
                    RunResult& res) {
  const core::OnlineConfig cfg = service::ServerConfig{}.session.tracker;
  Tracer tracer(true);
  std::size_t observed = 0;
  std::size_t state_bytes = 0;
  std::size_t phases = 0;
  std::size_t functions = 0;
  for (std::uint64_t rep = 0; observed < 20000; ++rep) {
    const Stream& s = streams[rep % streams.size()];
    core::OnlinePhaseTracker tracker(cfg);
    for (std::size_t i = 0; i < len; ++i) {
      tracer.set_op(rep);
      ScopedSpan span(&tracer, "core.observe");
      (void)tracker.observe(s[i]);
    }
    observed += len;
    state_bytes = tracker.state_bytes();
    phases = tracker.num_phases();
    functions = tracker.function_names().size();
  }
  TraceSet ts;
  ts.add(tracer);
  res.set("core.observe_us", ts.median_self_ns("core.observe") / 1e3, "us");
  res.set("core.tracker_state_bytes", static_cast<double>(state_bytes),
          "bytes");
  res.set("core.intervals", static_cast<double>(len), "count");
  res.set("core.functions", static_cast<double>(functions), "count");
  res.set("core.phases", static_cast<double>(phases), "count");
}

}  // namespace

RunResult run_online(const Options& opt) {
  RunResult res;

  // Set-up, repeated so setup_s is a median: generate the streams, start
  // the fleet, and send kWarmupIntervals per connection through it.
  constexpr int kSetups = 9;
  std::vector<double> setup_s;
  std::vector<Stream> streams;
  std::vector<Stream> churn_streams;
  std::unique_ptr<Fleet> fleet;
  std::uint64_t tag = 0;
  auto make_streams = [&](const Shape& shape, std::uint64_t salt) {
    std::vector<Stream> out;
    for (std::size_t c = 0; c < shape.connections; ++c) {
      StreamSpec spec;
      spec.intervals = shape.session_len;
      spec.functions = 64;
      spec.phases = 4;
      spec.active = 4;
      spec.light = 14;
      spec.seed = opt.seed * 64 + salt + c;
      out.push_back(make_phased_stream(spec));
    }
    return out;
  };
  for (int r = 0; r < kSetups; ++r) {
    fleet.reset();
    const std::uint64_t t0 = now_ns();
    streams = make_streams(kStream, 0);
    churn_streams = make_streams(kChurn, 32);
    fleet = std::make_unique<Fleet>();
    const Phase warm =
        run_phase(*fleet, fleet->front.port(), streams, kStream, 0.0, false,
                  ++tag, kWarmupIntervals / kStream.session_len);
    tally(warm, res);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  const std::uint16_t gw = fleet->front.port();
  if (!opt.trace) {
    const Phase p =
        run_phase(*fleet, gw, streams, kStream, opt.seconds, false, ++tag);
    tally(p, res);
    const double ok = static_cast<double>(p.clients.intervals -
                                          p.clients.intervals_failed);
    res.set("setup_s", median(setup_s), "s");
    res.set("op_p50_ms", median(p.clients.event_us) / 1e3, "ms");
    res.set("op_cpu_ms", ok > 0 ? p.cpu_s / ok * 1e3 : 0.0, "ms");
    res.set("goodput_per_s", windowed_rate(p), "1/s");
  } else {
    // A: stream through the gateway, every second session traced;
    // B: the same untraced, straight to shard 1; C: churn with the
    // poller, untraced, through the gateway.
    const Phase a = run_phase(*fleet, gw, streams, kStream,
                              opt.seconds * 0.55, true, ++tag);
    const Phase b = run_phase(*fleet, fleet->listeners[0]->port(), streams,
                              kStream, opt.seconds * 0.15, false, ++tag);
    const Phase c = run_phase(*fleet, gw, churn_streams, kChurn,
                              std::min(opt.seconds * 0.3, kMaxChurnS), false,
                              ++tag);
    for (const Phase* p : {&a, &b, &c}) tally(*p, res);
    const double a_event = median(a.clients.event_us);
    res.set("event_p50_us", a_event, "us");
    res.set("event_p99_us", quantile(a.clients.event_us, 0.99), "us");
    res.set("intervals_per_s", windowed_rate(a), "1/s");
    res.set("session_open_p50_us", median(c.clients.open_us), "us");
    res.set("session_open_p99_us", quantile(c.clients.open_us, 0.99), "us");
    res.set("sessions_per_s",
            static_cast<double>(c.clients.sessions -
                                c.clients.sessions_failed) /
                c.elapsed_s,
            "1/s");
    res.set("fleet_pull_ms", median(c.pull_ms), "ms");
    res.set("fleet.hop_us", a_event - median(b.clients.event_us), "us");
    res.set("fleet.open_hop_us",
            median(a.clients.open_us) - median(b.clients.open_us), "us");
    res.set("service.encode_us",
            a.spans.median_self_ns("service.encode") / 1e3, "us");
    res.set("service.send_us", a.spans.median_self_ns("service.send") / 1e3,
            "us");
    res.set("obs.trace_overhead_frac",
            median(a.clients.traced_event_us) / a_event - 1.0, "ratio");
    if (!a.spans.write_csv(opt.work_dir + "/trace-" + opt.workload + ".csv")) {
      res.notes.push_back("could not write the span dump");
    }
    replay_observe(streams, kStream.session_len, res);
  }

  // Quiesce: every session the clients ended is closed on its shard.
  const std::uint64_t quiesce_deadline = now_ns() + 10'000'000'000ull;
  while (fleet->counter("sessions_closed") <
             fleet->counter("sessions_opened") &&
         now_ns() < quiesce_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  fleet->gateway->poll_once();
  const fleet::FleetView view = fleet->gateway->view();
  std::vector<service::ShardState> per_shard;
  std::size_t state_bytes = 0;
  std::size_t retained = 0;
  for (const auto& s : fleet->shards) {
    per_shard.push_back(s->shard_state());
    state_bytes += service::encode_shard_state(per_shard.back()).size();
    retained += per_shard.back().sessions.size();
  }
  if (!merged_equals_sum(view.merged, per_shard)) {
    res.fail("gateway merged view differs from the sum of shard states");
  }
  for (const auto& h : view.shards) {
    if (h.pull_failures > 0) res.fail("gateway pull failed", h.pull_failures);
  }
  const std::uint64_t dropped = fleet->counter("frames_dropped");
  if (dropped > 0) {
    res.fail(std::to_string(dropped) + " frame(s) dropped", dropped);
  }
  if (fleet->counter("phase_events_sent") !=
      fleet->counter("snapshots_observed")) {
    res.fail("a shard observed a snapshot without sending its phase event");
  }

  if (opt.trace) {
    service::ShardState sum;
    for (const auto& s : per_shard) service::merge_shard_state(sum, s);
    res.set("service.decode_p50_us", stage_p50_us(sum, "decode"), "us");
    res.set("service.enqueue_p50_us", stage_p50_us(sum, "enqueue"), "us");
    res.set("service.process_p50_us", stage_p50_us(sum, "process"), "us");
    for (const char* name :
         {"frames_received", "frames_dropped", "snapshots_observed",
          "phase_events_sent", "sessions_opened", "sessions_closed",
          "control_queries"}) {
      res.set(std::string("service.") + name,
              static_cast<double>(fleet->counter(name)), "count");
    }
    res.set("service.open_fds", static_cast<double>(open_fds()), "count");
    res.set("service.maps", static_cast<double>(memory_maps()), "count");
    res.set("service.threads", static_cast<double>(threads()), "count");
    res.set("fleet.state_bytes", static_cast<double>(state_bytes), "bytes");
    res.set("fleet.retained_sessions", static_cast<double>(retained), "count");
  }
  res.set("peak_rss_mb", peak_rss_mb(), "MiB");
  std::fprintf(stderr,
               "fleet: fds %ld, maps %ld, threads %ld, retained sessions %zu, "
               "shard state %zu bytes\n",
               open_fds(), memory_maps(), threads(), retained, state_bytes);
  return res;
}

}  // namespace perfbench
