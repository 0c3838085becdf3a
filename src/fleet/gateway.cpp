#include "fleet/gateway.hpp"

#include "fleet/trace_merge.hpp"
#include "obs/build_info.hpp"
#include "obs/clock.hpp"
#include "obs/span.hpp"
#include "obs/trace_context.hpp"
#include "util/log.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace incprof::fleet {

namespace {

/// Shuttles complete wire frames from `from` into `to` until either
/// side closes (or the stream desynchronizes, which is unrecoverable —
/// the client's resume path takes over from there).
void pump(service::Connection& from, service::Connection& to) {
  try {
    while (auto bytes = from.receive()) {
      if (!to.send(*bytes)) break;
    }
  } catch (const std::exception&) {
  }
}

/// "name{labels}" -> "fleet_name<suffix>{labels}".
std::string fleet_key(const std::string& key, const char* suffix) {
  const auto brace = key.find('{');
  if (brace == std::string::npos) return "fleet_" + key + suffix;
  return "fleet_" + key.substr(0, brace) + suffix + key.substr(brace);
}

std::string render_merged_prometheus(const FleetView& v) {
  std::string out;
  const auto gauge_line = [&out](const char* name, std::uint64_t value) {
    out += "# TYPE ";
    out += name;
    out += " gauge\n";
    out += name;
    out += ' ' + std::to_string(value) + '\n';
  };
  std::size_t alive = 0;
  for (const auto& s : v.shards) {
    if (s.alive) ++alive;
  }
  gauge_line("fleet_shards", v.shards.size());
  gauge_line("fleet_shards_alive", alive);
  out += "# TYPE fleet_shard_up gauge\n";
  for (const auto& s : v.shards) {
    out += "fleet_shard_up{shard=\"" + std::to_string(s.id) + "\"} " +
           (s.alive ? "1" : "0") + '\n';
  }
  gauge_line("fleet_open_sessions", v.merged.open_sessions);
  gauge_line("fleet_total_intervals", v.merged.total_intervals);
  gauge_line("fleet_total_transitions", v.merged.total_transitions);

  // Merged per-shard registries, prefixed fleet_ so they never collide
  // with the gateway's own families. Rows are sorted so labeled series
  // of one family sit under a single # TYPE line.
  auto counters = v.merged.counters;
  std::sort(counters.begin(), counters.end());
  std::string family;
  for (const auto& [key, value] : counters) {
    std::string fam = "fleet_" + key.substr(0, key.find('{'));
    if (fam != family) {
      out += "# TYPE " + fam + " counter\n";
      family = std::move(fam);
    }
    out += "fleet_" + key + ' ' + std::to_string(value) + '\n';
  }
  auto gauges = v.merged.gauges;
  std::sort(gauges.begin(), gauges.end());
  family.clear();
  for (const auto& [key, value] : gauges) {
    std::string fam = "fleet_" + key.substr(0, key.find('{'));
    if (fam != family) {
      out += "# TYPE " + fam + " gauge\n";
      family = std::move(fam);
    }
    out += "fleet_" + key + ' ' + std::to_string(value) + '\n';
  }
  // Histograms reduced to count/sum/max series (full buckets travel to
  // /fleet.json consumers via the shard-state codec). One suffix family
  // at a time, sorted, so each family's labeled series sit under a
  // single # TYPE line like the counter/gauge loops above.
  auto hists = v.merged.histograms;
  std::sort(hists.begin(), hists.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto hist_series = [&](const char* suffix, const char* kind,
                               auto pick) {
    std::string fam_seen;
    for (const auto& [key, snap] : hists) {
      std::string fam = "fleet_" + key.substr(0, key.find('{')) + suffix;
      if (fam != fam_seen) {
        out += "# TYPE " + fam + ' ' + kind + '\n';
        fam_seen = std::move(fam);
      }
      out +=
          fleet_key(key, suffix) + ' ' + std::to_string(pick(snap)) + '\n';
    }
  };
  hist_series("_count", "counter",
              [](const obs::HistogramSnapshot& s) { return s.count; });
  hist_series("_sum", "counter",
              [](const obs::HistogramSnapshot& s) { return s.sum; });
  hist_series("_max", "gauge",
              [](const obs::HistogramSnapshot& s) { return s.max; });
  return out;
}

std::string render_fleet_json(const FleetView& v) {
  std::string out = "{\"shards\":[";
  bool first = true;
  for (const auto& s : v.shards) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + std::to_string(s.id) +
           ",\"alive\":" + (s.alive ? "true" : "false") +
           ",\"draining\":" + (s.draining ? "true" : "false") +
           ",\"open_sessions\":" + std::to_string(s.open_sessions) +
           ",\"total_intervals\":" + std::to_string(s.total_intervals) +
           ",\"pulls\":" + std::to_string(s.pulls) +
           ",\"pull_failures\":" + std::to_string(s.pull_failures) +
           ",\"last_pull_age_ms\":" +
           (s.ever_pulled ? std::to_string(s.last_pull_age_ns / 1000000)
                          : std::string("null")) +
           "}";
  }
  out += "],\"merged\":{\"open_sessions\":" +
         std::to_string(v.merged.open_sessions) +
         ",\"total_intervals\":" + std::to_string(v.merged.total_intervals) +
         ",\"total_transitions\":" +
         std::to_string(v.merged.total_transitions) +
         ",\"sessions\":" + std::to_string(v.merged.sessions.size()) +
         ",\"phase_count_histogram\":[";
  first = true;
  for (const std::uint64_t n : v.merged.phase_count_histogram) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(n);
  }
  out += "]}}";
  return out;
}

}  // namespace

Gateway::Gateway(service::Listener& frontend, GatewayConfig cfg)
    : frontend_(frontend),
      cfg_(cfg),
      route_hist_(metrics_.histogram("gateway_stage_ns",
                                     {{"stage", "route"}})),
      proxy_hist_(metrics_.histogram("gateway_stage_ns",
                                     {{"stage", "proxy"}})),
      ring_(cfg_.vnodes_per_shard) {}

Gateway::~Gateway() { stop(); }

void Gateway::add_shard(std::uint32_t shard_id, service::ConnectFn connect) {
  util::MutexLock lock(state_mu_);
  ShardEntry& entry = shards_[shard_id];
  entry.connect = std::move(connect);
  entry.alive = true;
  entry.draining = false;
  if (!ring_.contains(shard_id)) ring_.add_shard(shard_id);
}

void Gateway::start() {
  if (started_.exchange(true)) return;
  // Prime the view so routing and /healthz reflect shard reality from
  // the first request on.
  poll_once();
  if (cfg_.pull_period.count() > 0) {
    agg_thread_ = std::thread([this] { aggregator_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Gateway::stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  frontend_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    util::MutexLock lock(agg_mu_);
    agg_stop_ = true;
    agg_cv_.notify_all();
  }
  if (agg_thread_.joinable()) agg_thread_.join();

  // No new workers can appear now (accept loop is gone). Close both
  // ends of every proxied pair so pumps unblock, then join.
  std::vector<std::unique_ptr<ProxyWorker>> workers;
  std::vector<std::shared_ptr<service::Connection>> to_close;
  {
    util::MutexLock lock(workers_mu_);
    workers.swap(workers_);
    for (const auto& w : workers) {
      to_close.push_back(w->client);
      if (w->backend) to_close.push_back(w->backend);
    }
  }
  for (const auto& c : to_close) c->close();
  for (const auto& w : workers) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void Gateway::accept_loop() {
  while (auto conn = frontend_.accept()) {
    reap_finished_workers();
    accepted_.fetch_add(1, std::memory_order_relaxed);
    metrics_.counter("connections_accepted").add();
    auto worker = std::make_unique<ProxyWorker>();
    worker->client = std::shared_ptr<service::Connection>(std::move(conn));
    ProxyWorker* raw = worker.get();
    // Register and spawn under the same lock so stop() never sees a
    // worker whose thread is still being constructed.
    util::MutexLock lock(workers_mu_);
    workers_.push_back(std::move(worker));
    workers_.back()->thread = std::thread([this, raw] { proxy(raw); });
  }
}

void Gateway::reap_finished_workers() {
  std::vector<std::unique_ptr<ProxyWorker>> finished;
  {
    util::MutexLock lock(workers_mu_);
    for (auto it = workers_.begin(); it != workers_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = workers_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& w : finished) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void Gateway::proxy(ProxyWorker* worker) {
  const auto client = worker->client;
  std::optional<std::string> first;
  try {
    first = client->receive();
  } catch (const std::exception&) {
    first.reset();
  }
  service::HelloPayload hello;
  bool have_hello = false;
  if (first) {
    try {
      const auto frame = service::decode_frame(*first);
      if (frame.type == service::FrameType::kHello) {
        hello = service::decode_hello(frame.payload);
        have_hello = true;
      }
    } catch (const std::exception&) {
    }
  }
  if (!have_hello) {
    if (first) {
      metrics_.counter("front_rejects").add();
      service::ProtocolErrorPayload err;
      err.code = service::ProtocolErrorCode::kUnexpectedFrame;
      err.message = "gateway expects a hello first";
      client->send(service::make_protocol_error_frame(0, err));
    }
    client->close();
    worker->done.store(true, std::memory_order_release);
    return;
  }

  // Adopt the hello's wire trace context for this worker: the route and
  // proxy spans below join the client's end-to-end trace, and the fleet
  // merger links them to the shard's spans via the shared trace id.
  const service::WireTraceContext wire = service::peek_trace_context(*first);
  obs::ScopedTraceContext trace_scope({wire.trace_id, wire.parent_span});

  std::shared_ptr<service::Connection> backend;
  std::string forward;
  {
    obs::ScopedSpan route_span("gateway.route", "gateway", &route_hist_);
    backend = route(*client, hello);
    // Re-encode the hello inside the route span's scope: frame_of
    // stamps the thread's current context, so the forwarded hello names
    // the route span as parent and the shard's decode/process spans
    // hang off the gateway's in the merged trace. Frames after the
    // hello are pumped verbatim and keep the client's own parent ids.
    forward = service::make_hello_frame(hello);
  }
  if (backend && !backend->send(forward)) {
    // The shard died between connect and hello; dropping the client
    // makes its resilient replay retry through us, and the next pull
    // will mark the shard dead.
    backend->close();
    backend = nullptr;
  }
  if (!backend) {
    client->close();
    worker->done.store(true, std::memory_order_release);
    return;
  }
  {
    // Publish the backend so stop() can force-close it (workers_mu_
    // covers the field; the worker writes it exactly once).
    util::MutexLock lock(workers_mu_);
    worker->backend = backend;
  }

  // Both directions pump raw frames verbatim until either side closes;
  // the backward pump is joined here, never detached. The proxy span
  // covers the whole pumped lifetime of the connection pair.
  obs::ScopedSpan proxy_span("gateway.proxy", "gateway", &proxy_hist_);
  std::thread backward([client, backend] {
    pump(*backend, *client);
    client->close();
    backend->close();
  });
  pump(*client, *backend);
  backend->close();
  client->close();
  backward.join();
  worker->done.store(true, std::memory_order_release);
}

std::shared_ptr<service::Connection> Gateway::route(
    service::Connection& client, const service::HelloPayload& hello) {
  if (hello.resume_session_id != 0) {
    // Session ids are partitioned by shard, so the owner is a pure
    // function of the id.
    const std::uint32_t owner =
        service::session_id_shard(hello.resume_session_id);
    bool routable = false;
    {
      util::MutexLock lock(state_mu_);
      const auto it = shards_.find(owner);
      routable = it != shards_.end() && !it->second.draining;
    }
    if (routable) {
      if (auto backend = try_connect(owner)) {
        metrics_.counter("resumes_routed").add();
        return backend;
      }
    }
    // The owner is gone or draining: answer in its stead so the
    // client's resilient replay falls back to a fresh session — which
    // routes to a surviving shard and re-sends the whole stream.
    metrics_.counter("resumes_rerouted").add();
    service::ProtocolErrorPayload err;
    err.code = service::ProtocolErrorCode::kUnknownSession;
    err.message =
        "shard " + std::to_string(owner) + " unavailable; restart stream";
    client.send(
        service::make_protocol_error_frame(hello.resume_session_id, err));
    client.close();
    return nullptr;
  }

  // Fresh session: consistent-hash placement by client name (the only
  // stable identity before the shard assigns an id). A failed connect
  // marks the shard dead and re-picks on the shrunken ring.
  for (;;) {
    std::optional<std::uint32_t> owner;
    {
      util::MutexLock lock(state_mu_);
      owner = ring_.owner(hello.client_name);
    }
    if (!owner) break;
    if (auto backend = try_connect(*owner)) {
      const std::string shard_label = std::to_string(*owner);
      metrics_.counter("sessions_routed", {{"shard", shard_label}}).add();
      return backend;
    }
  }
  metrics_.counter("front_redirects").add();
  service::ProtocolErrorPayload err;
  err.code = service::ProtocolErrorCode::kRedirect;
  err.message = "no serving shards; retry later";
  client.send(service::make_protocol_error_frame(0, err));
  client.close();
  return nullptr;
}

std::shared_ptr<service::Connection> Gateway::try_connect(
    std::uint32_t shard_id) {
  service::ConnectFn connect;
  {
    util::MutexLock lock(state_mu_);
    const auto it = shards_.find(shard_id);
    if (it == shards_.end() || it->second.draining) return nullptr;
    connect = it->second.connect;
  }
  std::unique_ptr<service::Connection> conn;
  try {
    conn = connect();
  } catch (const std::exception&) {
    conn = nullptr;
  }
  if (conn) return std::shared_ptr<service::Connection>(std::move(conn));
  metrics_.counter("shard_connect_failures").add();
  util::MutexLock lock(state_mu_);
  const auto it = shards_.find(shard_id);
  if (it != shards_.end() && it->second.alive) {
    it->second.alive = false;
    util::log_warn("incprof_gateway: shard " + std::to_string(shard_id) +
                   " unreachable; removed from ring");
  }
  ring_.remove_shard(shard_id);
  return nullptr;
}

std::uint32_t Gateway::drain_shard(std::uint32_t shard_id) {
  service::ConnectFn connect;
  {
    // Out of the ring before the drain order goes out, so no client
    // reconnect can race back onto the draining shard.
    util::MutexLock lock(state_mu_);
    const auto it = shards_.find(shard_id);
    if (it == shards_.end()) return 0;
    it->second.draining = true;
    connect = it->second.connect;
    ring_.remove_shard(shard_id);
  }
  metrics_.counter("shard_drains").add();
  std::uint32_t sessions_closed = 0;
  control_query(connect, service::make_drain_frame(),
                service::FrameType::kDrainAck,
                [&](std::string_view payload) {
                  sessions_closed =
                      service::decode_drain_ack(payload).sessions_closed;
                });
  return sessions_closed;
}

bool Gateway::control_query(
    const service::ConnectFn& connect, const std::string& request,
    service::FrameType reply_type,
    const std::function<void(std::string_view)>& on_reply) {
  try {
    auto conn = connect();
    if (!conn) return false;
    conn->set_receive_timeout(cfg_.pull_timeout);
    bool ok = false;
    if (conn->send(request)) {
      while (auto bytes = conn->receive()) {
        const auto frame = service::decode_frame(*bytes);
        if (frame.type != reply_type) continue;
        on_reply(frame.payload);
        ok = true;
        break;
      }
    }
    conn->close();
    return ok;
  } catch (const std::exception&) {
    return false;
  }
}

void Gateway::poll_once() {
  std::vector<std::pair<std::uint32_t, service::ConnectFn>> targets;
  {
    util::MutexLock lock(state_mu_);
    for (const auto& [id, entry] : shards_) {
      targets.emplace_back(id, entry.connect);
    }
  }
  service::QueryPayload query;
  query.kind = service::QueryKind::kFleetState;
  const std::string request = service::make_query_frame(0, query);
  for (const auto& [id, connect] : targets) {
    service::ShardState state;
    const bool ok = control_query(
        connect, request, service::FrameType::kQueryReply,
        [&](std::string_view payload) {
          state = service::decode_shard_state(
              service::decode_query_reply(payload).text);
        });

    util::MutexLock lock(state_mu_);
    const auto it = shards_.find(id);
    if (it == shards_.end()) continue;  // removed while we pulled
    ShardEntry& entry = it->second;
    if (ok) {
      ++entry.pulls;
      metrics_.counter("shard_pulls").add();
      if (!entry.alive) {
        util::log_info("incprof_gateway: shard " + std::to_string(id) +
                       " back; rejoining ring");
      }
      entry.alive = true;
      // A drain is sticky until the shard is re-added: either side
      // (gateway order or shard self-report) marks it.
      entry.draining = entry.draining || state.draining;
      entry.last_state = std::move(state);
      entry.has_state = true;
      entry.last_pull_ns = obs::now_ns();
      if (!entry.draining && !ring_.contains(id)) ring_.add_shard(id);
    } else {
      ++entry.pull_failures;
      metrics_.counter("shard_pull_failures").add();
      if (entry.alive) {
        entry.alive = false;
        util::log_warn("incprof_gateway: shard " + std::to_string(id) +
                       " unreachable; removed from ring");
      }
      ring_.remove_shard(id);
    }
  }
}

void Gateway::aggregator_loop() {
  util::MutexLock lock(agg_mu_);
  while (!agg_stop_) {
    // Plain timed wait: a spurious wakeup just pulls early, and the
    // stop flag is re-checked every pass.
    agg_cv_.wait_for(agg_mu_, cfg_.pull_period);
    if (agg_stop_) break;
    lock.unlock();
    poll_once();
    lock.lock();
  }
}

FleetView Gateway::view() const {
  const std::uint64_t now = obs::now_ns();
  util::MutexLock lock(state_mu_);
  FleetView v;
  for (const auto& [id, entry] : shards_) {
    ShardHealth h;
    h.id = id;
    h.alive = entry.alive;
    h.draining = entry.draining;
    if (entry.has_state) {
      h.open_sessions = entry.last_state.open_sessions;
      h.total_intervals = entry.last_state.total_intervals;
    }
    h.pulls = entry.pulls;
    h.pull_failures = entry.pull_failures;
    if (entry.last_pull_ns != 0) {
      h.ever_pulled = true;
      h.last_pull_age_ns =
          now > entry.last_pull_ns ? now - entry.last_pull_ns : 0;
    }
    v.shards.push_back(h);
    if (entry.alive && entry.has_state) {
      service::merge_shard_state(v.merged, entry.last_state);
    }
  }
  return v;
}

std::string Gateway::merged_trace_json() {
  // Fresh pull per request (no caching): a trace view is a debugging
  // artifact, and the reader wants the rings as they are now. No lock
  // is held across the pulls — the shard table is copied first.
  std::vector<std::pair<std::uint32_t, service::ConnectFn>> targets;
  {
    util::MutexLock lock(state_mu_);
    for (const auto& [id, entry] : shards_) {
      targets.emplace_back(id, entry.connect);
    }
  }
  service::QueryPayload query;
  query.kind = service::QueryKind::kTraceDump;
  const std::string request = service::make_query_frame(0, query);
  std::vector<ShardTrace> dumps;
  for (const auto& [id, connect] : targets) {
    ShardTrace st;
    st.pid = id;
    st.label = "incprofd shard " + std::to_string(id);
    const bool ok = control_query(
        connect, request, service::FrameType::kQueryReply,
        [&](std::string_view payload) {
          st.dump = service::decode_trace_dump(
              service::decode_query_reply(payload).text);
        });
    if (ok) {
      metrics_.counter("trace_pulls").add();
      dumps.push_back(std::move(st));
    } else {
      // An unreachable shard is simply absent from this trace view; the
      // aggregator's next pull handles the liveness consequences.
      metrics_.counter("trace_pull_failures").add();
    }
  }
  return merge_chrome_trace(obs::trace().events(), dumps);
}

obs::HttpHandler Gateway::http_handler() {
  obs::register_build_info(metrics_);
  return [this](const std::string& path) -> obs::HttpResponse {
    obs::HttpResponse resp;
    if (path == "/metrics") {
      metrics_.counter("obs_scrapes").add();
      obs::update_process_uptime(metrics_);
      resp.body =
          metrics_.render_prometheus() + render_merged_prometheus(view());
      resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    } else if (path == "/healthz") {
      const FleetView v = view();
      // Stale = alive (the last probe worked) but the last successful
      // pull is older than three cadences: the shard answers probes yet
      // its contribution to the merged view has stopped advancing.
      const std::uint64_t stale_ns =
          static_cast<std::uint64_t>(cfg_.pull_period.count()) *
          3'000'000ull;
      std::size_t down = 0;
      std::string body;
      for (const auto& s : v.shards) {
        body += "shard " + std::to_string(s.id) + ' ';
        body += !s.alive ? "down" : (s.draining ? "draining" : "up");
        if (s.ever_pulled) {
          body +=
              " pull_age_ms=" + std::to_string(s.last_pull_age_ns / 1000000);
          if (s.alive && stale_ns > 0 && s.last_pull_age_ns > stale_ns) {
            body += " stale";
          }
        } else {
          body += " never_pulled";
        }
        body += '\n';
        if (!s.alive) ++down;
      }
      resp.status = down == 0 ? 200 : 503;
      resp.body = (down == 0 ? std::string("ok\n") : "degraded\n") + body;
    } else if (path == "/fleet.json") {
      resp.body = render_fleet_json(view());
      resp.content_type = "application/json";
    } else if (path == "/trace.json") {
      resp.body = merged_trace_json();
      resp.content_type = "application/json";
    } else {
      resp.status = 404;
      resp.body = "not found\n";
    }
    return resp;
  };
}

}  // namespace incprof::fleet
