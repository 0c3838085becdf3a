// The fleet gateway: the thin coordinator that makes N incprofd shards
// look like one daemon. It terminates nothing — clients speak the
// unmodified length-prefixed protocol, the gateway reads exactly one
// frame (the hello) to pick a shard, then pumps raw frames both ways.
//
// Routing:
//   - A fresh hello is routed by consistent hash of its client name
//     (the only stable identity a session has before the shard assigns
//     an id). Dead shards are dropped from the ring, so retries land on
//     survivors.
//   - A resume hello names a session id, and session ids are
//     partitioned by shard (service::session_id_shard), so the owner is
//     derived from the id alone — no routing state to persist. When the
//     owner is gone or draining the gateway itself answers
//     kUnknownSession; the client's resilient replay then restarts the
//     stream as a fresh session, which the ring places on a surviving
//     shard. Nothing is lost: the full stream is re-sent.
//
// Aggregation: a background thread pulls every shard's kFleetState
// snapshot (sessionless control query) each pull_period and folds them
// with service::merge_shard_state. The merged view is eventually
// consistent — shards are pulled at different instants — but each
// shard's contribution is a consistent snapshot and advances
// monotonically, so on a quiesced fleet the merge equals the exact sum.
// A pull failure marks the shard dead (dropped from the ring, reported
// in /healthz) until a later pull succeeds.
//
// Concurrency (PR 4 conventions): all three gateway locks — state_mu_,
// workers_mu_, agg_mu_ — are leaves; no lock is ever held across a
// connect, send, or receive, and no thread is detached (proxy workers
// are tracked and joined, the HttpEndpoint pattern).
#pragma once

#include "fleet/hash_ring.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "service/fleet_state.hpp"
#include "service/replay.hpp"
#include "service/transport.hpp"
#include "util/thread_annotations.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace incprof::fleet {

struct GatewayConfig {
  /// Virtual nodes per shard on the routing ring.
  std::size_t vnodes_per_shard = HashRing::kDefaultVnodesPerShard;
  /// Aggregator pull cadence; 0 disables the background thread (tests
  /// drive poll_once() by hand).
  std::chrono::milliseconds pull_period{1000};
  /// Receive deadline for one control pull / drain ack, when the
  /// transport supports deadlines.
  std::chrono::milliseconds pull_timeout{1000};
};

/// One shard's health row in the fleet view.
struct ShardHealth {
  std::uint32_t id = 0;
  bool alive = true;
  bool draining = false;
  std::uint64_t open_sessions = 0;
  std::uint64_t total_intervals = 0;
  std::uint64_t pulls = 0;
  std::uint64_t pull_failures = 0;
  /// Age of the last successful state pull (ns at view() time); only
  /// meaningful when ever_pulled. Surfaces the stale-but-not-dead shard:
  /// alive (last probe worked) yet with data older than the pull cadence
  /// should allow.
  std::uint64_t last_pull_age_ns = 0;
  bool ever_pulled = false;
};

/// A point-in-time copy of the gateway's merged knowledge.
struct FleetView {
  std::vector<ShardHealth> shards;
  /// Fold of every live shard's last state (merge_shard_state);
  /// merged.shard_id is meaningless.
  service::ShardState merged;
};

/// Fleet coordinator over a frontend Listener (not owned, must outlive
/// the gateway). Lifecycle mirrors service::Server: construct,
/// add_shard()s, start(), stop().
class Gateway {
 public:
  explicit Gateway(service::Listener& frontend, GatewayConfig cfg = {});
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Registers a shard and its connect factory (fresh connection per
  /// call; nullptr/throw = attempt failed). Callable before or after
  /// start(); re-adding a drained or dead id revives it.
  void add_shard(std::uint32_t shard_id, service::ConnectFn connect);

  /// Spawns the frontend accept loop and (pull_period > 0) the
  /// aggregator thread.
  void start();

  /// Stops accepting, force-closes every proxied connection, joins all
  /// threads. Idempotent.
  void stop();

  /// Drains one shard: removes it from the ring (no new or resumed
  /// sessions route there), then sends it the kDrain control frame so
  /// it force-closes its attached sessions — their clients reconnect
  /// through this gateway and land on the remaining shards. Returns the
  /// shard's reported closed-session count, 0 when it was unreachable
  /// or unknown.
  std::uint32_t drain_shard(std::uint32_t shard_id);

  /// One synchronous aggregator pass over every shard (also what the
  /// background thread runs). Exposed so tests can poll
  /// deterministically.
  void poll_once();

  /// Copy of the merged fleet view as of the last poll.
  FleetView view() const;

  /// Routes for the gateway's obs HttpEndpoint: GET /metrics (gateway
  /// registry + merged per-shard metrics, Prometheus text), /healthz
  /// (per-shard liveness; 503 while any registered shard is down),
  /// /fleet.json (machine-readable view), /trace.json (fleet-merged
  /// Chrome trace), 404 otherwise.
  obs::HttpHandler http_handler();

  /// Fleet-merged Chrome trace JSON: pulls every shard's span ring on
  /// demand (kTraceDump control query) and folds it with the gateway's
  /// own ring — per-process pid lanes plus flow events linking gateway
  /// spans to shard spans. What /trace.json serves.
  std::string merged_trace_json();

  /// The gateway's own operational metrics (sessions routed, redirects,
  /// pull failures, ...).
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }

  /// Client connections accepted so far.
  std::uint64_t connections_accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }

 private:
  struct ShardEntry {
    service::ConnectFn connect;
    bool alive = true;
    bool draining = false;
    std::uint64_t pulls = 0;
    std::uint64_t pull_failures = 0;
    /// Last successfully pulled state (fold input for the merged view).
    service::ShardState last_state;
    bool has_state = false;
    /// obs::now_ns() of the last successful pull (0 = never).
    std::uint64_t last_pull_ns = 0;
  };

  /// One proxied client: the worker thread routes the hello, then the
  /// pair of pumps shuttle raw frames until either side closes. The
  /// worker joins its own backward pump; the accept loop and stop()
  /// join workers (no detach).
  struct ProxyWorker {
    std::shared_ptr<service::Connection> client;
    std::shared_ptr<service::Connection> backend;  // set after routing
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void aggregator_loop();
  void proxy(ProxyWorker* worker);
  /// Routes a decoded hello; returns the backend connection (nullptr =>
  /// a typed refusal was already sent to the client).
  std::shared_ptr<service::Connection> route(
      service::Connection& client, const service::HelloPayload& hello);
  /// Connects to one shard, marking it dead (ring removal) on failure.
  std::shared_ptr<service::Connection> try_connect(std::uint32_t shard_id);
  /// Sends one control `request` frame over a fresh shard connection and
  /// passes the payload of the first `reply_type` frame to `on_reply`
  /// (other frames are skipped). Returns false, never throws, when the
  /// connect, send or wait fails, or when `on_reply` throws on a
  /// malformed reply.
  bool control_query(const service::ConnectFn& connect,
                     const std::string& request, service::FrameType reply_type,
                     const std::function<void(std::string_view)>& on_reply);
  void reap_finished_workers();

  service::Listener& frontend_;
  const GatewayConfig cfg_;
  obs::MetricsRegistry metrics_;

  // Proxy-path latency histograms, resolved once so the per-connection
  // path never takes the registry lock (the Server ctor pattern).
  obs::Histogram& route_hist_;
  obs::Histogram& proxy_hist_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> accepted_{0};

  /// Leaf lock: routing ring + shard table + merged view. Never held
  /// across connect/send/receive.
  mutable util::Mutex state_mu_;
  HashRing ring_ INCPROF_GUARDED_BY(state_mu_);
  std::map<std::uint32_t, ShardEntry> shards_ INCPROF_GUARDED_BY(state_mu_);

  /// Leaf lock: in-flight proxy workers.
  util::Mutex workers_mu_;
  std::vector<std::unique_ptr<ProxyWorker>> workers_
      INCPROF_GUARDED_BY(workers_mu_);

  /// Leaf lock: aggregator pacing and shutdown.
  util::Mutex agg_mu_;
  util::CondVar agg_cv_;
  bool agg_stop_ INCPROF_GUARDED_BY(agg_mu_) = false;

  std::thread accept_thread_;
  std::thread agg_thread_;
};

}  // namespace incprof::fleet
