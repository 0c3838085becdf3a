// incprofd — the multi-session phase-detection daemon: the
// monitoring-side endpoint of the framework (the paper ships AppEKG
// records through LDMS; incprofd is that collector's stand-in). Clients
// (incprof_client, or anything speaking service/protocol) stream
// profile snapshots and heartbeat batches; the daemon tracks phases per
// session and prints a periodic fleet report. With --obs-port it also
// serves its own telemetry over HTTP: Prometheus metrics, a health
// probe, and a Chrome/Perfetto trace of the frame path.
//
// Usage:
//   incprofd [options]                     serve TCP
//   incprofd --selftest <dump_dir> [opts]  end-to-end self check: serve
//                                          on an ephemeral port, replay
//                                          <dump_dir> over real sockets
//                                          as N local sessions, report
//   incprofd --selftest-chaos <dump_dir>   same, but half the sessions
//                                          send through a seeded
//                                          fault-injecting transport
//                                          (drops, corruption, truncation,
//                                          disconnects); asserts the
//                                          clean half is undisturbed
//
// Options:
//   --port <n>           TCP port (default 7077; 0 = ephemeral)
//   --obs-port <n>       also serve GET /metrics, /healthz, /trace.json
//                        over HTTP on this port (0 = ephemeral)
//   --shard-id <n>       this daemon's shard id behind incprof_gateway
//                        (default 0 = standalone); session ids come from
//                        the shard's disjoint range so the gateway can
//                        route resumes by id alone
//   --streaming          bounded per-session trackers: hash-sketched
//                        fixed-width feature vectors, EWMA centroids
//                        with online phase merging, and a bounded
//                        assignment ring — O(1) work and memory per
//                        interval regardless of session length (the
//                        fleet-scale mode; default off = exact
//                        growing-column reference trackers)
//   --sketch-width <n>   feature sketch width with --streaming
//                        (default 256)
//   --port-file <path>   after binding, write the bound ports ("port
//                        <n>", "obs_port <n>" lines) — how scripts find
//                        ephemeral (--port 0) listeners
//   --threads <n>        tracker worker threads: 0 = hardware
//                        concurrency (default), 1 = single worker
//   --workers <n>        alias for --threads (kept for old scripts;
//                        accepts 1..1024 only)
//   --queue-capacity <n> per-session frame queue bound (default 256)
//   --error-budget <n>   malformed frames tolerated per session before
//                        quarantine (default 4)
//   --resume-grace-ms <n>  keep abruptly-disconnected sessions resumable
//                        for this long (default 0 = off)
//   --idle-timeout-ms <n>  reap sessions silent for this long (0 = off)
//   --read-timeout-ms <n>  per-connection receive deadline (0 = off)
//   --postmortem-dir <path>  write a flight-recorder postmortem JSON
//                        (last events, offending frames) here whenever a
//                        session is quarantined; empty = off
//   --report-every <s>   seconds between fleet reports (default 10)
//   --max-seconds <s>    exit after this long (default: run until EOF
//                        on stdin or SIGINT)
//   --metrics-csv <path> write the metrics registry as CSV on exit
//   --fleet-csv <path>   write the per-session fleet table on exit
//   --sessions <n>       (selftest) parallel replay sessions, default 4
//   --chaos-seed <n>     (selftest-chaos) fault schedule seed, default 1
//   --chaos-rate <f>     (selftest-chaos) per-frame fault probability,
//                        default 0.15
//   --quiet              only errors on stderr
//   --verbose            debug-level diagnostics on stderr

#include "cluster/simd/simd.hpp"
#include "obs/http.hpp"
#include "obs/trace.hpp"
#include "service/faults.hpp"
#include "service/replay.hpp"
#include "service/server.hpp"
#include "service/tcp.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace incprof;

namespace {

std::atomic<bool> g_interrupted{false};

void on_signal(int) { g_interrupted.store(true); }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port n] [--obs-port n] [--shard-id n] "
               "[--port-file path] [--threads n] [--workers n] "
               "[--streaming] [--simd auto|avx2|neon|scalar] "
               "[--sketch-width n] "
               "[--queue-capacity n] [--error-budget n] "
               "[--resume-grace-ms n] [--idle-timeout-ms n] "
               "[--read-timeout-ms n] [--postmortem-dir path] "
               "[--report-every s] [--max-seconds s] "
               "[--metrics-csv path] [--fleet-csv path] [--quiet] "
               "[--verbose]\n"
               "       %s --selftest <dump_dir> [--sessions n] [--workers n]\n"
               "       %s --selftest-chaos <dump_dir> [--sessions n] "
               "[--chaos-seed n] [--chaos-rate f]\n",
               argv0, argv0, argv0);
  return 2;
}

/// Parses an integer flag value or exits 2 with a message naming the
/// flag, the offending value, and the accepted range.
std::int64_t flag_int(const char* flag, const char* value,
                      std::int64_t lo, std::int64_t hi) {
  std::int64_t out = 0;
  if (!util::parse_int(value, lo, hi, out)) {
    std::fprintf(stderr,
                 "%s: invalid value '%s' (expected integer in [%lld, "
                 "%lld])\n",
                 flag, value, static_cast<long long>(lo),
                 static_cast<long long>(hi));
    std::exit(2);
  }
  return out;
}

void write_csv_file(const std::string& path, const auto& writer) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    util::log_error("incprofd: cannot write " + path);
    return;
  }
  writer(os);
}

std::unique_ptr<obs::HttpEndpoint> start_obs_endpoint(
    int obs_port, service::Server& server) {
  if (obs_port < 0) return nullptr;
  // The stock obs routes plus the live flight-recorder view:
  // GET /sessions/<id>.json dumps session <id>'s last-events ring.
  auto base = obs::make_obs_handler(server.metrics(), obs::trace());
  auto handler = [base = std::move(base),
                  &server](const std::string& path) -> obs::HttpResponse {
    constexpr std::string_view kPrefix = "/sessions/";
    constexpr std::string_view kSuffix = ".json";
    if (path.size() > kPrefix.size() + kSuffix.size() &&
        path.compare(0, kPrefix.size(), kPrefix) == 0 &&
        path.compare(path.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) == 0) {
      const std::string id_text = path.substr(
          kPrefix.size(), path.size() - kPrefix.size() - kSuffix.size());
      std::int64_t id = 0;
      if (util::parse_int(id_text, 1, std::numeric_limits<std::uint32_t>::max(),
                          id)) {
        std::string body =
            server.session_flight_json(static_cast<std::uint32_t>(id));
        if (!body.empty()) {
          return {200, "application/json", std::move(body)};
        }
      }
      return {404, "text/plain; charset=utf-8", "no such session\n"};
    }
    return base(path);
  };
  auto endpoint = std::make_unique<obs::HttpEndpoint>(
      static_cast<std::uint16_t>(obs_port), std::move(handler));
  std::printf("incprofd: obs endpoint on port %u "
              "(GET /metrics /healthz /trace.json /sessions/<id>.json)\n",
              endpoint->port());
  std::fflush(stdout);
  return endpoint;
}

int run_selftest(const std::string& dump_dir, std::size_t sessions,
                 int obs_port, service::ServerConfig cfg) {
  const auto snapshots = service::load_replay_dumps(dump_dir);
  if (snapshots.empty()) {
    util::log_error("incprofd: no dumps in " + dump_dir);
    return 1;
  }

  // The selftest asserts lossless delivery, so the queue bound must
  // cover a whole replay arriving faster than the trackers drain it.
  cfg.session.queue_capacity =
      std::max(cfg.session.queue_capacity, snapshots.size() + 16);

  service::TcpListener listener(0);
  service::Server server(listener, cfg);
  server.start();
  const auto obs_endpoint = start_obs_endpoint(obs_port, server);
  std::printf("incprofd selftest: port %u, %zu dumps, %zu sessions\n",
              listener.port(), snapshots.size(), sessions);

  std::vector<service::ReplayResult> results(sessions);
  std::vector<std::thread> clients;
  clients.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    clients.emplace_back([&, i] {
      service::ReplayOptions opts;
      opts.client_name = "selftest-" + std::to_string(i);
      opts.subscribe_events = true;
      opts.query_status = true;
      try {
        auto conn = service::tcp_connect("127.0.0.1", listener.port());
        results[i] = service::replay_session(*conn, snapshots, opts);
      } catch (const std::exception& e) {
        results[i].error = e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  server.stop();

  std::size_t ok = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    const auto& r = results[i];
    if (r.ok && r.events.size() == snapshots.size()) {
      ++ok;
    } else {
      util::log_error("session " + std::to_string(i) + " failed: " +
                      r.error + " (" + std::to_string(r.events.size()) +
                      "/" + std::to_string(snapshots.size()) + " events)");
    }
    if (!r.status_text.empty()) std::printf("  %s\n", r.status_text.c_str());
  }
  std::printf("%s", service::render_fleet(server.shard_state()).c_str());
  std::printf("selftest: %zu/%zu sessions ok, %llu frames, %llu dropped\n",
              ok, sessions,
              static_cast<unsigned long long>(
                  server.metrics().counter_value("frames_received")),
              static_cast<unsigned long long>(
                  server.metrics().counter_value("frames_dropped")));
  return ok == sessions ? 0 : 1;
}

/// Chaos self check: N parallel replay sessions against a real TCP
/// server, the odd-numbered half sending through a seeded
/// FaultInjectingConnection on their first attempt (reconnects are
/// clean, so every session eventually converges). Passes when every
/// session completes and every clean session got a phase event per
/// snapshot — injected faults must never disturb healthy neighbors.
int run_selftest_chaos(const std::string& dump_dir, std::size_t sessions,
                       int obs_port, service::ServerConfig cfg,
                       std::uint64_t seed, double rate) {
  const auto snapshots = service::load_replay_dumps(dump_dir);
  if (snapshots.empty()) {
    util::log_error("incprofd: no dumps in " + dump_dir);
    return 1;
  }
  cfg.session.queue_capacity =
      std::max(cfg.session.queue_capacity, snapshots.size() + 16);
  // Chaos needs the fault-tolerance machinery on; keep explicit flags.
  if (cfg.resume_grace.count() == 0) {
    cfg.resume_grace = std::chrono::milliseconds(2000);
  }
  if (cfg.read_timeout.count() == 0) {
    cfg.read_timeout = std::chrono::milliseconds(2000);
  }

  service::TcpListener listener(0);
  service::Server server(listener, cfg);
  server.start();
  const auto obs_endpoint = start_obs_endpoint(obs_port, server);
  std::printf("incprofd chaos selftest: port %u, %zu dumps, %zu sessions "
              "(seed %llu, rate %.2f)\n",
              listener.port(), snapshots.size(), sessions,
              static_cast<unsigned long long>(seed), rate);

  std::vector<service::ReplayResult> results(sessions);
  std::vector<std::thread> clients;
  clients.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    const bool faulty = (i % 2) == 1;
    clients.emplace_back([&, i, faulty] {
      service::ReplayOptions opts;
      opts.client_name =
          std::string(faulty ? "chaos-" : "clean-") + std::to_string(i);
      opts.subscribe_events = !faulty;
      opts.query_status = true;
      service::RetryPolicy policy;
      policy.max_attempts = 8;
      policy.initial_backoff = std::chrono::milliseconds(10);
      policy.seed = seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
      std::size_t attempts = 0;
      results[i] = service::replay_session_resilient(
          [&]() -> std::unique_ptr<service::Connection> {
            auto conn = service::tcp_connect("127.0.0.1", listener.port());
            if (faulty && attempts++ == 0) {
              return std::make_unique<service::FaultInjectingConnection>(
                  std::move(conn),
                  service::FaultPlan::from_seed(seed + i, rate,
                                                snapshots.size() + 8),
                  std::chrono::milliseconds(2));
            }
            return conn;
          },
          snapshots, opts, policy);
    });
  }
  for (auto& t : clients) t.join();
  server.stop();

  std::size_t ok = 0;
  std::size_t clean_ok = 0;
  const std::size_t clean_total = (sessions + 1) / 2;  // even indices
  for (std::size_t i = 0; i < sessions; ++i) {
    const bool faulty = (i % 2) == 1;
    const auto& r = results[i];
    if (!r.ok) {
      util::log_error("session " + std::to_string(i) + " failed: " +
                      r.error);
      continue;
    }
    ++ok;
    if (!faulty) {
      if (r.events.size() == snapshots.size()) {
        ++clean_ok;
      } else {
        util::log_error("clean session " + std::to_string(i) + " got " +
                        std::to_string(r.events.size()) + "/" +
                        std::to_string(snapshots.size()) + " events");
      }
    }
  }

  const auto& m = server.metrics();
  std::printf("%s", service::render_fleet(server.shard_state()).c_str());
  std::printf(
      "chaos: %zu/%zu sessions ok, clean %zu/%zu undisturbed, "
      "%llu rejected, %llu quarantined, %llu reconnects\n",
      ok, sessions, clean_ok, clean_total,
      static_cast<unsigned long long>(m.counter_value("frames_rejected")),
      static_cast<unsigned long long>(
          m.counter_value("sessions_quarantined")),
      static_cast<unsigned long long>(m.counter_value("reconnects")));
  return (ok == sessions && clean_ok == clean_total) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 7077;
  int obs_port = -1;  // off unless --obs-port is given
  double report_every = 10.0;
  double max_seconds = 0.0;
  std::size_t sessions = 4;
  std::uint64_t chaos_seed = 1;
  double chaos_rate = 0.15;
  std::string metrics_csv;
  std::string fleet_csv;
  std::string selftest_dir;
  std::string chaos_dir;
  std::string port_file;
  service::ServerConfig cfg;
  util::set_log_level(util::LogLevel::kInfo);

  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      port = static_cast<std::uint16_t>(
          flag_int("--port", need("--port"), 0, 65535));
    } else if (std::strcmp(argv[i], "--obs-port") == 0) {
      obs_port = static_cast<int>(
          flag_int("--obs-port", need("--obs-port"), 0, 65535));
    } else if (std::strcmp(argv[i], "--shard-id") == 0) {
      cfg.shard_id = static_cast<std::uint32_t>(
          flag_int("--shard-id", need("--shard-id"), 0,
                   service::kMaxShardId));
    } else if (std::strcmp(argv[i], "--port-file") == 0) {
      port_file = need("--port-file");
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      cfg.worker_threads = static_cast<std::size_t>(
          flag_int("--threads", need("--threads"), 0, 1024));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      cfg.worker_threads = static_cast<std::size_t>(
          flag_int("--workers", need("--workers"), 1, 1024));
    } else if (std::strcmp(argv[i], "--streaming") == 0) {
      cfg.session.tracker.streaming = true;
    } else if (std::strcmp(argv[i], "--simd") == 0) {
      const char* tier_arg = need("--simd");
      cluster::simd::Tier tier;
      if (!cluster::simd::parse_tier(tier_arg, tier) ||
          !cluster::simd::set_active_tier(tier)) {
        std::fprintf(stderr,
                     "--simd: invalid or unsupported tier '%s' (expected "
                     "auto, avx2, neon, or scalar; detected: %s)\n",
                     tier_arg,
                     cluster::simd::tier_name(cluster::simd::detected_tier()));
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--sketch-width") == 0) {
      cfg.session.tracker.sketch_width = static_cast<std::size_t>(
          flag_int("--sketch-width", need("--sketch-width"), 1, 1 << 20));
    } else if (std::strcmp(argv[i], "--queue-capacity") == 0) {
      cfg.session.queue_capacity = static_cast<std::size_t>(flag_int(
          "--queue-capacity", need("--queue-capacity"), 1, 1 << 24));
    } else if (std::strcmp(argv[i], "--error-budget") == 0) {
      cfg.protocol_error_budget = static_cast<std::uint32_t>(
          flag_int("--error-budget", need("--error-budget"), 0, 1 << 20));
    } else if (std::strcmp(argv[i], "--resume-grace-ms") == 0) {
      cfg.resume_grace = std::chrono::milliseconds(flag_int(
          "--resume-grace-ms", need("--resume-grace-ms"), 0, 86400000));
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0) {
      cfg.idle_timeout = std::chrono::milliseconds(flag_int(
          "--idle-timeout-ms", need("--idle-timeout-ms"), 0, 86400000));
    } else if (std::strcmp(argv[i], "--read-timeout-ms") == 0) {
      cfg.read_timeout = std::chrono::milliseconds(flag_int(
          "--read-timeout-ms", need("--read-timeout-ms"), 0, 86400000));
    } else if (std::strcmp(argv[i], "--postmortem-dir") == 0) {
      cfg.postmortem_dir = need("--postmortem-dir");
    } else if (std::strcmp(argv[i], "--report-every") == 0) {
      report_every = std::atof(need("--report-every"));
    } else if (std::strcmp(argv[i], "--max-seconds") == 0) {
      max_seconds = std::atof(need("--max-seconds"));
    } else if (std::strcmp(argv[i], "--metrics-csv") == 0) {
      metrics_csv = need("--metrics-csv");
    } else if (std::strcmp(argv[i], "--fleet-csv") == 0) {
      fleet_csv = need("--fleet-csv");
    } else if (std::strcmp(argv[i], "--selftest") == 0) {
      selftest_dir = need("--selftest");
    } else if (std::strcmp(argv[i], "--selftest-chaos") == 0) {
      chaos_dir = need("--selftest-chaos");
    } else if (std::strcmp(argv[i], "--sessions") == 0) {
      sessions = static_cast<std::size_t>(
          flag_int("--sessions", need("--sessions"), 1, 4096));
    } else if (std::strcmp(argv[i], "--chaos-seed") == 0) {
      chaos_seed = static_cast<std::uint64_t>(flag_int(
          "--chaos-seed", need("--chaos-seed"), 0,
          std::numeric_limits<std::int64_t>::max()));
    } else if (std::strcmp(argv[i], "--chaos-rate") == 0) {
      chaos_rate = std::atof(need("--chaos-rate"));
      if (chaos_rate < 0.0 || chaos_rate > 1.0) {
        std::fprintf(stderr, "--chaos-rate must be in [0, 1]\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      util::set_log_level(util::LogLevel::kError);
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      util::set_log_level(util::LogLevel::kDebug);
    } else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return usage(argv[0]);
    }
  }
  try {
    if (!chaos_dir.empty()) {
      return run_selftest_chaos(chaos_dir, sessions, obs_port, cfg,
                                chaos_seed, chaos_rate);
    }
    if (!selftest_dir.empty()) {
      return run_selftest(selftest_dir, sessions, obs_port, cfg);
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    service::TcpListener listener(port);
    service::Server server(listener, cfg);
    server.start();
    const auto obs_endpoint = start_obs_endpoint(obs_port, server);
    std::printf("incprofd: listening on port %u (%zu workers, queue %zu, "
                "shard %u, %s trackers)\n",
                listener.port(), server.worker_count(),
                cfg.session.queue_capacity, cfg.shard_id,
                cfg.session.tracker.streaming ? "streaming" : "exact");
    std::fflush(stdout);
    if (!port_file.empty()) {
      std::ofstream pf(port_file, std::ios::trunc);
      if (!pf) {
        std::fprintf(stderr, "incprofd: cannot write %s\n",
                     port_file.c_str());
        return 1;
      }
      pf << "port " << listener.port() << '\n';
      if (obs_endpoint) pf << "obs_port " << obs_endpoint->port() << '\n';
    }

    const auto start = std::chrono::steady_clock::now();
    auto next_report =
        start + std::chrono::duration<double>(report_every);
    while (!g_interrupted.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const auto now = std::chrono::steady_clock::now();
      if (max_seconds > 0.0 &&
          now - start >= std::chrono::duration<double>(max_seconds)) {
        break;
      }
      if (report_every > 0.0 && now >= next_report) {
        std::printf("%s", service::render_fleet(server.shard_state()).c_str());
        std::fflush(stdout);
        next_report = now + std::chrono::duration<double>(report_every);
      }
    }

    server.stop();
    // One capture feeds both the final report and the fleet CSV.
    const service::ShardState final_state = server.shard_state();
    std::printf("%s", service::render_fleet(final_state).c_str());
    if (!metrics_csv.empty()) {
      write_csv_file(metrics_csv,
                     [&](std::ostream& os) { server.metrics().write_csv(os); });
    }
    if (!fleet_csv.empty()) {
      write_csv_file(fleet_csv, [&](std::ostream& os) {
        service::write_fleet_csv(final_state, os);
      });
    }
    std::printf("incprofd: served %llu sessions, %llu frames (%llu dropped)\n",
                static_cast<unsigned long long>(
                    server.metrics().counter_value("sessions_opened")),
                static_cast<unsigned long long>(
                    server.metrics().counter_value("frames_received")),
                static_cast<unsigned long long>(
                    server.metrics().counter_value("frames_dropped")));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
