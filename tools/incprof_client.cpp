// incprof_client — replays an incprof_collect dump directory into a
// running incprofd as one or more concurrent sessions: the stand-in for
// a fleet of deployed, collector-instrumented processes all shipping
// their per-interval profiles to the central monitor.
//
// Usage:
//   incprof_client <dump_dir> [options]
//
// Options:
//   --host <h>        daemon host (default 127.0.0.1)
//   --port <n>        daemon port (default 7077)
//   --endpoint <h:p>  host and port in one flag ("gw.local:7077") — the
//                     form gateway redirect hints use; exit 2 when
//                     malformed
//   --sessions <n>    concurrent replay sessions (default 1)
//   --name <s>        client name prefix in the hello (default dump dir)
//   --retries <n>     connection attempts per session (default 1 = no
//                     retry); with more, a lost connection reconnects
//                     with exponential backoff and resumes the session
//   --backoff-ms <n>  initial reconnect backoff (default 20)
//   --no-events       do not subscribe to phase-event pushes
//   --trace-id <n>    originate this 64-bit trace id (hex with 0x prefix
//                     or decimal) instead of deriving one per session —
//                     lets an operator pin a known id to grep for in the
//                     fleet-merged /trace.json
//   --quiet           suppress the per-event log lines

#include "gmon/scanner.hpp"
#include "service/replay.hpp"
#include "service/tcp.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace incprof;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <dump_dir> [--host h] [--port n] "
               "[--endpoint h:p] [--sessions n] [--name s] [--retries n] "
               "[--backoff-ms n] [--no-events] [--trace-id n] [--quiet] "
               "[--verbose]\n",
               argv0);
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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string dump_dir = argv[1];
  std::string host = "127.0.0.1";
  std::uint16_t port = 7077;
  std::size_t sessions = 1;
  std::string name = dump_dir;
  std::size_t retries = 1;
  std::chrono::milliseconds backoff{20};
  bool subscribe = true;
  bool quiet = false;
  std::uint64_t trace_id = 0;  // 0 = derive per session
  util::set_log_level(util::LogLevel::kInfo);

  for (int i = 2; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      host = need("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      port = static_cast<std::uint16_t>(
          flag_int("--port", need("--port"), 1, 65535));
    } else if (std::strcmp(argv[i], "--endpoint") == 0) {
      const char* value = need("--endpoint");
      if (!util::parse_endpoint(value, host, port)) {
        std::fprintf(stderr,
                     "--endpoint: invalid value '%s' (expected "
                     "host:port with port in [1, 65535])\n",
                     value);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--sessions") == 0) {
      sessions = static_cast<std::size_t>(
          flag_int("--sessions", need("--sessions"), 1, 4096));
    } else if (std::strcmp(argv[i], "--retries") == 0) {
      retries = static_cast<std::size_t>(
          flag_int("--retries", need("--retries"), 1, 1000));
    } else if (std::strcmp(argv[i], "--backoff-ms") == 0) {
      backoff = std::chrono::milliseconds(
          flag_int("--backoff-ms", need("--backoff-ms"), 1, 60000));
    } else if (std::strcmp(argv[i], "--name") == 0) {
      name = need("--name");
    } else if (std::strcmp(argv[i], "--no-events") == 0) {
      subscribe = false;
    } else if (std::strcmp(argv[i], "--trace-id") == 0) {
      const char* value = need("--trace-id");
      char* end = nullptr;
      errno = 0;
      trace_id = std::strtoull(value, &end, 0);  // 0x.. hex or decimal
      if (errno != 0 || end == value || *end != '\0' || trace_id == 0) {
        std::fprintf(stderr,
                     "--trace-id: invalid value '%s' (expected nonzero "
                     "u64, hex with 0x prefix or decimal)\n",
                     value);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
      util::set_log_level(util::LogLevel::kError);
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      util::set_log_level(util::LogLevel::kDebug);
    } else {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return usage(argv[0]);
    }
  }
  try {
    const auto snapshots = gmon::load_binary_dumps(dump_dir);
    if (snapshots.empty()) {
      std::fprintf(stderr, "no gmon-*.out dumps in %s\n", dump_dir.c_str());
      return 1;
    }
    std::printf("replaying %zu dumps from %s as %zu session(s) -> %s:%u\n",
                snapshots.size(), dump_dir.c_str(), sessions, host.c_str(),
                port);

    std::vector<service::ReplayResult> results(sessions);
    std::vector<std::thread> threads;
    threads.reserve(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      threads.emplace_back([&, i] {
        service::ReplayOptions opts;
        opts.client_name = name + "#" + std::to_string(i);
        opts.subscribe_events = subscribe;
        opts.query_status = true;
        // Pinned id + session index keeps concurrent sessions'
        // traces distinct while still grep-able from the flag value.
        opts.trace_id = trace_id == 0 ? 0 : trace_id + i;
        service::RetryPolicy policy;
        policy.max_attempts = retries;
        policy.initial_backoff = backoff;
        policy.seed = 0x5eed5eedULL + i;
        results[i] = service::replay_session_resilient(
            [&] { return service::tcp_connect(host, port); }, snapshots,
            opts, policy);
      });
    }
    for (auto& t : threads) t.join();

    std::size_t failed = 0;
    for (std::size_t i = 0; i < sessions; ++i) {
      const auto& r = results[i];
      if (!r.ok) {
        ++failed;
        util::log_error("session " + std::to_string(i) + " failed: " +
                        r.error);
        continue;
      }
      std::printf("session %u: %zu snapshots sent, %zu phase events, "
                  "trace 0x%llx",
                  r.session_id, r.snapshots_sent, r.events.size(),
                  static_cast<unsigned long long>(r.trace_id));
      if (r.reconnects > 0) {
        std::printf(" (%zu reconnects)", r.reconnects);
      }
      std::printf("\n");
      if (!quiet) {
        for (const auto& ev : r.events) {
          if (ev.new_phase) {
            std::printf("  t=%4us  NEW phase %u discovered\n", ev.interval,
                        ev.phase);
          } else if (ev.transition) {
            std::printf("  t=%4us  transition -> phase %u (distance %.2f)\n",
                        ev.interval, ev.phase, ev.distance);
          }
        }
      }
      if (!r.status_text.empty()) {
        std::printf("  server: %s\n", r.status_text.c_str());
      }
    }
    if (failed > 0) {
      std::fprintf(stderr, "%zu/%zu sessions failed\n", failed, sessions);
      return 1;
    }
    std::printf("all %zu sessions completed\n", sessions);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
