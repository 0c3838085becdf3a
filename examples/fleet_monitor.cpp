// fleet_monitor — the multi-application deployment scenario the service
// layer exists for: several mini-apps each run under the IncProf
// collector, and every one streams its cumulative dumps to a single
// in-process incprofd Server over the loopback transport. The daemon
// tracks phases per session and the fleet report answers the
// operator's question: which applications are in which phase, and where
// did behaviour just change?
//
// Usage: fleet_monitor [app ...]   (default: graph500 minife miniamr)

#include "apps/harness.hpp"
#include "apps/miniapp.hpp"
#include "service/loopback.hpp"
#include "service/replay.hpp"
#include "service/server.hpp"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace incprof;

int main(int argc, char** argv) {
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) names.emplace_back(argv[i]);
  if (names.empty()) names = {"graph500", "minife", "miniamr"};

  // Collect each application's dump stream up front (in a live
  // deployment these arrive over TCP as the apps run).
  std::vector<std::vector<gmon::ProfileSnapshot>> streams;
  for (const auto& name : names) {
    auto app = apps::make_app(name, {});
    std::printf("collecting %s...\n", name.c_str());
    streams.push_back(apps::run_profiled(*app).snapshots);
  }

  service::LoopbackHub hub;
  auto listener = hub.make_listener();
  service::ServerConfig cfg;
  // Replay blasts a whole run at once instead of one dump per second;
  // give the queues room so the demo shows complete streams.
  cfg.session.queue_capacity = 8192;
  service::Server server(*listener, cfg);
  server.start();

  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < names.size(); ++i) {
    clients.emplace_back([&, i] {
      service::ReplayOptions opts;
      opts.client_name = names[i];
      auto conn = hub.connect();
      if (conn == nullptr) return;
      const auto result =
          service::replay_session(*conn, streams[i], opts);
      if (!result.ok) {
        std::fprintf(stderr, "%s: %s\n", names[i].c_str(),
                     result.error.c_str());
      }
    });
  }
  for (auto& t : clients) t.join();
  server.stop();

  std::printf("\n%s\n",
              service::render_fleet(server.shard_state()).c_str());

  std::printf("recent phase changes across the fleet:\n");
  for (const auto& ev : server.transition_log().entries()) {
    std::printf("  session %u  t=%4us  %s phase %zu\n", ev.session,
                ev.interval, ev.new_phase ? "NEW" : "->", ev.phase);
  }

  std::printf("\ndaemon metrics:\n");
  for (const auto& sample : server.metrics().samples()) {
    std::printf("  %-22s %lld\n", sample.name.c_str(),
                static_cast<long long>(sample.value));
  }
  return 0;
}
