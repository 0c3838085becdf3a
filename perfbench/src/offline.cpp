// Offline path: cumulative dumps -> core::analyze_snapshots /
// core::analyze_dump_dir -> site table.
//
//   paper_apps  the five paper apps at paper scale, collected once in
//               set-up and analyzed in memory with
//               bench::paper_pipeline_config() (gprof text round trip on)
//               on the serial engine (threads = 1). One operation = one
//               analysis of each of the five apps.
//   wide_trace  a seeded 2,048 x 256 phased trace written once in set-up
//               as a binary dump directory. One operation = one
//               analyze_dump_dir call with the text round trip off, on
//               every hardware thread (threads = 0).
//
// The untraced runs call the library facade exactly as a user would. The
// traced run replays the same pipeline from its public pieces (the
// steps core::analyze_snapshots and core::detect_phases take) with a
// span around each call, and checks that the composed result has the
// facade's checksum.
#include "workloads.hpp"

#include "apps/harness.hpp"
#include "apps/miniapp.hpp"
#include "bench_common.hpp"
#include "cluster/distance_cache.hpp"
#include "cluster/kselect.hpp"
#include "cluster/quality.hpp"
#include "core/pipeline.hpp"
#include "gmon/binary_io.hpp"
#include "gmon/flat_text.hpp"
#include "gmon/scanner.hpp"
#include "synth.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

#include <exception>
#include <filesystem>
#include <memory>

namespace perfbench {

namespace {

using namespace incprof;
namespace fs = std::filesystem;

/// Largest distance cache core::analyze_snapshots builds (its
/// kCacheBudget); the composed pipeline gates the same way.
constexpr std::size_t kCacheBudget = std::size_t{1} << 30;

struct Input {
  std::vector<std::vector<gmon::ProfileSnapshot>> apps;  // paper_apps
  fs::path dump_dir;                                       // wide_trace
};

/// Per-operation result: checksum over assignments and site tables, plus
/// exact counts.
struct Outcome {
  Checksum checksum;
  double intervals = 0;
  double functions = 0;
  double phases = 0;
  double sites = 0;
  double cache_mb = 0;

  void fold(const core::IntervalData& intervals_in,
            const core::PhaseDetection& det,
            const core::SiteSelectionResult& result) {
    checksum.add(static_cast<std::uint64_t>(det.num_phases));
    for (const std::size_t a : det.assignments) checksum.add(std::uint64_t{a});
    for (const auto& phase : result.phases) {
      checksum.add(std::uint64_t{phase.phase});
      checksum.add(phase.coverage);
      for (const auto& s : phase.sites) {
        checksum.add(std::string_view(s.function_name));
        checksum.add(static_cast<std::uint64_t>(s.type));
        checksum.add(s.phase_fraction);
        checksum.add(s.app_fraction);
      }
    }
    const std::size_t n = intervals_in.num_intervals();
    intervals += static_cast<double>(n);
    functions += static_cast<double>(intervals_in.num_functions());
    phases += static_cast<double>(det.num_phases);
    sites += static_cast<double>(result.num_unique_sites());
    if (n >= 2 && cluster::DistanceCache::bytes_required(n) <= kCacheBudget) {
      cache_mb +=
          static_cast<double>(cluster::DistanceCache::bytes_required(n)) / 1e6;
    }
  }
};

/// The five paper apps are short analyses (~400 intervals each): on a
/// shared host the pool's fork-join wake-ups make their multi-threaded
/// wall time bimodal from run to run, so they run on the serial engine.
/// wide_trace keeps the pool, where the parallel cluster work dominates.
core::PipelineConfig config_for(bool wide) {
  core::PipelineConfig cfg = bench::paper_pipeline_config();
  cfg.text_round_trip = !wide;
  cfg.threads = wide ? 0 : 1;
  return cfg;
}

/// Generates the workload's inputs. wide_trace (re)writes its dumps in
/// one directory that is kept between set-ups and runs. Creating 2,048
/// files cost 0.1 s or 0.9 s depending on the host's disk load, while
/// rewriting them costs about 0.1 s either way, so a kept directory
/// makes setup_s a measure of the generator and the gmon writer.
Input make_input(const Options& opt, bool wide) {
  Input in;
  if (wide) {
    StreamSpec spec;
    spec.intervals = 2048;
    spec.functions = 256;
    spec.phases = 5;
    spec.active = 40;
    spec.seed = opt.seed;
    in.dump_dir = fs::path(opt.work_dir) / "wide_trace";
    fs::create_directories(in.dump_dir);
    // Drop anything that is not one of this input's dumps.
    std::vector<fs::path> stale;
    for (const auto& entry : fs::directory_iterator(in.dump_dir)) {
      std::uint32_t seq = 0;
      if (!gmon::parse_dump_seq(entry.path().filename().string(), seq) ||
          seq >= spec.intervals || entry.path().extension() != ".out") {
        stale.push_back(entry.path());
      }
    }
    for (const fs::path& p : stale) fs::remove_all(p);
    for (const auto& snap : make_phased_stream(spec)) {
      gmon::write_binary_file(
          snap, in.dump_dir / gmon::binary_dump_name(snap.seq()));
    }
    return in;
  }
  apps::RunConfig run = bench::paper_run_config();
  run.seed = opt.seed;
  for (const std::string& name : apps::app_names()) {
    auto app = apps::make_app(name, {});
    in.apps.push_back(apps::run_profiled(*app, run).snapshots);
  }
  return in;
}

/// One untraced operation through the library facade.
Outcome facade_op(const Input& in, const core::PipelineConfig& cfg, bool wide) {
  Outcome out;
  auto fold = [&](const core::PhaseAnalysis& a) {
    out.fold(a.intervals, a.detection, a.sites);
  };
  if (wide) {
    fold(core::analyze_dump_dir(in.dump_dir, cfg));
  } else {
    for (const auto& snaps : in.apps) fold(core::analyze_snapshots(snaps, cfg));
  }
  return out;
}

/// What the silhouette probe needs after the operation's spans close.
struct SilhouetteProbe {
  core::FeatureSpace features;
  cluster::DistanceCache cache;
  std::unique_ptr<util::ThreadPool> pool;
  std::vector<std::vector<std::size_t>> assignments;  // one per swept k
};

/// core::analyze_snapshots, step by step, with a span per layer call.
void composed_analysis(const std::vector<gmon::ProfileSnapshot>& snapshots,
                       const core::PipelineConfig& cfg, Tracer& t,
                       Outcome& out, std::vector<SilhouetteProbe>& probes) {
  std::vector<gmon::ProfileSnapshot> round_tripped;
  if (cfg.text_round_trip) {
    gmon::FlatTextOptions opts;
    opts.sample_period_ns = cfg.sample_period_ns;
    round_tripped.reserve(snapshots.size());
    for (const auto& snap : snapshots) {
      std::string text;
      {
        ScopedSpan s(&t, "gmon.format");
        text = gmon::format_flat_profile(snap, opts);
      }
      gmon::ProfileSnapshot parsed;
      {
        ScopedSpan s(&t, "gmon.parse");
        parsed = gmon::parse_flat_profile(text);
      }
      parsed.set_seq(snap.seq());
      parsed.set_timestamp_ns(snap.timestamp_ns());
      round_tripped.push_back(std::move(parsed));
    }
  }
  core::IntervalData intervals;
  {
    ScopedSpan s(&t, "core.differencing");
    intervals = core::IntervalData::from_cumulative(
        cfg.text_round_trip ? round_tripped : snapshots);
  }
  SilhouetteProbe probe;
  {
    ScopedSpan s(&t, "core.features");
    probe.features = core::build_features(intervals, cfg.features);
  }
  probe.pool = util::ThreadPool::create(cfg.threads);
  const cluster::Matrix& points = probe.features.features;
  {
    ScopedSpan s(&t, "cluster.distance_cache");
    const std::size_t n = points.rows();
    if (n >= 2 && cluster::DistanceCache::bytes_required(n) <= kCacheBudget) {
      probe.cache = cluster::DistanceCache::build(points, probe.pool.get());
    }
  }
  const cluster::DistanceCache* cache =
      probe.cache.size() > 0 ? &probe.cache : nullptr;
  core::PhaseDetection det;
  {
    ScopedSpan s(&t, "core.detect");
    cluster::KMeansConfig base;
    base.n_init = cfg.detector.kmeans_restarts;
    base.max_iters = cfg.detector.kmeans_max_iters;
    base.seed = cfg.detector.seed;
    {
      ScopedSpan sweep(&t, "cluster.sweep_k");
      det.sweep = cluster::sweep_k(points, cfg.detector.k_max, base,
                                   probe.pool.get(), cache);
    }
    const cluster::KSweepEntry& chosen =
        cluster::select_k(det.sweep, cfg.detector.selection);
    det.num_phases = chosen.k;
    det.assignments = chosen.result.assignments;
    det.centroids = chosen.result.centroids;
    det.silhouette = chosen.silhouette;
    det.phase_intervals.assign(det.num_phases, {});
    for (std::size_t i = 0; i < det.assignments.size(); ++i) {
      det.phase_intervals[det.assignments[i]].push_back(i);
    }
  }
  core::RankTable ranks;
  {
    ScopedSpan s(&t, "core.rank");
    ranks = core::RankTable::compute(intervals, det);
  }
  core::SiteSelectionResult sites;
  {
    ScopedSpan s(&t, "core.sites");
    sites = core::select_sites(intervals, probe.features, det, ranks,
                               cfg.selector);
    if (cfg.merge_phases) sites = core::merge_phases_by_sites(sites, intervals);
  }
  out.fold(intervals, det, sites);
  for (const auto& e : det.sweep.entries) {
    probe.assignments.push_back(e.result.assignments);
  }
  probes.push_back(std::move(probe));
}

struct Samples {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::size_t ok = 0;
  double elapsed_s = 0;
  Outcome last;
};

struct Measured {
  Samples plain;   // through the library facade, untraced
  Samples traced;  // the composed pipeline with spans
};

/// Runs operations until `seconds` have passed (at least kMinOps),
/// comparing every checksum with `expected`. With a tracer, every second
/// operation is a traced one, so both kinds see the same host conditions.
Measured measure(const Input& in, const core::PipelineConfig& cfg, bool wide,
                 double seconds, std::uint64_t expected, Tracer* tracer,
                 RunResult& res) {
  constexpr std::size_t kMinOps = 6;
  Measured m;
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t op = 0;
  for (std::size_t n = 0; n < kMinOps || now_ns() < deadline; ++n) {
    ++res.attempted;
    const bool traced = tracer != nullptr && n % 2 == 1;
    Samples& s = traced ? m.traced : m.plain;
    Outcome out;
    std::vector<SilhouetteProbe> probes;
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    try {
      if (!traced) {
        out = facade_op(in, cfg, wide);
      } else {
        tracer->set_op(++op);
        ScopedSpan root(tracer, "op");
        if (wide) {
          std::vector<gmon::ProfileSnapshot> snaps;
          {
            ScopedSpan load(tracer, "gmon.load");
            snaps = gmon::load_binary_dumps(in.dump_dir);
          }
          composed_analysis(snaps, cfg, *tracer, out, probes);
        } else {
          for (const auto& snaps : in.apps) {
            composed_analysis(snaps, cfg, *tracer, out, probes);
          }
        }
      }
    } catch (const std::exception& e) {
      res.fail(std::string("analysis threw: ") + e.what());
      continue;
    }
    s.wall_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    s.cpu_s.push_back(process_cpu_s() - cpu0);
    // The silhouette probe runs outside the operation's window: it
    // prices mean_silhouette once per swept k, which sweep_k also does
    // internally.
    for (auto& p : probes) {
      const cluster::DistanceCache* cache =
          p.cache.size() > 0 ? &p.cache : nullptr;
      for (const auto& assignments : p.assignments) {
        ScopedSpan sil(tracer, "cluster.silhouette");
        (void)cluster::mean_silhouette(p.features.features, assignments,
                                       cache, p.pool.get());
      }
    }
    if (out.checksum.value() != expected) {
      res.fail("checksum mismatch: operation result differs from the "
               "reference analysis");
    } else {
      ++s.ok;
    }
    s.last = out;
  }
  m.plain.elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
  return m;
}

}  // namespace

RunResult run_offline(const Options& opt) {
  RunResult res;
  const bool wide = opt.workload == "wide_trace";
  const core::PipelineConfig cfg = config_for(wide);

  // Set-up, repeated so setup_s is a median.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  Input in;
  for (int r = 0; r < kSetups; ++r) {
    const std::uint64_t t0 = now_ns();
    in = make_input(opt, wide);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // DESIGN section 6: the thread count never changes an answer, so an
  // analysis at the other thread count (serial <-> every hardware
  // thread) gives the reference checksum for every operation.
  core::PipelineConfig other = cfg;
  other.threads = cfg.threads == 1 ? 0 : 1;
  const std::uint64_t expected = facade_op(in, other, wide).checksum.value();

  if (!opt.trace) {
    const Samples s =
        measure(in, cfg, wide, opt.seconds, expected, nullptr, res).plain;
    res.set("setup_s", median(setup_s), "s");
    res.set("op_p50_ms", median(s.wall_s) * 1e3, "ms");
    res.set("op_cpu_ms", median(s.cpu_s) * 1e3, "ms");
    res.set("goodput_per_s", static_cast<double>(s.ok) / s.elapsed_s, "1/s");
  } else {
    Tracer tracer(true);
    const Measured m =
        measure(in, cfg, wide, opt.seconds, expected, &tracer, res);
    const Samples& traced = m.traced;
    TraceSet ts;
    ts.add(tracer);
    const double analyze_s = median(m.plain.wall_s);
    res.set("analyze_ms", analyze_s * 1e3, "ms");
    res.set("analyze_cpu_ms", median(m.plain.cpu_s) * 1e3, "ms");
    res.set("obs.trace_overhead_frac",
            median(traced.wall_s) / analyze_s - 1.0, "ratio");
    res.set("gmon.format_us", ts.median_self_ns("gmon.format") / 1e3, "us");
    res.set("gmon.parse_us", ts.median_self_ns("gmon.parse") / 1e3, "us");
    res.set("gmon.load_ms", ts.median_op_self_ns("gmon.load") / 1e6, "ms");
    for (const char* layer :
         {"core.differencing", "core.features", "core.detect", "core.rank",
          "core.sites", "cluster.distance_cache", "cluster.sweep_k",
          "cluster.silhouette"}) {
      res.set(std::string(layer) + "_ms", ts.median_op_self_ns(layer) / 1e6,
              "ms");
    }
    res.set("cluster.distance_cache_mb", traced.last.cache_mb, "MB");
    res.set("core.intervals", traced.last.intervals, "count");
    res.set("core.functions", traced.last.functions, "count");
    res.set("core.phases", traced.last.phases, "count");
    res.set("core.sites", traced.last.sites, "count");
    if (!ts.write_csv(opt.work_dir + "/trace-" + opt.workload + ".csv")) {
      res.notes.push_back("could not write the span dump");
    }
  }
  res.set("peak_rss_mb", peak_rss_mb(), "MiB");
  return res;
}

}  // namespace perfbench
