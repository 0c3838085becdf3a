#include "synth.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

namespace perfbench {

namespace {

/// splitmix64: a fixed, portable generator (std distributions are
/// implementation-defined, so they would not pin the inputs).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t s_;
};

struct Activity {
  std::size_t function = 0;
  double share = 0.0;         // of the 1 s interval
  std::int64_t calls = 0;     // per interval; 0 = a long-running loop
};

}  // namespace

std::vector<incprof::gmon::ProfileSnapshot> make_phased_stream(
    const StreamSpec& spec) {
  using incprof::gmon::FunctionProfile;
  using incprof::gmon::ProfileSnapshot;
  // The phase definitions are fixed per shape; the seed drives the phase
  // schedule and the jitter. Every seed thus asks the analysis the same
  // kind of question, at the same cost, about different inputs.
  Rng shape_rng(spec.functions * 1000003ull + spec.phases * 1009ull +
                spec.active);
  Rng rng(spec.seed * 0x2545f4914f6cdd1dull + 0x632be59bd9b4e019ull);
  const std::size_t nf = std::max<std::size_t>(spec.functions, 2);
  const std::size_t np = std::max<std::size_t>(spec.phases, 1);

  // Function 0 is a main loop active in every phase; each phase picks
  // its own active subset of the rest.
  std::vector<std::vector<Activity>> phases(np);
  for (auto& acts : phases) {
    acts.push_back({0, 0.04, 1});
    double total = 0.0;
    for (std::size_t a = 0; a < spec.active; ++a) {
      Activity act;
      act.function = 1 + shape_rng.below(nf - 1);
      act.share = 0.2 + shape_rng.unit();
      act.calls = shape_rng.below(4) == 0
                      ? 0
                      : static_cast<std::int64_t>(1 + shape_rng.below(2000));
      total += act.share;
      acts.push_back(act);
    }
    const double heavy = spec.light > 0 ? 0.84 : 0.92;
    for (std::size_t a = 1; a < acts.size(); ++a) {
      acts[a].share *= heavy / total;
    }
    for (std::size_t a = 0; a < spec.light; ++a) {
      acts.push_back({1 + shape_rng.below(nf - 1),
                      0.08 / static_cast<double>(spec.light),
                      static_cast<std::int64_t>(1 + shape_rng.below(100))});
    }
  }

  char name[32];
  std::vector<std::string> names(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    std::snprintf(name, sizeof name, "kernel_%04zu", f);
    names[f] = name;
  }

  std::vector<std::int64_t> self_ns(nf, 0);
  std::vector<std::int64_t> calls(nf, 0);
  std::vector<ProfileSnapshot> out;
  out.reserve(spec.intervals);
  std::size_t phase = 0;
  std::size_t left = 0;
  for (std::size_t i = 0; i < spec.intervals; ++i) {
    if (left == 0) {
      if (np > 1) phase = (phase + 1 + rng.below(np - 1)) % np;
      left = 16 + rng.below(49);
    }
    --left;
    for (const Activity& act : phases[phase]) {
      const double jitter = 1.0 + 0.1 * (rng.unit() - 0.5);
      self_ns[act.function] +=
          static_cast<std::int64_t>(act.share * jitter * 1e9);
      calls[act.function] += act.calls;
    }
    ProfileSnapshot snap(static_cast<std::uint32_t>(i),
                         static_cast<std::int64_t>(i + 1) * 1'000'000'000);
    for (std::size_t f = 0; f < nf; ++f) {  // names ascend: cheap upserts
      if (self_ns[f] == 0 && calls[f] == 0) continue;
      FunctionProfile fp;
      fp.name = names[f];
      fp.self_ns = self_ns[f];
      fp.inclusive_ns = self_ns[f];
      fp.calls = calls[f];
      snap.upsert(std::move(fp));
    }
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace perfbench
