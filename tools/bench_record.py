#!/usr/bin/env python3
"""Record or compare the end-to-end benchmark (perfbench) of this checkout.

Usage, from the root of the repository:

    python3 tools/bench_record.py record [--workloads w,...] [--runs n]
        [--seed n] [--base <sha>] [--stages]
    python3 tools/bench_record.py compare [--workloads w,...] [--runs n]

record runs `python3 perfbench/run.py` n times (n >= 5) per workload and
writes BENCH_<workload>.json at the repo root: for every end-to-end
metric BENCHMARK.json declares, the median, quartiles, IQR and n, plus
the git sha, CPU model, SIMD tier, build type and run length. Every run
lasts BENCHMARK.json's run_seconds. The SIMD tier is the one the
checkout's own libraries pick on this host, read from tools/stage_probe
built against that checkout. With
--base, a checkout of that commit is unpacked under .bench_build/ (git
archive, not a git worktree) and its runs alternate with this
checkout's, base first on even pairs and change first on odd ones; the
file then also holds the base's summary and the change/base ratio of
each median. --stages also times the offline workloads' analysis
stages with tools/stage_probe (the facade's pipeline_stage_ns
histograms) after every perfbench run of that checkout.

compare runs this checkout n times and prints each metric's move against
the committed BENCH_<workload>.json. It never gates: it exits non-zero
only when a run fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OFFLINE = ("paper_apps", "wide_trace")


def log(msg):
    print(f"bench_record: {msg}", file=sys.stderr, flush=True)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def build_type(checkout):
    cache = os.path.join(checkout, ".bench_build", "perfbench",
                         "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "Release"


def summarize(values):
    """Median, quartiles (inclusive method), IQR and n of a sample, and
    the runs themselves in run order."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, med, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = med = q3 = ordered[0]
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values), "runs": list(values)}


def unpack_base(sha):
    """A plain copy of commit `sha` under .bench_build/, reused later."""
    full = git("rev-parse", "--verify", sha + "^{commit}")
    dest = os.path.join(ROOT, ".bench_build", "base-" + full[:12])
    if not os.path.exists(os.path.join(dest, "perfbench", "run.py")):
        os.makedirs(dest, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", full], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit(f"bench_record: git archive {full} failed")
    return full, dest


def run_perfbench(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {checkout} ({workload})")
    return json.loads(lines[-1])


def simd_tier(probe):
    """The tier cluster::simd::detected_tier() of the probe's checkout
    picks on this host."""
    out = subprocess.run([probe, "tier"], check=True, stdout=subprocess.PIPE,
                         text=True).stdout.strip().splitlines()[-1]
    return json.loads(out)["simd_tier"]


def stage_probe(checkout):
    """Builds tools/stage_probe (this checkout's source) against
    `checkout`'s libraries; returns the binary's path."""
    build = os.path.join(checkout, ".bench_build", "stage_probe")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "tools",
                                                     "stage_probe"),
                        "-B", build, "-DCMAKE_BUILD_TYPE=Release",
                        "-DINCPROF_ROOT=" + checkout],
                       check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build, "--target", "stage_probe",
                    "-j", "4"], check=True, stdout=subprocess.DEVNULL)
    return os.path.join(build, "stage_probe")


def run_stages(probe, checkout, workload, seed):
    cmd = [probe, workload]
    if workload == "wide_trace":
        cmd.append(os.path.join(checkout, ".bench_build", "work",
                                "wide_trace"))
    else:
        cmd += ["--seed", str(seed)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         text=True).stdout.strip().splitlines()[-1]
    return {k: v["median"] for k, v in json.loads(out)["stages_ms"].items()}


class Side:
    """Every run of one checkout on one workload."""

    def __init__(self, checkout, sha):
        self.checkout = checkout
        self.sha = sha
        self.results = []
        self.stages = []
        self.probe = stage_probe(checkout)
        self.tier = simd_tier(self.probe)
        self.time_stages = False

    def run(self, workload, args, seconds):
        result = run_perfbench(self.checkout, workload, args.seed, seconds)
        self.results.append(result)
        if self.time_stages:
            self.stages.append(run_stages(self.probe, self.checkout,
                                          workload, args.seed))
        return result

    def summary(self, spec):
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in self.results
                      if m["name"] in r["metrics"]]
            if values:
                metrics[m["name"]] = dict(summarize(values), unit=m["unit"],
                                          better=m["better"])
        out = {
            "git_sha": self.sha,
            "simd_tier": self.tier,
            "all_correct": all(r["correct"] is True for r in self.results),
            "failed_ops": sum(r["failed"] for r in self.results),
            "attempted_ops": sum(r["attempted"] for r in self.results),
            "metrics": metrics,
        }
        if self.stages:
            out["stages_ms"] = {
                name: summarize([s[name] for s in self.stages if name in s])
                for name in self.stages[0]}
        return out


def host_info():
    return {"cpu_model": cpu_model(), "cpus": os.cpu_count(),
            "machine": platform.machine()}


def record(args, spec):
    change_sha = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    base = None
    if args.base:
        base_sha, base_dir = unpack_base(args.base)
    for workload in args.workloads:
        change = Side(ROOT, change_sha)
        sides = [change]
        if args.base:
            base = Side(base_dir, base_sha)
            sides.insert(0, base)
        for side in sides:
            side.time_stages = args.stages and workload in OFFLINE
        for i in range(args.runs):
            order = sides if i % 2 == 0 else sides[::-1]
            for side in order:
                r = side.run(workload, args, spec["run_seconds"])
                name = "base" if side is base else "change"
                log(f"{workload} {i + 1}/{args.runs} {name}: op_p50_ms "
                    f"{r['metrics'].get('op_p50_ms', {}).get('value')}")
        doc = {
            "workload": workload,
            "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
            "host": host_info(),
            "build_type": build_type(ROOT),
            "run_seconds": spec["run_seconds"],
            "seed": args.seed,
            "runs": args.runs,
            "worktree_dirty": dirty,
        }
        doc.update(change.summary(spec))
        if base is not None:
            doc["base"] = base.summary(spec)
            doc["change_over_base"] = {
                name: m["median"] / doc["base"]["metrics"][name]["median"]
                for name, m in doc["metrics"].items()
                if doc["base"]["metrics"].get(name, {}).get("median")}
            if "stages_ms" in doc and "stages_ms" in doc["base"]:
                doc["stages_change_over_base"] = {
                    name: s["median"] / doc["base"]["stages_ms"][name]["median"]
                    for name, s in doc["stages_ms"].items()
                    if doc["base"]["stages_ms"].get(name, {}).get("median")}
        path = os.path.join(ROOT, f"BENCH_{workload}.json")
        with open(path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        log(f"wrote {os.path.relpath(path, ROOT)}")


def compare(args, spec):
    for workload in args.workloads:
        path = os.path.join(ROOT, f"BENCH_{workload}.json")
        try:
            with open(path) as f:
                committed = json.load(f)
        except OSError:
            print(f"{workload}: no committed BENCH_{workload}.json")
            continue
        if committed.get("run_seconds") != spec["run_seconds"]:
            print(f"{workload}: the committed file ran "
                  f"{committed.get('run_seconds')} s runs, BENCHMARK.json "
                  f"fixes {spec['run_seconds']} s; not comparable")
            continue
        args.seed = committed.get("seed", args.seed)
        side = Side(ROOT, git("rev-parse", "HEAD"))
        for _ in range(args.runs):
            side.run(workload, args, spec["run_seconds"])
        now = side.summary(spec)
        print(f"{workload} ({committed['git_sha'][:12]} -> "
              f"{now['git_sha'][:12]}, n={args.runs}, "
              f"correct={now['all_correct']})")
        for name, old in committed["metrics"].items():
            new = now["metrics"].get(name)
            if new is None:
                continue
            move = new["median"] / old["median"] - 1 if old["median"] else 0
            inside = old["q1"] <= new["median"] <= old["q3"]
            print(f"  {name:15s} {old['median']:12.4f} -> "
                  f"{new['median']:12.4f} {old.get('unit', '')}"
                  f"  {move:+7.1%}  {'within' if inside else 'outside'}"
                  f" the committed IQR")


def main():
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("record", "compare"))
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated subset of " + ", ".join(names))
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--base", help="commit to alternate runs with")
    parser.add_argument("--stages", action="store_true",
                        help="also time the offline analysis stages")
    args = parser.parse_args()
    args.workloads = args.workloads.split(",")
    for w in args.workloads:
        if w not in names:
            parser.error(f"unknown workload {w!r}")
    if args.runs < 5 and args.mode == "record":
        parser.error("record needs --runs >= 5")
    if args.runs < 1:
        parser.error("--runs must be positive")
    try:
        (record if args.mode == "record" else compare)(args, spec)
    except (RuntimeError, subprocess.CalledProcessError) as e:
        log(str(e))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
