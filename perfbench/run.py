#!/usr/bin/env python3
"""bpsim's benchmark: build the benchmark binary, run one workload, report.

Run from the root of a bpsim checkout:

  python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 30 --trace 0

builds perfbench/ (and the engine sources it links) into .bench_build/,
or into $CARGO_TARGET_DIR when that is set, runs it, writes the
full record (host fingerprint, every metric, sample counts) to
<build>/results/ or --out, and prints each metric by name with its unit.
The last line of stdout is the result line BENCHMARK.json describes:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  A failed request or a response that fails
verification makes the run exit non-zero.

Two more modes work on result files:

  python3 perfbench/run.py collect --workload all --seeds 1-10 --out DIR
  python3 perfbench/run.py compare OLD NEW [--within-bounds]

collect runs every named workload once per seed and prints each
end-to-end metric's median and spread (interquartile range over
median).  compare prints, per workload and metric, both sides' median
and quartiles, the share of pairs the new side wins, and a verdict:
improved, no worse, regressed or unresolved.
"""

import argparse
import datetime
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_FILE = os.path.join(ROOT, "BENCHMARK.json")
# Each run must end within the contract's 180 s; leave room to report.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_bench():
    with open(BENCH_FILE) as f:
        return json.load(f)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Configure once, then build the benchmark binary and the daemon."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    binary = os.path.join(out, "perfbench")
    server = os.path.join(out, "bpsim", "examples", "sweep_server")
    for path in (binary, server):
        if not os.access(path, os.X_OK):
            raise RuntimeError("build did not produce " + path)
    return binary, server


def source_identity():
    """The git commit when there is one, and a digest of the sources the
    benchmark builds either way (a checkout may not be a repository)."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_binary(binary, server, args):
    scratch = os.path.relpath(os.path.join(build_dir(), "run-%d" % os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", server, "--scratch", scratch]
    if args.branches:
        cmd += ["--branches", str(args.branches)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("benchmark exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def select_metrics(bench, record, trace):
    """The metrics BENCHMARK.json names for this mode, with their units
    checked against what the benchmark measured."""
    wanted = bench["per_layer" if trace else "end_to_end"]
    measured = record["metrics"]
    selected = {}
    for spec in wanted:
        got = measured.get(spec["name"])
        if got is None:
            raise RuntimeError("benchmark did not report " + spec["name"])
        if got["unit"] != spec["unit"]:
            raise RuntimeError("%s: measured unit %s, BENCHMARK.json unit %s"
                               % (spec["name"], got["unit"], spec["unit"]))
        value = got["value"]
        if value is None or not math.isfinite(value):
            raise RuntimeError(spec["name"] + " is not a finite number")
        selected[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return selected


def run_once(args):
    bench = load_bench()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise RuntimeError("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    binary, server = build()
    record = run_binary(binary, server, args)
    metrics = select_metrics(bench, record, args.trace)
    commit, digest = source_identity()
    host = dict(record["host"], git_commit=commit, source_digest=digest)
    result = {
        "correct": record["failed"] == 0 and record["attempted"] >= 1,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    full = dict(record, host=host, seconds=args.seconds,
                recorded=datetime.datetime.now(datetime.timezone.utc).isoformat(),
                result=result)
    out = args.out or os.path.join(
        build_dir(), "results", "%s-seed%d-trace%d.json"
        % (args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)

    print("host: %s, nproc %s, simd %s, %s build (%s), commit %s, sources %s"
          % (host["cpu_model"], host["nproc"], host["simd_target"],
             host["build_type"], host["compiler"], commit or "unknown", digest))
    if not host["optimized"]:
        print("WARNING: non-optimised build; these numbers are not performance evidence")
    print("workload %s, seed %d, trace %d: %d attempted, %d failed (failed_frac %.4g)"
          % (args.workload, args.seed, args.trace, record["attempted"],
             record["failed"], record["failed"] / max(1, record["attempted"])))
    for problem in record["problems"]:
        print("  problem: " + problem)
    for name, m in metrics.items():
        print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))
    print("record: " + os.path.relpath(out))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------- analysis

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_results(path):
    """Result files under @path (a file or a directory), as records."""
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        if f.endswith(".json"))
    records = []
    for name in files:
        with open(name) as f:
            rec = json.load(f)
        if isinstance(rec, dict) and "result" in rec and rec.get("trace") == 0:
            records.append(rec)
    return records


def by_workload(records):
    groups = {}
    for rec in records:
        groups.setdefault(rec["workload"], []).append(rec)
    for recs in groups.values():
        recs.sort(key=lambda r: r["seed"])
    return groups


def values_of(recs, name):
    return [r["result"]["metrics"][name]["value"] for r in recs
            if name in r["result"]["metrics"]]


def compare(args):
    bench = load_bench()
    old, new = by_workload(load_results(args.old)), by_workload(load_results(args.new))
    out_of_bounds = regressed = False
    for workload in sorted(set(old) & set(new)):
        print("workload %s: %d old runs, %d new runs"
              % (workload, len(old[workload]), len(new[workload])))
        print("  %-22s %-32s %-32s %5s %8s  %s" % (
            "metric", "old median [q1, q3]", "new median [q1, q3]",
            "won", "delta", "verdict"))
        for spec in bench["end_to_end"]:
            a = values_of(old[workload], spec["name"])
            b = values_of(new[workload], spec["name"])
            if not a or not b:
                continue
            lower = spec["better"] == "lower"
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            oq, nq = quartiles(a), quartiles(b)
            pairs = list(zip(a, b))
            won = sum(1 for x, y in pairs if better(y, x)) / len(pairs)
            # Relative change of the median, positive when worse.
            delta = (nq[1] - oq[1]) / oq[1] if oq[1] else 0.0
            worse_by = delta if lower else -delta
            spread = max(oq[2] - oq[0], nq[2] - nq[0]) / oq[1] if oq[1] else 0.0
            all_better = all(better(y, x) for x in a for y in b)
            if (won >= 0.9 and abs(nq[1] - oq[1]) > oq[2] - oq[0]
                    and better(nq[1], oq[1])):
                verdict = "improved"
            elif spread > spec["bound"] and not all_better:
                verdict = "unresolved"
            elif worse_by > spec["bound"]:
                verdict = "regressed"
                regressed = True
            else:
                verdict = "no worse"
            if abs(delta) > spec["bound"]:
                out_of_bounds = True
            fmt = lambda q: "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
            print("  %-22s %-32s %-32s %4.0f%% %+7.1f%%  %s" % (
                spec["name"], fmt(oq), fmt(nq), 100 * won, 100 * delta, verdict))
    if args.within_bounds:
        print("within bounds" if not out_of_bounds else "OUT OF BOUNDS")
        return 1 if out_of_bounds else 0
    return 1 if regressed else 0


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    bench = load_bench()
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else args.workload.split(","))
    seconds = args.seconds or bench["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    status = 0
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            out = os.path.join(args.out, "%s-seed%d.json" % (workload, seed))
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                   "--out", out]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            log("%s seed %d: exit %d %s" % (workload, seed, proc.returncode, last[0]))
            status |= proc.returncode
    groups = by_workload(load_results(args.out))
    for workload in workloads:
        recs = groups.get(workload, [])
        failed = sum(r["failed"] for r in recs)
        attempted = sum(r["attempted"] for r in recs)
        print("workload %s: %d runs, failed_frac %.4g (%d of %d requests)"
              % (workload, len(recs), failed / max(1, attempted), failed, attempted))
        for spec in bench["end_to_end"]:
            vals = values_of(recs, spec["name"])
            if len(vals) < 2:
                continue
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = "" if spread < spec["bound"] / 3 else "  <-- spread >= bound/3"
            print("  %-22s median %12.6g %-5s spread %6.2f%% (bound %g)%s" % (
                spec["name"], q2, spec["unit"], 100 * spread, spec["bound"], flag))
    return status


def main(argv):
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("old")
        p.add_argument("new")
        p.add_argument("--within-bounds", action="store_true",
                       help="exit non-zero when any median moves by more than its bound")
        return compare(p.parse_args(argv[1:]))
    if argv[:1] == ["collect"]:
        p = argparse.ArgumentParser(prog="run.py collect")
        p.add_argument("--workload", default="all")
        p.add_argument("--seeds", default="1-10")
        p.add_argument("--seconds", type=int, default=0)
        p.add_argument("--out", required=True)
        return collect(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", help="result file (default: <build>/results/)")
    p.add_argument("--branches", type=int, default=0,
                   help="trace length override; the benchmark's tests shrink it")
    args = p.parse_args(argv)
    try:
        return run_once(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        log("perfbench: " + str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
