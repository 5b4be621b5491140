#!/usr/bin/env python3
"""The benchmark's own tests.

  python3 perfbench/test_perfbench.py        (from the checkout root)

They check BENCHMARK.json against the contract, run a tiny-length run of
every workload untraced and traced, and exercise compare on made-up
result sets.  The first test builds the benchmark if needed.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY_BRANCHES = 20000


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def tiny_run(workload, trace, seed=7, out_dir=None):
    """Run one tiny workload; return (exit code, result line, record).

    The cold workloads shrink their traces.  service_mixed keeps its own
    trace length and runs a few seconds: its first touches must be slow
    enough for connections to pile up behind them, or nothing coalesces.
    """
    out_dir = out_dir or tempfile.mkdtemp()
    out = os.path.join(out_dir, "%s-%d-%d.json" % (workload, seed, trace))
    size = (["--seconds", "5"] if workload == "service_mixed" else
            ["--seconds", "1", "--branches", str(TINY_BRANCHES)])
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--out", out] + size,
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines else None
    record = None
    if os.path.exists(out):
        with open(out) as f:
            record = json.load(f)
    return proc.returncode, line, record


class BenchmarkFile(unittest.TestCase):
    def test_contract_shape(self):
        b = bench()
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = []
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))


class TinyRuns(unittest.TestCase):
    """Every workload, untraced and traced, at a tiny trace length."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp()
        cls.runs = {}
        for w in bench()["workloads"]:
            for trace in (0, 1):
                cls.runs[w["name"], trace] = tiny_run(w["name"], trace,
                                                      out_dir=cls.tmp)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def check_line(self, workload, trace, section):
        code, line, record = self.runs[workload, trace]
        self.assertEqual(code, 0, record and record.get("problems"))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        self.assertGreaterEqual(line["attempted"], 100)
        wanted = {m["name"]: m["unit"] for m in bench()[section]}
        self.assertEqual(set(line["metrics"]), set(wanted))
        for name, metric in line["metrics"].items():
            self.assertEqual(metric["unit"], wanted[name], name)
            self.assertIsInstance(metric["value"], (int, float))
        return line["metrics"], record

    def test_untraced_runs_report_every_end_to_end_metric(self):
        for w in bench()["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics, record = self.check_line(w["name"], 0, "end_to_end")
                self.assertEqual(record["metrics"]["failed_frac"]["value"], 0)
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)
                self.assertGreaterEqual(record["details"]["latency_samples"], 100)
                self.assertIn("cpu_model", record["host"])
                self.assertIn("simd_target", record["host"])
                self.assertTrue(record["host"]["optimized"])

    def test_traced_runs_stress_the_chosen_layers(self):
        layers = {w["name"]: self.check_line(w["name"], 1, "per_layer")[0]
                  for w in bench()["workloads"]}
        v = {w: {n: m["value"] for n, m in ms.items()} for w, ms in layers.items()}
        paper, grid, service = v["paper_cold"], v["grid_cold"], v["service_mixed"]
        self.assertGreater(paper["sim.fallback_jobs"], 0)
        self.assertEqual(paper["sim.fused_groups"], 0)
        self.assertEqual(grid["sim.fallback_jobs"], 0)
        self.assertGreater(grid["sim.fused_groups"], 0)
        self.assertGreater(grid["sim.model_groups"], 0)
        for cold in (paper, grid):
            self.assertEqual(cold["cache.hits"], 0)
            for name in ("workload.generate_s", "trace.hash_s", "trace.intern_s",
                         "sim.prepare_s", "sim.plan_s", "sim.streams_s",
                         "sim.stream_builds", "sim.replay_s", "sim.branch_configs",
                         "sim.session_s", "tracing.overhead_s"):
                self.assertGreater(cold[name], 0, name)
        self.assertGreater(service["cache.hit_ratio"], 0)
        self.assertGreater(service["cache.hits"], 0)
        self.assertGreater(service["cache.misses"], 0)
        self.assertGreater(service["service.coalesced_requests"], 0)
        self.assertGreater(service["service.coalesce_ratio"], 0)
        for name in ("trace.intern_s", "trace.load_s", "trace.file_requests",
                     "cache.lookup_s", "service.parse_s",
                     "service.render_s", "service.response_bytes",
                     "service.drains", "service.submissions",
                     "service.overhead_s", "sim.replay_s"):
            self.assertGreater(service[name], 0, name)
        # The daemon times stores only inside replayed sweeps.
        self.assertEqual(service["cache.store_s"], -1)

    def test_deterministic_counts_repeat_across_seeds(self):
        for workload in ("paper_cold", "grid_cold"):
            with self.subTest(workload=workload):
                _, line, _ = tiny_run(workload, 1, seed=11, out_dir=self.tmp)
                first = self.runs[workload, 1][1]["metrics"]
                for name in ("sim.branch_configs", "sim.fallback_jobs",
                             "sim.fused_groups", "sim.blocks_replayed",
                             "sim.stream_builds"):
                    self.assertEqual(line["metrics"][name]["value"],
                                     first[name]["value"], name)


class Compare(unittest.TestCase):
    def write_set(self, root, workload, values):
        os.makedirs(root, exist_ok=True)
        for seed, (rps, p50) in enumerate(values, 1):
            rec = {"workload": workload, "seed": seed, "trace": 0,
                   "result": {"metrics": {
                       "requests_per_s": {"value": rps, "unit": "1/s"},
                       "latency_p50_ms": {"value": p50, "unit": "ms"}}}}
            with open(os.path.join(root, "%d.json" % seed), "w") as f:
                json.dump(rec, f)

    def verdicts(self, old, new):
        tmp = tempfile.mkdtemp()
        try:
            self.write_set(os.path.join(tmp, "old"), "w", old)
            self.write_set(os.path.join(tmp, "new"), "w", new)
            proc = subprocess.run(
                [sys.executable, RUN, "compare", os.path.join(tmp, "old"),
                 os.path.join(tmp, "new")],
                stdout=subprocess.PIPE, text=True, check=False)
        finally:
            shutil.rmtree(tmp)
        rows = {}
        for line in proc.stdout.splitlines():
            parts = line.split()
            if parts and parts[0] in ("requests_per_s", "latency_p50_ms"):
                rows[parts[0]] = line.split("%")[-1].strip()
        return rows

    def test_verdicts(self):
        steady = [(100 + i % 3, 10 + (i % 3) / 10) for i in range(10)]
        # 30% more throughput, same latency.
        faster = [(130 + i % 3, 10 + (i % 3) / 10) for i in range(10)]
        self.assertEqual(self.verdicts(steady, faster),
                         {"requests_per_s": "improved", "latency_p50_ms": "no worse"})
        # Latency 50% worse.
        slower = [(100 + i % 3, 15 + (i % 3) / 10) for i in range(10)]
        self.assertEqual(self.verdicts(steady, slower)["latency_p50_ms"], "regressed")
        # Spread far wider than any bound: unresolved.
        noisy = [(100 if i % 2 else 160, 10) for i in range(10)]
        self.assertEqual(self.verdicts(noisy, noisy)["requests_per_s"], "unresolved")

    def test_quartiles_match_statistics(self):
        vals = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
        import statistics
        self.assertEqual(run.quartiles(vals), tuple(statistics.quantiles(vals, n=4)))


class Refusal(unittest.TestCase):
    def test_fails_without_the_engine_sources(self):
        tmp = tempfile.mkdtemp()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper_cold",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
        finally:
            shutil.rmtree(tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
