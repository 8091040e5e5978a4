#!/usr/bin/env python3
"""Self-test of the kacc host-time benchmark, in smoke mode.

    python3 perfbench/test_bench.py

Checks that every workload builds, runs and verifies, and prints exactly
the metric names and units that BENCHMARK.json declares, end-to-end metrics
non-zero. Traced runs must write spans that nest: each child lies inside its
parent and the children never add up to more than the parent. On
native-latency, coll.self_us plus the Comm-layer times must account for the
traced call span. The simulator's exact metric (virt_geomean_us) must repeat
bit for bit for one seed.
"""
import collections
import csv
import glob
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as runner  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# sim-sweep is runnable and verified but not listed in BENCHMARK.json (see
# README.md, "Stability"); it is tested like the listed workloads.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["sim-sweep"]
EPS_US = 0.002  # spans are written with 0.001 us resolution


def bench(workload, trace, seed=7, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)


class BenchmarkTest(unittest.TestCase):
    def result(self, workload, trace, seed=7):
        p = bench(workload, trace, seed)
        self.assertEqual(p.returncode, 0, p.stdout[-1500:] + p.stderr[-1500:])
        lines = p.stdout.splitlines()
        for line in lines[:-1]:
            self.assertTrue(line.startswith("#"), line)
        res = json.loads(lines[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        return res

    def assert_names(self, res, section):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        self.assertEqual(got, want)

    def assert_spans_nest(self, workload):
        files = glob.glob(os.path.join(runner.build_dir(), "trace", workload,
                                       "spans-*.csv"))
        self.assertTrue(files, "no span files for " + workload)
        for path in files:
            with open(path) as f:
                rows = list(csv.DictReader(f))
            self.assertTrue(rows, path)
            spans = [(float(r["t0_us"]), float(r["t1_us"]), int(r["parent"]))
                     for r in rows]
            child_us = collections.defaultdict(float)
            child_n = collections.Counter()
            for i, (t0, t1, parent) in enumerate(spans):
                self.assertLessEqual(t0, t1, "%s row %d" % (path, i))
                if parent < 0:
                    continue
                self.assertLess(parent, i, "%s row %d" % (path, i))
                p0, p1, _ = spans[parent]
                self.assertGreaterEqual(t0, p0 - EPS_US, "%s row %d" % (path, i))
                self.assertLessEqual(t1, p1 + EPS_US, "%s row %d" % (path, i))
                child_us[parent] += t1 - t0
                child_n[parent] += 1
            for parent, total in child_us.items():
                p0, p1, _ = spans[parent]
                self.assertLessEqual(total, p1 - p0 + EPS_US * child_n[parent],
                                     "%s: children exceed span %d" % (path, parent))

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = self.result(w, 0)
                self.assert_names(res, "end_to_end")
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics_and_spans(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = self.result(w, 1)
                self.assert_names(res, "per_layer")
                self.assert_spans_nest(w)
                m = {k: v["value"] for k, v in res["metrics"].items()}
                self.assertEqual(m["fail_ratio"], 0)
                if w == "native-latency":
                    parts = m["coll.self_us"] + sum(
                        m[k] for k in ("cma.busy_us", "shm.ctrl_us",
                                       "shm.sync_wait_us", "shm.pipe_us",
                                       "runtime.copy_us", "runtime.misc_us"))
                    self.assertGreater(m["coll.call_us"], 0)
                    self.assertAlmostEqual(parts / m["coll.call_us"], 1.0,
                                           places=6)

    def test_virtual_time_repeats_exactly(self):
        for w in ("sim-sweep", "native-latency"):
            with self.subTest(workload=w):
                a = self.result(w, 0, seed=11)["metrics"]["virt_geomean_us"]
                b = self.result(w, 0, seed=11)["metrics"]["virt_geomean_us"]
                self.assertEqual(a["value"], b["value"])

    def test_rejects_unknown_workload(self):
        p = bench("no-such-workload", 0)
        self.assertNotEqual(p.returncode, 0)


if __name__ == "__main__":
    unittest.main()
