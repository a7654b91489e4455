#!/usr/bin/env python3
"""Smoke test of the benchmark itself: python3 perfbench/test_smoke.py

Runs every workload at the tiny `smoke` size, untraced and traced, through
perfbench/run.py (so it also builds), and checks the result line against
BENCHMARK.json: metric names and units, output checks passed, and the sample
discipline (latency percentiles only where there are enough samples).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
LATENCY = ["run_ack_ms.p50", "run_ack_ms.p99",
           "run_visible_ms.p50", "run_visible_ms.p99"]


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args):
    done = subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    return done.returncode, done.stdout.splitlines(), done.stderr


class SmokeTest(unittest.TestCase):
    spec = bench_spec()

    def result_of(self, workload, trace):
        code, lines, err = run("--workload", workload, "--seed", "3",
                               "--seconds", "1", "--trace", trace,
                               "--size", "smoke")
        self.assertEqual(code, 0, err)
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result, lines

    def check_metrics(self, metrics, expected):
        units = {m["name"]: m["unit"] for m in expected}
        self.assertEqual(set(metrics), set(units))
        for name, metric in metrics.items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float))

    def test_untraced_metrics_and_checks(self):
        for workload in self.spec["workloads"]:
            name = workload["name"]
            with self.subTest(workload=name):
                result, lines = self.result_of(name, "0")
                self.check_metrics(result["metrics"], self.spec["end_to_end"])
                metrics = result["metrics"]
                self.assertEqual(metrics["apps_ok_frac"]["value"], 1)
                self.assertEqual(metrics["reports_kept_frac"]["value"], 1)
                for metric in metrics.values():
                    self.assertGreater(metric["value"], 0)
                # Per-run latency percentiles: collector_live only, each
                # printed with its sample count, p99 from >= 1000 samples.
                for latency in LATENCY:
                    note = [l for l in lines if l.startswith(f"# {latency} =")]
                    if name != "collector_live":
                        self.assertEqual(note, [], latency)
                        continue
                    self.assertEqual(len(note), 1, latency)
                    count = int(note[0].split("(n=")[1].rstrip(")"))
                    self.assertGreaterEqual(count, 1000)

    def test_traced_metrics_and_checks(self):
        for workload in self.spec["workloads"]:
            name = workload["name"]
            with self.subTest(workload=name):
                result, lines = self.result_of(name, "1")
                self.check_metrics(result["metrics"], self.spec["per_layer"])
                self.assertTrue(any("span self times sum to the traced wall "
                                    "time: ok" in l for l in lines))

    def test_name_filter_runs_every_match(self):
        code, lines, err = run("--filter", "study_", "--seconds", "1",
                               "--size", "smoke")
        self.assertEqual(code, 0, err)
        results = [json.loads(l) for l in lines if l.startswith("{")]
        self.assertEqual(len(results), 2)

    def test_refuses_unknown_workload(self):
        code, lines, _ = run("--workload", "no_such_workload", "--size",
                             "smoke")
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main()
