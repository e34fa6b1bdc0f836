#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes:

    python3 perfbench/test_run.py

Checks that every workload prints every metric BENCHMARK.json names, with
its unit, in both the untraced and the traced run; that a planted digest
mismatch is counted as failed operations rather than timed; and that a run
asking for more host threads than the host has is refused.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, *extra, trace=0):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny", *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=900)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricTables(unittest.TestCase):
    def test_run_py_computes_what_benchmark_json_declares(self):
        self.assertEqual(
            {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            run.END_TO_END)
        per_layer = {name: unit for name, (unit, _) in run.PER_LAYER.items()}
        per_layer[run.TRACE_OVERHEAD[0]] = run.TRACE_OVERHEAD[1]
        self.assertEqual(
            {m["name"]: m["unit"] for m in SPEC["per_layer"]}, per_layer)
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))


class TinyPass(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, declared in ((0, SPEC["end_to_end"]),
                                    (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload, trace=trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = result(proc)
                    self.assertEqual(
                        set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(
                        {n: m["unit"] for n, m in res["metrics"].items()},
                        {m["name"]: m["unit"] for m in declared})
                    if trace == 0:
                        for name, m in res["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                    else:
                        self.assertGreaterEqual(
                            res["metrics"]["bench.span_coverage"]["value"], 0.9)

    def test_planted_digest_mismatch_is_a_failed_operation(self):
        for workload in ("dense_480", "farm_64", "pipeline_64_observed"):
            with self.subTest(workload=workload):
                proc = bench(workload, "--plant-mismatch")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = result(proc)
                self.assertFalse(res["correct"])
                # Only the planted repetition fails: one run, or every
                # request of one farm repetition.
                per_rep = 200 if workload == "farm_64" else 1
                self.assertEqual(res["failed"], per_rep)
                self.assertIn("sim_mips", res["metrics"])


class HostThreads(unittest.TestCase):
    def test_refuses_more_workers_than_host_threads(self):
        too_many = len(os.sched_getaffinity(0)) + 1
        proc = bench("pipeline_64_observed", "--workers", str(too_many))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
