#!/usr/bin/env python3
"""Steadiness record: run each workload several times and print the spread.

    python3 perfbench/steadiness.py [--runs 10] [--seconds 25]
                                    [--workloads a,b] [--workers 2,4]

(--workloads= with an empty list runs only the --workers rows.)

Each run is one `run.py --trace 0` invocation with its own --seed.  For
every end-to-end metric the table gives the median and quartiles of the
runs' values (statistics.quantiles, n=4) and the spread, (Q3 - Q1) /
median, beside the bound BENCHMARK.json sets.  --workers additionally
repeats pipeline_64_observed with that many parallel-engine workers, to
record why the benchmark keeps it at one.  Prints Markdown.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, workers):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--workers", str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=ROOT)
    if proc.returncode != 0:
        sys.exit("run.py failed on %s seed %d" % (workload, seed))
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit("%s seed %d: %d of %d operations failed"
                 % (workload, seed, res["failed"], res["attempted"]))
    return res


def table(label, runs, spec):
    rows = ["| %s | metric | median | Q1 | Q3 | spread | bound |" % label,
            "|---|---|---|---|---|---|---|"]
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        rows.append("| | %s (%s) | %.5g | %.5g | %.5g | %.3f | %.2f |" % (
            m["name"], m["unit"], statistics.median(vals), q1, q3,
            (q3 - q1) / statistics.median(vals), m["bound"]))
    ops = sum(r["attempted"] for r in runs)
    rows.append("| | operations attempted / failed | %d / %d | | | | |" % (
        ops, sum(r["failed"] for r in runs)))
    return "\n".join(rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--workers", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w]
                 if args.workloads is not None
                 else [w["name"] for w in spec["workloads"]])
    variants = [(w, 1) for w in workloads]
    variants += [("pipeline_64_observed", int(n))
                 for n in args.workers.split(",") if n]
    print("%d runs per row, seeds 1..%d, %g s each.\n"
          % (args.runs, args.runs, seconds))
    for workload, workers in variants:
        runs = [run_once(workload, seed, seconds, workers)
                for seed in range(1, args.runs + 1)]
        label = workload if workers == 1 else "%s, %d workers" % (
            workload, workers)
        print(table(label, runs, spec))
        print("\nsim_mips per run: %s\n" % ", ".join(
            "%.4g" % r["metrics"]["sim_mips"]["value"] for r in runs))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
