#!/usr/bin/env python3
"""Swallow simulator benchmark: build, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|tiny] [--workers N]
                             [--plant-mismatch]

Builds perfbench/ (and the simulator libraries it links from src/) into
$CARGO_TARGET_DIR, default .bench_build, then repeats one workload, each
repetition in a fresh swallow_perfbench process, until --seconds have been
spent.  Every repetition's simulated outputs are digested; a repetition
whose digest differs from the first one's (or, on pipeline_64_observed,
from an uninterrupted run's) is a failed operation, as is a trapped core
or, on farm_64, a request that did not complete correctly.

--trace 0 reports the end-to-end metrics (medians over the repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics (medians over the traced ones) plus the tracing overhead;
the last traced repetition's spans are kept as Chrome/Perfetto JSON in
<build>/out/trace-<workload>.json.  The last line of stdout is the result
object; the line before it carries provenance.  README.md has the details.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense_480", "ring_480", "farm_64", "pipeline_64_observed")

END_TO_END = {
    "sim_mips": "MIPS",
    "req_per_wall_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(rep):
    return {
        "sim_mips": rep["instructions"] / rep["timed_s"] / 1e6,
        "req_per_wall_s": rep["requests"] / rep["timed_s"],
        "setup_s": rep["setup_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


# Per-layer metric -> (unit, value from one traced repetition).  Times are
# span self times: host seconds inside the named calls, minus nested spans.
def _self(name):
    return lambda rep: rep["self_s"].get(name, 0.0)


def _ratio(num, den, scale=1.0):
    return lambda rep: scale * num(rep) / den(rep) if den(rep) else 0.0


def _count(key):
    return lambda rep: rep[key]


def _coverage(rep):
    wall = sum(rep["self_s"].values())
    return 1.0 - rep["self_s"]["bench.workload"] / wall


PER_LAYER = {
    "board.run_until_s": ("s", _self("board.run_until")),
    "board.build_s": ("s", _self("board.build")),
    "board.bridge_ingress_rejects": ("count", _count("ingress_rejects")),
    "arch.instructions": ("count", _count("instructions")),
    "arch.assemble_s": ("s", _self("arch.assemble")),
    "arch.load_s": ("s", _self("arch.load")),
    "api.start_s": ("s", _self("api.start")),
    "sim.events": ("count", _count("events")),
    "sim.events_per_instr": (
        "ratio", _ratio(_count("events"), _count("instructions"))),
    "sim.ns_per_event": (
        "ns", _ratio(_self("board.run_until"), _count("events"), 1e9)),
    "sim.engine.quanta": ("count", _count("engine_quanta")),
    "sim.engine.messages": ("count", _count("engine_messages")),
    "sim.engine.merges": ("count", _count("engine_merges")),
    "sim.engine.us_per_quantum": (
        "us", _ratio(_self("board.run_until"), _count("engine_quanta"), 1e6)),
    "noc.tokens": ("count", _count("noc_tokens")),
    "noc.packets": ("count", _count("noc_packets")),
    "noc.tokens_per_kinstr": (
        "ratio", _ratio(_count("noc_tokens"), _count("instructions"), 1e3)),
    "energy.settle_s": ("s", _self("energy.settle")),
    "load.deploy_s": ("s", _self("load.deploy")),
    "load.report_s": ("s", _self("load.report")),
    "load.completed": ("count", _count("load_completed")),
    "load.mismatches": ("count", _count("load_mismatches")),
    "load.backpressure_waits": ("count", _count("load_waits")),
    "obs.attach_s": ("s", _self("obs.attach")),
    "obs.finish_s": ("s", _self("obs.finish")),
    "obs.export_s": ("s", _self("obs.export")),
    "obs.trace_events": ("count", _count("trace_events")),
    "obs.dropped": ("count", _count("obs_dropped")),
    "snap.save_s": ("s", _self("snap.save")),
    "snap.write_s": ("s", _self("snap.write")),
    "snap.read_s": ("s", _self("snap.read")),
    "snap.restore_s": ("s", _self("snap.restore")),
    "snap.rebuild_s": ("s", _self("snap.rebuild")),
    "snap.bytes_first": ("bytes", _count("snap_bytes_first")),
    "snap.bytes_last": ("bytes", _count("snap_bytes_last")),
    "bench.span_coverage": ("ratio", _coverage),
}
TRACE_OVERHEAD = ("bench.trace_overhead", "ratio")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure (once) and build swallow_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(bdir)  # configured for another checkout
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "swallow_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "swallow_perfbench")


def provenance(args, first_rep):
    src = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                src.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    src.update(f.read())
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        sha = None  # no git on this host
    return {
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "hw_threads": first_rep["hw_threads"],
        "host_threads": first_rep["host_threads"],
        "compiler": first_rep["compiler"],
        "build_type": first_rep["build_type"],
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
    }


class Runner:
    def __init__(self, exe, args, out):
        self.exe, self.args, self.out = exe, args, out

    def rep(self, traced=False, plant=False, uninterrupted=False):
        """One repetition in a fresh process; None if it did not finish."""
        a = self.args
        ckpt = os.path.join(self.out, "ckpt-%s-%d" % (a.workload, os.getpid()))
        os.makedirs(ckpt, exist_ok=True)
        cmd = [self.exe, "--workload", a.workload, "--seed", str(a.seed),
               "--scale", a.scale, "--workers", str(a.workers), "--dir", ckpt]
        if traced:
            cmd += ["--trace-out",
                    os.path.join(self.out, "trace-%s.json" % a.workload)]
        if plant:
            cmd.append("--plant-mismatch")
        if uninterrupted:
            cmd.append("--uninterrupted")
        try:
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=150)
        except subprocess.TimeoutExpired:
            print("perfbench: repetition timed out", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(ckpt, ignore_errors=True)
        if p.returncode != 0:
            print("perfbench: repetition exited %d" % p.returncode,
                  file=sys.stderr)
            return None
        rep = json.loads(p.stdout.strip().splitlines()[-1])
        rep["traced"] = traced
        return rep


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--workers", type=int, default=1,
                    help="parallel-engine workers (pipeline_64_observed)")
    ap.add_argument("--plant-mismatch", action="store_true",
                    help="self-test: corrupt the second repetition's digest")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.workers > len(os.sched_getaffinity(0)):
        fail("refusing %d worker threads on a host with %d"
             % (args.workers, len(os.sched_getaffinity(0))))

    bdir = build_dir()
    exe = build(bdir)
    out = os.path.join(bdir, "out")
    os.makedirs(out, exist_ok=True)
    runner = Runner(exe, args, out)

    # The resumed pipeline must reproduce an uninterrupted run exactly;
    # that reference is computed once, outside the measured repetitions.
    reference = None
    if args.workload == "pipeline_64_observed":
        ref = runner.rep(uninterrupted=True)
        if ref is None:
            fail("the uninterrupted reference run failed")
        reference = ref["digest"]

    reps, attempted, failed = [], 0, 0
    expected = reference
    min_reps = 4 if args.trace else 3
    start = time.monotonic()
    while True:
        i = len(reps)
        rep = runner.rep(traced=bool(args.trace) and i % 2 == 1,
                         plant=args.plant_mismatch and i == 1)
        if rep is None:
            attempted += 1
            failed += 1
            reps.append(None)
        else:
            expected = expected or rep["digest"]
            attempted += rep["attempted"]
            if rep["digest"] != expected or rep["trapped"]:
                failed += rep["attempted"]
            else:
                failed += rep["failed"]
            reps.append(rep)
            print("rep %d%s: setup %.4f s, timed %.4f s, %.3f sim-MIPS, "
                  "digest %s" % (i, " traced" if rep["traced"] else "",
                                 rep["setup_s"], rep["timed_s"],
                                 end_to_end(rep)["sim_mips"], rep["digest"]),
                  file=sys.stderr)
        elapsed = time.monotonic() - start
        if len(reps) >= min_reps and elapsed * (1 + 1 / len(reps)) > args.seconds:
            break

    done = [r for r in reps if r is not None]
    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not untraced or (args.trace and not traced):
        fail("no repetition completed")

    def median(rs, f):
        return statistics.median(f(r) for r in rs)

    if args.trace:
        metrics = {name: {"value": median(traced, f), "unit": unit}
                   for name, (unit, f) in PER_LAYER.items()}
        wall = lambda r: r["setup_s"] + r["timed_s"]
        metrics[TRACE_OVERHEAD[0]] = {
            "value": median(traced, wall) / median(untraced, wall) - 1.0,
            "unit": TRACE_OVERHEAD[1]}
    else:
        metrics = {name: {"value": median(untraced, lambda r: end_to_end(r)[name]),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(json.dumps({"provenance": provenance(args, done[0]),
                      "repetitions": len(reps),
                      "traced_repetitions": len(traced),
                      "trace_file": os.path.join(out, "trace-%s.json"
                                                 % args.workload)
                      if traced else None}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
