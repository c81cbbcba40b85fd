#!/usr/bin/env python3
"""Benchmark of conesurf: seeded workloads against the package's public API.

    python3 perfbench/run.py --workload trace_long --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a source checkout; conesurf is imported from
``src/``. One thread runs one workload: set-up is timed in
``SETUP_REPEATS`` fresh processes, one after another, and its median
reported; then the run sets up once itself and runs passes over the
workload's operations back to back until the next pass would end after
``--seconds``. With ``--trace 0`` a speed probe (speed.py) samples the
machine's speed during the passes, and it prints the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates untraced passes with
passes that record spans around each module's public functions, and prints
the per-layer metrics. Human-readable lines come first, prefixed with
``#``; the last line of standard output is the JSON result. README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
# speed probe samples taken before each timed set-up and after the last
SETUP_PROBE_RUNS = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RATES = {"trace_segments_per_s": "trace", "saddles_per_s": "saddles",
         "cylinders_per_s": "cylinders"}


def set_up(workload: str, seed: int, tiny: bool, workdir: Path):
    """Import conesurf, load the corpus, generate the inputs, warm up:
    (seconds, conesurf package, workload)."""
    import workloads

    t0 = time.perf_counter()
    cs = importlib.import_module("conesurf")
    importlib.import_module("conesurf.cli")
    ref = json.loads(workloads.REFERENCE.read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[workload](cs, seed, tiny, workdir, ref)
    wl.warm_up()
    return time.perf_counter() - t0, cs, wl


def time_setups(args) -> tuple[list[float], float]:
    """Set-up times of ``SETUP_REPEATS`` fresh processes, one after another,
    and the speed probe's slow-down over them.

    Set-up speed differs from one process to the next by more than it does
    within one, so each repetition gets its own process. The probe's kernel
    runs in this process just before and after each of them: set-up is too
    short to carry enough samples itself.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    probe = SpeedProbe()
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample(SETUP_PROBE_RUNS)
        times.append(float(subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                          timeout=170, check=True).stdout.split()[-1]))
    probe.sample(SETUP_PROBE_RUNS)
    return times, SpeedProbe.slowdown(*probe.mark())


def setup_only(args) -> int:
    import numpy  # noqa: F401  (numpy's own import is not part of set-up)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"setup-{args.workload}-", dir=WORK))
    try:
        seconds, _, _ = set_up(args.workload, args.seed, args.tiny, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(seconds))
    return 0


class Pass(NamedTuple):
    ns: int             # pass time, without the speed probe's kernel runs
    counters: Counter   # work counters from returned values
    failed: int         # failed operations
    wall_ns: int        # pass time as the clock saw it
    slowdown: float | None  # the speed probe's slow-down during the pass


def run_pass(wl, tracer, failures: list, probe=None) -> Pass:
    """One pass over the workload's operations."""
    counters: Counter = Counter()
    failed = 0
    before = probe.mark() if probe is not None else (0, 0.0)
    t0 = time.perf_counter_ns()
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op = i
        try:
            counters.update(op.run())
        except Exception as exc:  # a failed operation is counted; the pass goes on
            failed += 1
            if not failures:
                traceback.print_exc(file=sys.stderr)
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
    wall_ns = time.perf_counter_ns() - t0
    after = probe.mark() if probe is not None else (0, 0.0)
    runs, seconds = after[0] - before[0], after[1] - before[1]
    return Pass(wall_ns - round(seconds * 1e9), counters, failed, wall_ns,
                SpeedProbe.slowdown(runs, seconds))


def run_passes(wl, tracer, seconds: float, started: float, failures: list, probe=None):
    """Passes until the next one would end after ``seconds``. With a tracer,
    untraced and traced passes alternate, so that the overhead compares like
    with like; the span index range of each traced pass is kept."""
    untraced, traced, slices = [], [], []
    while True:
        if tracer is not None and len(untraced) > len(traced):
            first = len(tracer.spans)
            tracer.install()
            try:
                traced.append(run_pass(wl, tracer, failures))
            finally:
                tracer.uninstall()
            slices.append((first, len(tracer.spans)))
        else:
            untraced.append(run_pass(wl, None, failures, probe))
        per_pass = statistics.median(p.wall_ns for p in untraced + traced) / 1e9
        if (time.perf_counter() - started + per_pass > seconds
                and (tracer is None or traced)):
            return untraced, traced, slices


def norm_wall_s(passes: list[Pass], probe) -> float:
    """Median pass time at the speed probe's reference speed. A pass too
    short to hold a probe sample takes the run's slow-down."""
    overall = SpeedProbe.slowdown(*probe.mark())
    return statistics.median(p.ns / (p.slowdown or overall) for p in passes) / 1e9


def layer_metrics(spec: list, tracer, slices: list, passes: list, untraced: list,
                  problems: list) -> dict:
    from tracing import layer_totals

    counts, self_s, outside_s = None, {}, []
    for (first, last), (wall_ns, *_) in zip(slices, passes):
        c, self_ns, root_ns = layer_totals(tracer.spans[first:last])
        c["tracer.trace.edge_crossings"] = sum(
            v for k, v in c.items()
            if k.startswith("tracer.trace.") and k.endswith(".edge_crossings"))
        if counts is None:
            counts = c
        elif c != counts:
            problems.append("per-layer counts differ between traced passes")
        outside = wall_ns - root_ns
        if sum(self_ns.values()) + outside != wall_ns or min(self_ns.values(), default=0) < 0:
            problems.append("span self times plus time outside spans do not add up to the pass")
        outside_s.append(outside / 1e9)
        for name, ns in self_ns.items():
            self_s.setdefault(name, []).append(ns / 1e9)
    traced = statistics.median(p.ns for p in passes) / 1e9
    plain = statistics.median(p.ns for p in untraced) / 1e9
    bench = {"bench.traced_wall_s": traced, "bench.untraced_wall_s": plain,
             "bench.tracing_overhead_s": traced - plain,
             "bench.outside_spans_s": statistics.median(outside_s)}
    values = {}
    for m in spec:
        name = m["name"]
        if name in bench:
            values[name] = bench[name]
        elif name.endswith(".self_s"):
            per_pass = self_s.get(name[:-len(".self_s")])
            values[name] = statistics.median(per_pass) if per_pass else 0.0
        elif name.endswith(".accept_ratio"):
            base = name[:-len(".accept_ratio")]
            calls = counts[f"{base}.calls"]
            values[name] = counts[f"{base}.accepted"] / calls if calls else 0.0
        else:
            values[name] = counts[name]
    return values


def measure(args, spec: dict) -> int:
    import numpy

    print(f"# conesurf benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}{' tiny' if args.tiny else ''}")
    print(f"# env: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} "
          + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        setups, setup_slowdown = time_setups(args)
        _, cs, wl = set_up(args.workload, args.seed, args.tiny, workdir)
        failures: list[str] = []
        problems: list[str] = []
        started = time.perf_counter()
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(cs)
            untraced, passes, slices = run_passes(wl, tracer, args.seconds, started, failures)
            spans_path = WORK / f"spans-{args.workload}.jsonl"
            tracer.write(spans_path)
            print(f"# spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
            metrics = layer_metrics(spec["per_layer"], tracer, slices, passes, untraced,
                                    problems)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            all_passes = untraced + passes
        else:
            with SpeedProbe() as probe:
                passes, _, _ = run_passes(wl, None, args.seconds, started, failures, probe)
            all_passes = passes
            metrics = {
                "setup_s": statistics.median(setups) / setup_slowdown,
                "norm_wall_s": norm_wall_s(passes, probe),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counters = all_passes[0].counters
    if any(p.counters != counters for p in all_passes):
        problems.append("work counters differ between passes")
    attempted = len(wl.ops) * len(all_passes)
    failed = sum(p.failed for p in all_passes)
    print(f"# passes={len(all_passes)} pass_s="
          + ",".join(f"{p.ns / 1e9:.4f}" for p in all_passes)
          + " slowdown=" + ",".join(f"{p.slowdown:.3f}" for p in all_passes if p.slowdown)
          + " setup_s=" + ",".join(f"{s:.4f}" for s in setups)
          + f" setup_slowdown={setup_slowdown:.3f}")
    print(f"# ops_failed_frac {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print("# counters per pass: " + json.dumps(dict(sorted(counters.items()))))
    if not args.trace:
        print(f"# wall_s {statistics.median(p.ns for p in all_passes) / 1e9:.6g} s "
              "(median pass time, not rescaled; probe runs excluded)")
        for name, kind in RATES.items():
            rate = wl.rates.per_second(kind)
            print(f"# {name} " + (f"{rate:.6g} 1/s" if rate is not None
                                  else "n/a (no direct calls in this workload)"))
    for name in sorted(metrics):
        print(f"# {name} {metrics[name]:.6g} {units[name]}")
    for line in failures[:10] + problems:
        print(f"# FAILED {line}")
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))
    return 0


def self_test(spec: dict) -> int:
    """Run every workload at a tiny size, twice per mode with one seed, and
    check the printed metrics, their units and the work counters."""
    import workloads

    problems = []
    nonzero = set()
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[kind]}
            runs = []
            for _ in range(2):
                out = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
                    cwd=ROOT, capture_output=True, text=True, timeout=600)
                lines = out.stdout.strip().splitlines()
                if out.returncode != 0 or not lines:
                    problems.append(f"{workload} trace={trace}: "
                                    f"exit {out.returncode}\n{out.stderr}")
                    break
                result = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    problems.append(f"{workload} trace={trace}: metrics {got}, want {want}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{workload} trace={trace}: {lines[-1]}\n{out.stdout}")
                nonzero |= {k for k, v in result["metrics"].items() if v["value"] != 0}
                counters = next(l for l in lines if l.startswith("# counters per pass: "))
                runs.append((counters, {k: v["value"] for k, v in result["metrics"].items()
                                        if v["unit"] == "count"}))
            if len(runs) == 2 and runs[0] != runs[1]:
                problems.append(f"{workload} trace={trace}: counters differ between "
                                f"two runs of one seed: {runs}")
            print(f"# self-test {workload} trace={trace}: {len(runs)} runs")
    # a metric whose name matches no span reads 0 on every workload; only the
    # failure counts are meant to, as no operation of a workload fails
    for m in spec["per_layer"] + spec["end_to_end"]:
        if m["name"] not in nonzero and not m["name"].endswith(".failed"):
            problems.append(f"{m['name']} is zero on every workload")
    for p in problems:
        print(f"# SELF-TEST FAILED {p}")
    print(f"# self-test: {'PASS' if not problems else 'FAIL'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload at a tiny size (self-test)")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload tiny and check the printed metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up of the workload and print it")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "conesurf" / "__init__.py",
              ROOT / "surfaces", ROOT / "configs"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print(f"error: not a conesurf source checkout, missing {absent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.self_test:
        return self_test(spec)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        return setup_only(args)
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
