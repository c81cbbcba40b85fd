#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent revision against this checkout.

    python3 scripts/bench_pairs.py --rev HEAD~1 --workload density_golden \\
        --pairs 10 --seconds 35 --seed 1
    python3 scripts/bench_pairs.py --rev HEAD~1 --workload all
    python3 scripts/bench_pairs.py --rev HEAD~1 --workload all --counts --seconds 5

Exports ``--rev`` with ``git archive`` into a temporary directory, copies
this checkout's files (tracked and untracked, not ignored) next to it, and
runs ``python3 perfbench/run.py --trace 0`` in both trees, one pair per seed
(``--seed``, ``--seed`` + 1, ...), both sides with the pair's seed, for
``--seconds`` (by default BENCHMARK.json's ``run_seconds``). ``--workload``
may be repeated, or be ``all`` for every workload of BENCHMARK.json; the
workloads run one after another, each with the same seeds, and each gets
its own summary.
Even pairs run the parent first and odd pairs the change first, so a drift
of the machine's speed favours neither side. For each end-to-end metric of
this checkout's BENCHMARK.json it prints every pair's values, each side's
median and quartiles, and the number of pairs the change won (strictly
better in the metric's direction), then one verdict per metric: ``gain``
(at least 9 of 10 pairs won and a median gap wider than the parent's
interquartile range), ``worse than bound`` (a median worse than the
parent's by more than the metric's relative ``bound``), ``unresolved`` (a
parent interquartile range wider than the bound, unless every run of the
change reads better) or ``within bound``. A run that exits non-zero or reports a
failed operation stops the script. Both sides run with an empty bytecode
cache (``PYTHONPYCACHEPREFIX``) and bytecode writing off, so ``.pyc`` files
left in a checkout's ``__pycache__`` cannot make its imports, set-up time
and memory look smaller than those of a fresh checkout. The copy is there
because a working checkout itself read ``peak_rss_mb`` 0.2 to 0.4 MB higher
than a fresh copy of the same files, for reasons not found.

With ``--counts`` it makes no pairs: it runs ``perfbench/run.py --trace 1``
once in each tree at ``--seed``, and prints every per-layer metric of
BENCHMARK.json in unit ``count`` for both sides, marking with ``*`` those
that differ. The counts are work counters, the same in every pass, so one
short run per side gives them.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics: list[dict], pairs: list[tuple[int, str, str]]) -> list[str]:
    """The report lines for ``pairs`` of (seed, parent's result line, change's
    result line), where a result line is the JSON line that ends the output
    of ``perfbench/run.py``, and ``metrics`` are BENCHMARK.json's
    ``end_to_end`` entries (name, unit, better)."""
    results = [(seed, json.loads(a)["metrics"], json.loads(b)["metrics"])
               for seed, a, b in pairs]
    lines = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        rows = [(seed, a[name]["value"], b[name]["value"]) for seed, a, b in results]
        won = sum((b < a) if lower else (b > a) for _, a, b in rows)
        lines.append(f"{name} ({m['unit']}, {m['better']} is better)")
        lines.append("  pair  seed        parent        change")
        lines += [f"  {i:4d}  {seed:4d}  {a:12.6g}  {b:12.6g}"
                  for i, (seed, a, b) in enumerate(rows, 1)]
        for side, col in (("parent", 1), ("change", 2)):
            q1, q2, q3 = quartiles([row[col] for row in rows])
            lines.append(f"  {side}: median {q2:.6g}, quartiles {q1:.6g} .. {q3:.6g}")
        lines.append(f"  change won {won} of {len(rows)} pairs")
    return lines


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    """The verdict on one end-to-end metric from its paired values: ``gain``
    when the change won at least 9 of 10 pairs and its median is better than
    the parent's by more than the parent's interquartile range; ``worse than
    bound`` when its median is worse than the parent's by more than the
    metric's relative ``bound``; ``unresolved`` when the metric has no bound,
    or the parent's interquartile range is wider than the bound and not
    every run of the change reads better than every run of the parent;
    otherwise ``within bound``."""
    lower = metric["better"] == "lower"
    better = (lambda a, b: b < a) if lower else (lambda a, b: b > a)
    won = sum(better(a, b) for a, b in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gap = (median - quartiles(change)[1]) * (1.0 if lower else -1.0)
    if 10 * won >= 9 * len(parent) and gap > q3 - q1:
        return "gain"
    bound = metric.get("bound")
    if bound is None:
        return "unresolved"
    if -gap > bound * abs(median):
        return "worse than bound"
    if q3 - q1 > bound * abs(median) and not all(better(a, b) for a in parent for b in change):
        return "unresolved"
    return "within bound"


def verdict_lines(metrics: list[dict], pairs: list[tuple[int, str, str]]) -> list[str]:
    """One line per end-to-end metric: its name, ``verdict`` and the numbers
    behind it, for ``pairs`` as in ``summarize``."""
    results = [(json.loads(a)["metrics"], json.loads(b)["metrics"]) for _, a, b in pairs]
    lines = ["verdicts (gain: won >= 9/10 and median gap > parent IQR; bounds of "
             "BENCHMARK.json)"]
    for m in metrics:
        name = m["name"]
        parent = [a[name]["value"] for a, _ in results]
        change = [b[name]["value"] for _, b in results]
        q1, pm, q3 = quartiles(parent)
        cm = quartiles(change)[1]
        rel = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
        bound = f"{m['bound']:.0%}" if m.get("bound") is not None else "none"
        lines.append(f"  {name}: {verdict(m, parent, change)} (median {pm:.6g} -> {cm:.6g}, "
                     f"{rel}; parent IQR {q3 - q1:.6g}; bound {bound})")
    return lines


def count_lines(metrics: list[dict], parent: str, change: str) -> list[str]:
    """The report lines of ``--counts`` for the parent's and the change's
    result lines of ``perfbench/run.py --trace 1``, where ``metrics`` are
    BENCHMARK.json's ``per_layer`` entries; only those in unit ``count`` are
    listed."""
    a, b = json.loads(parent)["metrics"], json.loads(change)["metrics"]
    names = [m["name"] for m in metrics if m["unit"] == "count"]
    width = max(map(len, names), default=0)
    lines = [f"  {'count':{width}}  {'parent':>10}  {'change':>10}"]
    differ = 0
    for name in names:
        x, y = a[name]["value"], b[name]["value"]
        differ += x != y
        lines.append(f"  {name:{width}}  {x:>10}  {y:>10}" + ("  *" if x != y else ""))
    lines.append(f"  {differ} of {len(names)} counts differ (marked *)")
    return lines


def run_once(tree: Path, workload: str, seed: int, seconds: float, env: dict,
             trace: int = 0) -> str:
    """One benchmark run in ``tree``: its JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
        raise SystemExit(f"{' '.join(cmd)} in {tree} failed (exit {out.returncode}):\n"
                         f"{out.stdout}\n{out.stderr}")
    return lines[-1]


def export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_checkout(dest: Path) -> None:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, capture_output=True,
                            check=True).stdout.decode().split("\0")
    for name in listed:
        if name and (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def parse_args(argv, workloads: list[str]) -> argparse.Namespace:
    """The command line, with ``workload`` a list of names from ``workloads``
    in the order given, each once; ``all`` stands for every one."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="the parent revision")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload of BENCHMARK.json, or 'all'; may be repeated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    parser.add_argument("--counts", action="store_true",
                        help="compare the per-layer counts of one traced run per side")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workload) - set(workloads) - {"all"})
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose from "
                     f"{', '.join(workloads)} or all")
    args.workload = workloads if "all" in args.workload else list(dict.fromkeys(args.workload))
    return args


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or float(spec["run_seconds"])
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent, change, cache = (Path(tmp) / d for d in ("parent", "change", "pycache"))
        export(args.rev, parent)
        copy_checkout(change)
        env = {**os.environ, "PYTHONPYCACHEPREFIX": str(cache), "PYTHONDONTWRITEBYTECODE": "1"}
        for workload in args.workload:
            if args.counts:
                got = [run_once(tree, workload, args.seed, seconds, env, trace=1)
                       for tree in (parent, change)]
                print(f"{workload}: per-layer counts at seed {args.seed}, {args.rev} "
                      "(parent) against the checkout (change)")
                print("\n".join(count_lines(spec["per_layer"], *got)), flush=True)
                continue
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = [("parent", parent), ("change", change)]
                got = {side: run_once(tree, workload, seed, seconds, env)
                       for side, tree in (order if i % 2 == 0 else order[::-1])}
                pairs.append((seed, got["parent"], got["change"]))
                print(f"# {workload}: pair {i + 1}/{args.pairs} (seed {seed}) done",
                      file=sys.stderr)
            print(f"{workload}: {args.rev} (parent) against the checkout (change), "
                  f"{args.pairs} pairs of {seconds:g} s runs")
            print("\n".join(summarize(spec["end_to_end"], pairs)))
            print("\n".join(verdict_lines(spec["end_to_end"], pairs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
