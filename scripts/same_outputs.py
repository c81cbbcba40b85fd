#!/usr/bin/env python3
"""Compare the CLI outputs of a revision with this checkout's, byte for byte.

    python3 scripts/same_outputs.py --rev HEAD~1

Builds both trees as ``scripts/bench_pairs.py`` does (``--rev`` exported with
``git archive``, and a copy of this checkout's tracked and untracked files),
then runs the same ``conesurf`` commands in each, from the tree's root with
its own ``src`` on the path and relative file names, so that nothing a tree
prints or writes names the tree:

- the density experiment with ``configs/density_torus_golden.json`` on the
  marked torus (bounds 1..55);
- ``--json density`` on the marked torus with the golden-slope target of
  ``configs/golden_target.json`` and bounds 1, 2, 3, 5, 8: the other command
  that measures compact-open distances;
- ``saddles --csv`` on the octagon at L = 3 and on the marked torus at L = 8;
  on the octagon at L = 8, 368 connections whose certification fleet leaves
  the lockstep at edges parallel to its rays; and the window sweeps that
  carry holes: the marked torus at L = 21 (5,888 holes from ``v0``) and the
  pillowcase at L = 16 (1,110 from ``v0``);
- ``--json cylinders --from-saddle 3`` on the marked torus, the octagon and
  the pillowcase;
- the no-strips experiment with both ``configs/no_strips_*.json``;
- ``trace --csv --svg`` on the octagon from (0, 0) at slope pi/10, L = 500
  (the benchmark's CLI export);
- ``--json trace`` without ``--quiet``, whose stdout holds the events list,
  the ``m(T) =`` line and the collinearity residual: on the octagon as above
  with ``--recurrence``, and on the marked torus from the golden-slope
  target of ``configs/golden_target.json``, L = 200, with default options;
- ``selftest --quick``, whose checks include the density pruning against the
  full evaluation, the no-strips rows and the bounding saddles traced through
  ``trace_connection``.

Every report, CSV and SVG, and each command's stdout and exit code, lands in
an output directory per tree. The two directories are compared file by file;
each file that differs or exists on one side only is printed, and the exit
code is 1 if any does, else 0.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import copy_checkout, export

OUT = "same_outputs"

COMMANDS = {
    "density_torus_golden": [
        "--quiet", "experiment", "density", "--surface", "surfaces/torus_marked.json",
        "--config", "configs/density_torus_golden.json",
        "--report", f"{OUT}/density_torus_golden.json"],
    "density_golden_target": [
        "--json", "density", "--surface", "surfaces/torus_marked.json",
        "--target-spec", "configs/golden_target.json", "--lengths", "1,2,3,5,8",
        "--report", f"{OUT}/density_golden_target.json"],
    "saddles_octagon_L3": [
        "--quiet", "saddles", "--surface", "surfaces/octagon.json", "--max-length", "3",
        "--csv", f"{OUT}/saddles_octagon_L3.csv"],
    "saddles_octagon_L8": [
        "--quiet", "saddles", "--surface", "surfaces/octagon.json", "--max-length", "8",
        "--csv", f"{OUT}/saddles_octagon_L8.csv"],
    "saddles_torus_marked_L8": [
        "--quiet", "saddles", "--surface", "surfaces/torus_marked.json", "--max-length", "8",
        "--csv", f"{OUT}/saddles_torus_marked_L8.csv"],
    "saddles_torus_marked_L21": [
        "--quiet", "saddles", "--surface", "surfaces/torus_marked.json", "--max-length", "21",
        "--csv", f"{OUT}/saddles_torus_marked_L21.csv"],
    "saddles_pillowcase_L16": [
        "--quiet", "saddles", "--surface", "surfaces/pillowcase.json", "--max-length", "16",
        "--csv", f"{OUT}/saddles_pillowcase_L16.csv"],
    **{f"cylinders_{name}": ["--json", "cylinders", "--surface", f"surfaces/{name}.json",
                             "--from-saddle", "3"]
       for name in ("torus_marked", "octagon", "pillowcase")},
    **{config: ["--quiet", "experiment", "no-strips", "--surface", f"surfaces/{surface}.json",
                "--config", f"configs/{config}.json", "--report", f"{OUT}/{config}.json"]
       for config, surface in (("no_strips_octagon", "octagon"),
                               ("no_strips_torus_golden", "torus_marked"))},
    "trace_octagon_L500": [
        "--quiet", "trace", "--surface", "surfaces/octagon.json", "--chart", "oct",
        "--x", "0", "--y", "0", "--dx", "1", "--dy", repr(math.pi / 10.0),
        "--max-length", "500.0", "--csv", f"{OUT}/trace_octagon_L500.csv",
        "--svg", f"{OUT}/trace_octagon_L500.svg"],
    "trace_json_octagon_L500_recurrence": [
        "--json", "trace", "--surface", "surfaces/octagon.json", "--chart", "oct",
        "--x", "0", "--y", "0", "--dx", "1", "--dy", repr(math.pi / 10.0),
        "--max-length", "500.0", "--recurrence"],
    "trace_json_torus_marked_L200": [
        "--json", "trace", "--surface", "surfaces/torus_marked.json", "--chart", "sq",
        "--x", "0.41421356237309515", "--y", "0.7320508075688772",
        "--dx", "1.0", "--dy", "1.618033988749895", "--max-length", "200.0"],
    "selftest_quick": ["--quiet", "selftest", "--quick", "--report", f"{OUT}/selftest_quick.json"],
}


def run_commands(tree: Path, env: dict) -> Path:
    """Runs every command in ``tree``: the directory of its outputs."""
    out = tree / OUT
    out.mkdir()
    tree_env = {**env, "PYTHONPATH": str(tree / "src")}
    for name, argv in COMMANDS.items():
        done = subprocess.run([sys.executable, "-m", "conesurf.cli", *argv], cwd=tree,
                              env=tree_env, capture_output=True)
        (out / f"{name}.stdout").write_bytes(done.stdout)
        (out / f"{name}.exit").write_text(f"{done.returncode}\n")
        print(f"# {tree.name}: {name} exit {done.returncode}", file=sys.stderr)
    return out


def differing(a: Path, b: Path) -> list[str]:
    """The relative names of the files under ``a`` or ``b`` that are missing
    on the other side or differ in their bytes, sorted."""
    names = {p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.is_file()}
    return sorted(str(n) for n in names
                  if not ((a / n).is_file() and (b / n).is_file()
                          and (a / n).read_bytes() == (b / n).read_bytes()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="the revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        export(args.rev, parent)
        copy_checkout(change)
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        outputs = [run_commands(tree, env) for tree in (parent, change)]
        files = sum(1 for p in outputs[0].rglob("*") if p.is_file())
        bad = differing(*outputs)
    for name in bad:
        print(f"differs: {name}")
    print(f"{args.rev} against the checkout: {len(bad)} of {files} output files differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
