#!/usr/bin/env python3
"""Record the reference outputs the benchmark compares against.

    python3 perfbench/make_reference.py

Run it from a source checkout whose results are trusted; it rewrites
perfbench/reference.json. The file holds the pool of long geodesics that
trace_long draws from, with their terminations and segment counts, and the
outputs of every operation that has no independent oracle: no-strips m(T)
rows, CLI trace CSV digests, density rows and inventory, cover monodromies,
cover saddle connections and cover and octagon cylinder widths.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import tempfile
from pathlib import Path

import workloads as wl

POOL_SEED = 20261017
POOL_SLOTS = 6         # per surface: lengths 250..1000 in even steps
POOL_STARTS = 4        # start points per slot


def trace_pool(cs, surfaces) -> list[dict]:
    """Each slot fixes a length and a direction and offers several start
    points, so the seed changes the inputs but hardly the work."""
    rng = random.Random(POOL_SEED)
    apothem = math.cos(math.pi / 8.0)
    pool = []
    for name in ("octagon", "torus_marked"):
        for slot in range(POOL_SLOTS):
            length = 250.0 + 750.0 * slot / (POOL_SLOTS - 1)
            a = rng.uniform(-math.pi, math.pi)
            direction = (math.cos(a), math.sin(a))
            for _ in range(POOL_STARTS):
                if name == "octagon":
                    r = 0.85 * apothem * math.sqrt(rng.random())
                    b = rng.uniform(-math.pi, math.pi)
                    chart, point = "oct", (r * math.cos(b), r * math.sin(b))
                else:
                    chart, point = "sq", (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
                start = cs.GeodesicState(chart, point, direction)
                res = cs.trace(surfaces[name], start, length, options=wl.trace_options(cs, True))
                plain = cs.trace(surfaces[name], start, length,
                                 options=wl.trace_options(cs, False))
                assert plain.segments == res.segments, "segments depend on the trace options"
                end = res.end_state
                pool.append({
                    "surface": name, "slot": slot, "chart": chart, "x": point[0], "y": point[1],
                    "dx": direction[0], "dy": direction[1], "length": length,
                    "termination": res.termination, "segments": len(res.segments),
                    "edge_crossings": wl.edge_crossings(cs, res),
                    "total_length": res.total_length,
                    "end": [end.chart, end.point[0], end.point[1]],
                    "recurrence": res.recurrence is not None,
                })
    return pool


def main() -> int:
    sys.path.insert(0, str(wl.ROOT / "src"))
    import conesurf as cs
    import conesurf.cli  # noqa: F401  (sets cs.cli)

    surfaces, configs = wl.load_corpus(cs)
    ref: dict = {"trace_pool": trace_pool(cs, surfaces), "no_strips": {}, "cli_trace": {},
                 "density": {}, "covers": {}, "octagon_cylinders": {}}

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for config, surface in wl.NO_STRIPS:
            report = tmp / "report.json"
            assert cs.cli.run(wl.no_strips_argv(config, surface, report)) == 0
            ref["no_strips"][config] = json.loads(report.read_text())["metrics"]["rows"]
        for length in (wl.CLI_TRACE_LENGTH_TINY, wl.CLI_TRACE_LENGTH):
            csv_path = tmp / "trace.csv"
            argv = wl.cli_trace_argv(wl.ROOT / "surfaces" / "octagon.json", length,
                                     csv_path, tmp / "trace.svg")
            assert cs.cli.run(argv) == 0
            ref["cli_trace"][repr(length)] = {
                "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest()}

    config = configs["density_torus_golden"]
    for bound in (wl.DENSITY_BOUND_TINY, wl.DENSITY_BOUND):
        lengths = wl.density_lengths(config, bound)
        seen = []
        # the rows must not depend on where the seed puts the target
        for seed in (wl.DEFAULT_SEED, 1, 2):
            rep = cs.density_experiment(surfaces["torus_marked"],
                                        wl.density_target(cs, config, seed), lengths,
                                        window=config["window"], eta=config["eta"])
            seen.append({"rows": rep.rows, "inventory": rep.inventory, "passed": rep.passed})
        for other in seen[1:]:
            assert other["inventory"] == seen[0]["inventory"]
            assert other["passed"] == seen[0]["passed"]
            for a, b in zip(other["rows"], seen[0]["rows"]):
                assert a["label"] == b["label"] and wl.near(a["distance"], b["distance"]), (a, b)
        ref["density"][repr(lengths[-1])] = seen[0]

    pillowcase = surfaces["pillowcase"]
    for d in wl.COVER_DEGREES:
        spec = cs.find_monodromy(pillowcase, d)
        cover, _ = cs.build_cover(pillowcase, spec)
        ref["covers"][str(d)] = {
            "monodromy": {str(k): list(v) for k, v in sorted(spec.edge_permutations.items())},
            "saddles": {vc.id: wl.saddle_rows(cs.enumerate_saddles(cover, vc.id,
                                                                   wl.COVER_SADDLE_L))
                        for vc in cover.singular_classes},
            "cylinders": {f"{p},{q}": wl.cylinder_row(cs.find_closed_geodesic(cover, (p, q)))
                          for p, q in wl.primitive_directions(wl.COVER_DIRECTIONS_R2)},
        }
    for p, q in wl.primitive_directions(wl.OCTAGON_DIRECTIONS_R2):
        ref["octagon_cylinders"][f"{p},{q}"] = wl.cylinder_row(
            cs.find_closed_geodesic(surfaces["octagon"], (p, q)))

    wl.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {wl.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
