"""Command-line interface wiring every module together.

Subcommands: validate, trace, saddles, cylinders, density, cover, experiment,
selftest.  Exit codes: 0 success / experiment PASS, 2 validation or usage
error, 3 experiment FAIL.  Reports are deterministic: identical inputs yield
byte-identical CSV/JSON (wall-clock timing is opt-in via --timings).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time

from .config import DEFAULT_TOLERANCES, load_tolerance_overrides
from .corpus import BUILDERS
from .covering import CoverSpec, build_cover, default_odd_degree, find_monodromy, riemann_hurwitz_check
from .cylinders import density_experiment, find_closed_geodesic
from .errors import ConeSurfaceError
from .saddles import direction_spectrum, enumerate_saddles
from .surface import (
    classify_singularities,
    load_surface,
    save_surface,
    validate_gauss_bonnet,
)
from . import tracer
from .svgout import write_trace_svg
from .tracer import (
    PLAIN_TRACE_OPTIONS,
    GeodesicState,
    TraceOptions,
    _segment_distance,
    continuation_sector,
    develop,
    min_distance_experiment,
    predict_self_intersection,
    trace,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FAIL = 3

_SELFTEST_SEED = 20260814


@dataclasses.dataclass
class RunReport:
    """Deterministic machine-readable record of one CLI run."""

    scenario: str
    inputs: dict
    metrics: dict
    verdicts: dict
    seed: int | None = None
    wall_clock: float | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _sanitize(obj):
    """Replace non-finite floats by "inf", "-inf" or "nan" so json stays
    standards-compliant."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_sanitize(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _print_json(payload) -> None:
    print(json.dumps(_sanitize(payload), indent=2, sort_keys=True, allow_nan=False))


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _parse_direction(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConeSurfaceError(f"--direction expects 'dx,dy', got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _number(value, field: str, integral: bool = False):
    """A JSON number from an input file, as a float, or an int when
    ``integral``; ConeSurfaceError naming the field for anything else (a bool
    or a string too), an int past the float range, or a fraction if integral."""
    try:
        if type(value) not in (int, float):
            raise TypeError
        number = float(value)
    except (TypeError, OverflowError):
        raise ConeSurfaceError(f"{field} must be a number, got {json.dumps(value)}") from None
    if integral and not number.is_integer():
        raise ConeSurfaceError(f"{field} must be an integer, got {json.dumps(value)}")
    return int(value) if integral else number


def _state_from_dict(data, name: str) -> GeodesicState:
    if not (isinstance(data, dict) and {"chart", "x", "y", "dx", "dy"} <= data.keys()):
        raise ConeSurfaceError("a start state is a JSON object with keys chart, x, y, dx, dy")
    x, y, dx, dy = (_number(data[k], f"{name}.{k}") for k in ("x", "y", "dx", "dy"))
    return GeodesicState(str(data["chart"]), (x, y), (dx, dy))


# -- subcommands ------------------------------------------------------------------


def cmd_validate(args) -> int:
    surface = load_surface(args.surface, args.tolerances)
    report = validate_gauss_bonnet(surface)
    kinds = classify_singularities(surface)
    payload = {
        "charts": len(surface.charts),
        "gluings": len(surface.gluings),
        "euler_characteristic": surface.euler_characteristic,
        "gauss_bonnet": {"lhs": report.lhs, "rhs": report.rhs, "residual": report.residual},
        "vertex_classes": {vc.id: {"angle": vc.angle, "kind": vc.kind,
                                   "singular": vc.singular, "corners": len(vc.members)}
                           for vc in surface.vertex_classes.values()},
        "kinds": kinds,
    }
    ok = report.residual <= 1e-9
    _say(args, f"charts={len(surface.charts)} gluings={len(surface.gluings)} "
               f"chi={surface.euler_characteristic}")
    _say(args, f"gauss-bonnet residual {report.residual:.3e} "
               f"({'OK' if ok else 'EXCEEDS 1e-9'})")
    for vc in surface.vertex_classes.values():
        _say(args, f"  class {vc.id}: angle {vc.angle / math.pi:.6g}*pi "
                   f"[{vc.kind}{', singular' if vc.singular else ''}]")
    if args.json:
        _print_json(payload)
    return EXIT_OK if ok else EXIT_INVALID


def cmd_trace(args) -> int:
    surface = load_surface(args.surface, args.tolerances)
    start = GeodesicState(args.chart, (args.x, args.y), (args.dx, args.dy))
    options = TraceOptions(stop_on_cone=args.stop_on_cone,
                           detect_recurrence=args.recurrence,
                           record_min_distance=True)
    result = trace(surface, start, args.max_length, options=options)
    dev = develop(result)
    m_final = result.min_distance_at(result.total_length)
    _say(args, f"termination {result.termination} at arclength {result.total_length:.12g}")
    _say(args, f"end state: chart {result.end_state.chart} point "
               f"({result.end_state.point[0]:.12g}, {result.end_state.point[1]:.12g})")
    _say(args, f"events: {len(result.event_records)}; collinearity residual "
               f"{dev.collinearity_residual:.3e}/unit; m(T) = {m_final:.12g}")
    if args.csv:
        rows = [(0.0, result.start.chart, result.start.point[0], result.start.point[1],
                 result.min_distance_at(0.0))]
        s = 0.0
        for cid, a, b in result.segments:
            s += math.hypot(b[0] - a[0], b[1] - a[1])
            rows.append((s, cid, b[0], b[1], result.min_distance_at(s)))
        _write_csv(args.csv, ["arclength", "chart", "x", "y", "m_of_T"], rows)
        _say(args, f"wrote {args.csv}")
    if args.svg:
        write_trace_svg(surface, result, dev, args.svg)
        _say(args, f"wrote {args.svg}")
    if args.json:
        _print_json({
            "termination": result.termination,
            "total_length": result.total_length,
            "end": {"chart": result.end_state.chart, "x": result.end_state.point[0],
                    "y": result.end_state.point[1]},
            "events": [{"kind": ev.kind, "arclength": ev.arclength} for ev in result.events],
            "min_distance": m_final,
        })
    return EXIT_OK


def _saddle_inventory(surface, base: str, max_length: float):
    """The base class ids (every singular class for 'all') and their saddle
    connections up to max_length, sorted by (length, angle, start, end)."""
    if base == "all":
        bases = sorted(vc.id for vc in surface.singular_classes)
    else:
        bases = [base]
    connections = []
    for b in bases:
        connections.extend(enumerate_saddles(surface, b, max_length))
    connections.sort(key=lambda c: (c.length, c.angle, c.start, c.end))
    return bases, connections


def cmd_saddles(args) -> int:
    surface = load_surface(args.surface, args.tolerances)
    bases, connections = _saddle_inventory(surface, args.base, args.max_length)
    _say(args, f"{len(connections)} saddle connections up to length {args.max_length:.12g} "
               f"from {', '.join(bases)}")
    if args.csv:
        _write_csv(args.csv, ["start", "end", "length", "hx", "hy"],
                   [(c.start, c.end, c.length, c.holonomy[0], c.holonomy[1])
                    for c in connections])
        _say(args, f"wrote {args.csv}")
    if args.spectrum:
        spec = direction_spectrum(surface, args.max_length)
        _write_csv(args.spectrum, ["angle", "multiplicity"],
                   list(zip(spec.angles, spec.multiplicities)))
        _say(args, f"wrote {args.spectrum} (max gap {spec.max_gap:.12g})")
    if args.json:
        _print_json([{"start": c.start, "end": c.end, "length": c.length,
                      "hx": c.holonomy[0], "hy": c.holonomy[1]} for c in connections])
    return EXIT_OK


def _witness_dicts(witnesses) -> list[dict]:
    return [{"x": w.x, "y": w.y, "class": w.class_id} for w in witnesses]


def cmd_cylinders(args) -> int:
    surface = load_surface(args.surface, args.tolerances)
    if (args.direction is None) == (args.from_saddle is None):
        raise ConeSurfaceError("exactly one of --direction or --from-saddle is required")
    if args.direction is not None:
        direction = _parse_direction(args.direction)
    else:
        _, connections = _saddle_inventory(surface, "all", args.max_length)
        if not 0 <= args.from_saddle < len(connections):
            raise ConeSurfaceError(
                f"--from-saddle {args.from_saddle} out of range; "
                f"{len(connections)} connections up to length {args.max_length}")
        direction = connections[args.from_saddle].direction
    start = None
    if args.chart is not None:
        start = (args.chart, (args.x, args.y))
    cyl = find_closed_geodesic(surface, direction, start)
    if cyl is None:
        payload = {"found": False, "direction": list(direction)}
        _say(args, "no closed geodesic found in that direction")
    else:
        payload = {
            "found": True,
            "direction": list(cyl.direction),
            "start": {"chart": cyl.start.chart, "x": cyl.start.point[0],
                      "y": cyl.start.point[1]},
            "circumference": cyl.circumference,
            "closure_error": cyl.closure_error,
            "d_L": cyl.width_left,
            "d_R": cyl.width_right,
            "boundary": {side: _witness_dicts(ws) for side, ws in cyl.witnesses.items()},
            "bounding_saddles": {side: [{"start": c.start, "end": c.end, "length": c.length}
                                        for c in conns]
                                 for side, conns in cyl.bounding.items()},
        }
        wl = "inf" if cyl.width_left == math.inf else f"{cyl.width_left:.12g}"
        wr = "inf" if cyl.width_right == math.inf else f"{cyl.width_right:.12g}"
        _say(args, f"closed geodesic: circumference {cyl.circumference:.12g}, "
                   f"d_L {wl}, d_R {wr}")
    if args.report:
        _write_json(args.report, payload)
        _say(args, f"wrote {args.report}")
    if args.json:
        _print_json(payload)
    return EXIT_OK


def _run_density(surface, target, lengths, window, eta, chain_budget):
    report = density_experiment(surface, target, lengths, window=window, eta=eta,
                                chain_budget=chain_budget)
    metrics = {
        "rows": [dict(r) for r in report.rows],
        "inventory": dict(report.inventory),
        "final_distance": report.final_distance,
        "window": report.window,
        "eta": report.eta,
    }
    return report.passed, metrics


def cmd_density(args) -> int:
    surface = load_surface(args.surface, args.tolerances)
    with open(args.target_spec, "r", encoding="utf-8") as fh:
        target = _state_from_dict(json.load(fh), "--target-spec")
    lengths = [float(v) for v in args.lengths.split(",")]
    started = time.perf_counter()
    passed, metrics = _run_density(surface, target, lengths, args.window, args.eta,
                                   args.chain_budget)
    report = RunReport(
        scenario="density",
        inputs={"surface": args.surface, "target_spec": args.target_spec,
                "lengths": lengths, "window": args.window, "eta": args.eta},
        metrics=metrics,
        verdicts={"passed": passed},
        wall_clock=(time.perf_counter() - started) if args.timings else None,
    )
    _write_json(args.report, report.to_dict())
    for row in metrics["rows"]:
        _say(args, f"  L={row['length_bound']:g}: distance {row['distance']:.6g} "
                   f"({row['kind']}, length {row['approximant_length']})")
    _say(args, f"density: {'PASS' if passed else 'FAIL'} "
               f"(final {metrics['final_distance']:.6g} vs eta {args.eta:g}); "
               f"wrote {args.report}")
    if args.json:
        _print_json(report.to_dict())
    return EXIT_OK if passed else EXIT_FAIL


def cmd_cover(args) -> int:
    surface = load_surface(args.surface, args.tolerances)
    degree = default_odd_degree(surface) if args.degree == "auto" else int(args.degree)
    if args.monodromy == "search":
        spec = find_monodromy(surface, degree)
    else:
        with open(args.monodromy, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not (isinstance(raw, dict) and all(isinstance(v, list) for v in raw.values())):
            raise ConeSurfaceError(f"--monodromy {args.monodromy} must hold a JSON object "
                                   "mapping gluing indices to permutation lists")
        spec = CoverSpec(degree, {int(k): tuple(v) for k, v in raw.items()})
    cover, report = build_cover(surface, spec)
    residual = riemann_hurwitz_check(surface, cover, report)
    payload = report.to_dict()
    payload["riemann_hurwitz_residual"] = residual
    payload["edge_permutations"] = {str(k): list(v)
                                    for k, v in sorted(spec.edge_permutations.items())}
    _say(args, f"degree {degree} cover: chi {cover.euler_characteristic}, "
               f"{'connected' if report.connected else f'{report.components} components'}, "
               f"riemann-hurwitz residual {residual}")
    for cid, info in sorted(payload["cover_classes"].items()):
        _say(args, f"  class {cid}: angle {info['angle'] / math.pi:.6g}*pi over "
                   f"{info['base_class']} (local degree {info['local_degree']})")
    if args.out:
        save_surface(cover, args.out)
        _say(args, f"wrote {args.out}")
    if args.report:
        _write_json(args.report, payload)
        _say(args, f"wrote {args.report}")
    if args.json:
        _print_json(payload)
    return EXIT_OK


def cmd_experiment(args) -> int:
    surface = load_surface(args.surface, args.tolerances)
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not (isinstance(raw, dict) and isinstance(raw.get("lengths", []), list)):
        raise ConeSurfaceError(f"--config {args.config} must hold a JSON object whose "
                               "lengths are a list")
    start_key = "start" if "start" in raw else "target"
    threshold_key = "threshold" if "threshold" in raw else "eta"
    start = raw.get(start_key, {})
    lengths = [_number(v, f"lengths[{k}]") for k, v in enumerate(raw.get("lengths", []))]
    threshold = _number(raw.get(threshold_key, 0.05), threshold_key)
    window = _number(raw.get("window", 5.0), "window")
    chain_budget = _number(raw.get("chain_budget", 200), "chain_budget", integral=True)
    if not all(math.isfinite(v) for v in [*lengths, threshold, window]):
        raise ConeSurfaceError("lengths, threshold and window must be finite")
    if not lengths or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ConeSurfaceError("lengths must be a strictly increasing schedule")
    if lengths[0] <= 0:
        raise ConeSurfaceError("lengths must be positive")
    if threshold <= 0:
        raise ConeSurfaceError("threshold must be positive")
    if window <= 0:
        raise ConeSurfaceError("window must be positive")
    started = time.perf_counter()
    state = _state_from_dict(start, start_key)

    if args.scenario == "no-strips":
        # the rows come from min_singular_distance_up_to, not the trace's series
        rep = min_distance_experiment(surface, state, lengths, threshold=threshold)
        metrics = {"rows": [[L, m] for L, m in rep.rows], "threshold": threshold}
        passed = rep.passed
        for L, m in rep.rows:
            _say(args, f"  m({L:g}) = {m:.12g}")
    else:
        passed, metrics = _run_density(surface, state, lengths, window, threshold, chain_budget)
        for row in metrics["rows"]:
            _say(args, f"  L={row['length_bound']:g}: distance {row['distance']:.6g}")

    report = RunReport(
        scenario=args.scenario,
        inputs={"surface": args.surface, "config": args.config,
                "start": start, "lengths": lengths,
                "threshold": threshold, "window": window},
        metrics=metrics,
        verdicts={"passed": passed},
        wall_clock=(time.perf_counter() - started) if args.timings else None,
    )
    _write_json(args.report, report.to_dict())
    _say(args, f"{args.scenario}: {'PASS' if passed else 'FAIL'}; wrote {args.report}")
    if args.json:
        _print_json(report.to_dict())
    return EXIT_OK if passed else EXIT_FAIL


def _series_mismatches(surface, tr) -> int:
    """Rows of ``tr.min_distance_series`` that differ from the running
    minimum of the distance kernel called on every segment in turn.

    A trace from the interior has one row at 0 and one at each segment end;
    the kernel sees segment k with the arclength difference of rows k and
    k + 1 (segment k starts where the sum of the earlier |b - a| ends). A
    trace with another row count counts as one mismatch per row.
    """
    series, cap = tr.min_distance_series, surface.max_diameter
    if len(series) != len(tr.segments) + 1:
        return len(series)
    best, s0 = math.inf, 0.0
    want = []
    for k, (chart, a, b) in enumerate(tr.segments):
        cands, length = surface.singular_images(chart), series[k + 1][0] - s0
        for reach in ((0.0, length) if k == 0 else (length,)):
            best = min(best, _segment_distance(cands, a, b, length, reach))
            want.append(min(best, cap) if best < math.inf else math.inf)
        s0 += math.hypot(b[0] - a[0], b[1] - a[1])
    return sum(m != w for (_, m), w in zip(series, want))


def _rows_mismatches(surface, rep) -> int:
    """Rows of a no-strips report that differ from a rescan of its trace from
    arclength 0 for each T with the distance kernel: every segment starting
    before T, or at 0, cut at T, the minimum capped as in the rows."""
    cap, bad = surface.max_diameter, 0
    for L, m in rep.rows:
        T = min(L, rep.trace.total_length)
        best, s0 = math.inf, 0.0
        for chart, a, b in rep.trace.segments:
            if s0 >= T and s0 > 0.0:
                break
            length = math.hypot(b[0] - a[0], b[1] - a[1])
            best = min(best, _segment_distance(surface.singular_images(chart), a, b,
                                               length, min(T - s0, length)))
            s0 += length
        bad += m != (min(best, cap) if best < math.inf else math.inf)
    return bad


def cmd_selftest(args) -> int:
    import numpy as np

    seed = args.seed
    rng = np.random.default_rng(seed)
    checks: list[tuple[str, bool, str]] = []
    started = time.perf_counter()

    surfaces = {name: builder(tolerances=args.tolerances) for name, builder in BUILDERS.items()}

    worst = max(validate_gauss_bonnet(s).residual for s in surfaces.values())
    checks.append(("gauss-bonnet residual <= 1e-9 on corpus", worst <= 1e-9, f"{worst:.3e}"))

    octagon = surfaces["octagon"]
    n_traces = 20 if args.quick else 100
    worst_col, worst_add = 0.0, 0.0
    m_mismatch = row_mismatch = path_mismatch = 0
    geo = octagon.geometry["oct"]
    for _ in range(n_traces):
        w = rng.uniform(0.05, 0.6)
        v = geo.vertices[rng.integers(0, geo.n)]
        p = (geo.centroid[0] * (1 - w) + v[0] * w, geo.centroid[1] * (1 - w) + v[1] * w)
        a = rng.uniform(0.0, 2.0 * math.pi)
        st = GeodesicState("oct", p, (math.cos(a), math.sin(a)))
        length = float(rng.uniform(20.0, 60.0))
        tr = trace(octagon, st, length)
        # telemetry options never alter the path
        plain = trace(octagon, st, length, options=PLAIN_TRACE_OPTIONS)
        path_mismatch += (plain.segments, plain.transitions, plain.end_state) != (
            tr.segments, tr.transitions, tr.end_state)
        dv = develop(tr)
        worst_col = max(worst_col, dv.collinearity_residual)
        seg_sum = sum(math.hypot(b[0] - a0[0], b[1] - a0[1]) for _, a0, b in tr.segments)
        worst_add = max(worst_add, abs(seg_sum - tr.total_length))
        m_mismatch += _series_mismatches(octagon, tr)
        lengths = [f * tr.total_length for f in (0.07, 0.31, 0.5, 1.0)]
        rep = min_distance_experiment(octagon, st, lengths)
        row_mismatch += _rows_mismatches(octagon, rep)
    checks.append((f"collinearity <= 1e-8/unit over {n_traces} random octagon traces",
                   worst_col <= 1e-8, f"{worst_col:.3e}"))
    checks.append((f"arclength additivity <= 1e-7 over {n_traces} random octagon traces",
                   worst_add <= 1e-7, f"{worst_add:.3e}"))
    checks.append((f"m(T) series equals the per-segment recomputation over {n_traces} "
                   "random octagon traces", m_mismatch == 0, f"{m_mismatch} rows differ"))
    checks.append((f"no-strips rows equal a per-T rescan over {n_traces} random octagon traces",
                   row_mismatch == 0, f"{row_mismatch} rows differ"))
    checks.append((f"default and plain options trace the same path over {n_traces} random "
                   "octagon traces", path_mismatch == 0, f"{path_mismatch} paths differ"))

    sector_ok = True
    detail = []
    for name, s in surfaces.items():
        for vc in s.vertex_classes.values():
            chart, vertex, u = vc.direction_at(vc.offsets[0] + 0.5 * vc.angles[0])
            sec = continuation_sector(s, vc.id, (-u[0], -u[1]), corner=(chart, vertex))
            want = max(0.0, vc.angle - 2.0 * math.pi)
            if sec.width != want:
                sector_ok = False
                detail.append(f"{name}/{vc.id}")
    checks.append(("continuation sector width == max(0, angle - 2*pi) on corpus",
                   sector_ok, ",".join(detail) or "exact"))

    pred = predict_self_intersection(1.0, math.pi / 2.0)
    spot_ok = (abs(pred["parameter_offset"] - 1.0) < 1e-15
               and abs(pred["intersection_distance"] - math.sqrt(2.0)) < 1e-15)
    checks.append(("self-intersection closed form at (1, pi/2)", spot_ok,
                   f"t'={pred['parameter_offset']:.12g} T={pred['intersection_distance']:.12g}"))

    torus = surfaces["torus_marked"]
    conns = enumerate_saddles(torus, "v0", 5.0)
    checks.append(("48 torus saddle connections at L=5", len(conns) == 48, str(len(conns))))

    # a rational torus direction that misses the marked point recurs after its
    # length; the octagon at slope pi/10 does not recur
    rec = trace(torus, GeodesicState("sq", (0.5, 0.3), (2.0, 1.0)), 20.0,
                options=TraceOptions(stop_on_recurrence=True))
    period = rec.recurrence["period"] if rec.recurrence else math.nan
    checks.append(("torus direction (2, 1) stops on recurrence with period sqrt(5)",
                   rec.termination == "SelfRecurrence" and abs(period - math.sqrt(5.0)) <= 1e-9,
                   f"{period:.12g}"))
    far = trace(octagon, GeodesicState("oct", (0.0, 0.0), (1.0, math.pi / 10.0)), 2000.0,
                options=TraceOptions(record_min_distance=False))
    checks.append(("octagon at slope pi/10: no recurrence up to L=2000",
                   far.recurrence is None, f"{len(far.segments)} segments"))

    # density pruning never changes a row: with an infinite first ring the
    # only ring is the whole grid, so every candidate is evaluated in full
    golden = GeodesicState("sq", (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0),
                           (1.0, 0.5 + 0.5 * math.sqrt(5.0)))
    bounds = [1.0, 2.0, 3.0, 4.0, 5.0]
    pruned = density_experiment(torus, golden, bounds)
    first_ring, tracer._FIRST_RING = tracer._FIRST_RING, math.inf
    try:
        full = density_experiment(torus, golden, bounds)
    finally:
        tracer._FIRST_RING = first_ring
    same = sum(a == b for a, b in zip(pruned.rows, full.rows))
    checks.append(("density rows with pruning equal rows with every candidate evaluated "
                   "in full (marked torus, golden target, bounds 1..5)",
                   same == len(full.rows) and pruned.inventory == full.inventory,
                   f"{same} of {len(full.rows)} rows equal"))

    # the octagon's saddle set is invariant under its rotation by pi/4
    hol = [c.holonomy for c in enumerate_saddles(octagon, "v0", 2.0)]
    key = lambda vs: sorted((round(x, 7) + 0.0, round(y, 7) + 0.0) for x, y in vs)
    r = math.sqrt(0.5)
    ok = (bool(hol) and key(hol) == key((r * (x - y), r * (x + y)) for x, y in hol)
          and min(math.hypot(x, y) for x, y in hol) >= 2.0 * math.sin(math.pi / 8.0) - 1e-9)
    checks.append(("octagon saddles at L=2: rotation-invariant, none below the side",
                   ok, str(len(hol))))

    # each boundary of the horizontal cylinder is a chain of saddle connections
    cyl = find_closed_geodesic(octagon, (1.0, 0.0))
    sides = [] if cyl is None else [(cyl.witnesses[s], cyl.bounding[s]) for s in ("left", "right")]
    sums = [sum(c.length for c in conns) for _, conns in sides]
    ok = bool(sides) and all(
        len(conns) == len(ws) > 0 and abs(total - 2.0 * math.cos(math.pi / 8.0)) <= 1e-9
        for (ws, conns), total in zip(sides, sums))
    checks.append(("octagon horizontal cylinder: one bounding saddle per witness, "
                   "lengths sum to 2cos(pi/8) on each side", ok,
                   " ".join(f"{total:.12g}" for total in sums)))

    all_ok = all(ok for _, ok, _ in checks)
    for name, ok, note in checks:
        _say(args, f"[{'PASS' if ok else 'FAIL'}] {name} ({note})")
    _say(args, f"selftest seed {seed}: {'PASS' if all_ok else 'FAIL'}")

    if args.report:
        report = RunReport(
            scenario="selftest",
            inputs={"quick": args.quick},
            metrics={"checks": [{"name": n, "passed": ok, "note": note}
                                for n, ok, note in checks]},
            verdicts={"passed": all_ok},
            seed=seed,
            wall_clock=(time.perf_counter() - started) if args.timings else None,
        )
        _write_json(args.report, report.to_dict())
        _say(args, f"wrote {args.report}")
    return EXIT_OK if all_ok else EXIT_FAIL


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conesurf",
        description="Geodesics, saddle connections, cylinders, and branched covers "
                    "on Euclidean cone surfaces.")
    parser.add_argument("--tolerance-overrides", metavar="FILE",
                        help="JSON file overriding tolerance fields by name")
    parser.add_argument("--quiet", action="store_true", help="suppress console output")
    parser.add_argument("--json", action="store_true",
                        help="also print the machine-readable result to stdout")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock time in reports (non-deterministic)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check surface invariants and Gauss-Bonnet")
    p.add_argument("--surface", required=True, help="surface JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("trace", help="trace a geodesic and export CSV/SVG")
    p.add_argument("--surface", required=True)
    p.add_argument("--chart", required=True, help="starting chart id")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--dx", type=float, required=True)
    p.add_argument("--dy", type=float, required=True)
    p.add_argument("--max-length", type=float, required=True)
    p.add_argument("--stop-on-cone", action=argparse.BooleanOptionalAction, default=True,
                   help="terminate at singular cone points (default: yes)")
    p.add_argument("--recurrence", action="store_true",
                   help="detect state recurrence (closed geodesics)")
    p.add_argument("--svg", metavar="OUT.svg", help="developed-picture rendering")
    p.add_argument("--csv", metavar="OUT.csv",
                   help="columns: arclength, chart, x, y, m_of_T")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("saddles", help="enumerate saddle connections up to a length")
    p.add_argument("--surface", required=True)
    p.add_argument("--max-length", type=float, required=True)
    p.add_argument("--base", default="all",
                   help="base vertex class id, or 'all' (default)")
    p.add_argument("--csv", metavar="OUT.csv", help="columns: start, end, length, hx, hy")
    p.add_argument("--spectrum", metavar="OUT.csv", help="columns: angle, multiplicity")
    p.set_defaults(func=cmd_saddles)

    p = sub.add_parser("cylinders", help="find a closed geodesic and its strip widths")
    p.add_argument("--surface", required=True)
    p.add_argument("--direction", help="dx,dy")
    p.add_argument("--from-saddle", type=int,
                   help="take the direction of the i-th enumerated connection")
    p.add_argument("--max-length", type=float, default=10.0,
                   help="enumeration bound used with --from-saddle (default 10)")
    p.add_argument("--chart", help="optional launch chart (with --x/--y)")
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--report", metavar="OUT.json")
    p.set_defaults(func=cmd_cylinders)

    p = sub.add_parser("density", help="approximate a target trajectory by closed ones")
    p.add_argument("--surface", required=True)
    p.add_argument("--target-spec", required=True,
                   help="JSON file {chart, x, y, dx, dy}")
    p.add_argument("--lengths", required=True, help="comma-separated length schedule")
    p.add_argument("--window", type=float, default=5.0)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--chain-budget", type=int, default=200)
    p.add_argument("--report", metavar="OUT.json", default="density_report.json")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("cover", help="build a branched cover from monodromy data")
    p.add_argument("--surface", required=True)
    p.add_argument("--degree", default="auto",
                   help="integer degree, or 'auto' for the smallest odd degree "
                        "unfolding every small cone angle past 2*pi")
    p.add_argument("--monodromy", default="search",
                   help="JSON file mapping gluing index to a one-line permutation, "
                        "or 'search' (default) to find one by backtracking")
    p.add_argument("--out", metavar="COVER.json", help="write the cover surface")
    p.add_argument("--report", metavar="REPORT.json", help="write the branch report")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("experiment", help="run a configured scenario with PASS/FAIL verdict")
    p.add_argument("scenario", choices=["no-strips", "density"])
    p.add_argument("--surface", required=True)
    p.add_argument("--config", required=True, help="experiment JSON config")
    p.add_argument("--report", metavar="OUT.json", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("selftest", help="run seeded sanity checks on the bundled corpus")
    p.add_argument("--seed", type=int, default=_SELFTEST_SEED)
    p.add_argument("--quick", action="store_true", help="smaller random samples")
    p.add_argument("--report", metavar="OUT.json")
    p.set_defaults(func=cmd_selftest)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "experiment" and args.report is None:
        args.report = f"{args.scenario.replace('-', '_')}_report.json"
    try:
        args.tolerances = (load_tolerance_overrides(args.tolerance_overrides)
                           if args.tolerance_overrides else DEFAULT_TOLERANCES)
        return args.func(args)
    except (ConeSurfaceError, FileNotFoundError, ValueError) as exc:
        # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
