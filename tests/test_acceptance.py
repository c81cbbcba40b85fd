"""Acceptance gate: one end-to-end check per shipped guarantee.

Every test emits exactly one ``[PASS]``/``[FAIL]`` line on the real stdout
(outside pytest's capture) so the verdicts stay visible in any run log, and
asserts the same condition so the suite stays red if a guarantee regresses.
Randomized checks use fixed seeds; wall-clock budgets are asserted where the
guarantee includes one.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

import oracles
from conesurf import (
    GeodesicState,
    build_cover,
    continuation_sector,
    density_experiment,
    develop,
    enumerate_saddles,
    find_closed_geodesic,
    find_monodromy,
    lift_trace,
    min_distance_experiment,
    offset_state,
    predict_self_intersection,
    project_trace,
    riemann_hurwitz_check,
    strip_quadrangle,
    trace,
    two_sided_trace,
    validate_gauss_bonnet,
)
from conesurf.corpus import (
    doubled_right_triangle,
    flat_torus,
    marked_torus,
    pillowcase,
    regular_octagon,
)

SEED = 20260814
GOLDEN_POINT = (0.41421356237309515, 0.7320508075688772)


def _verdict(capsys, name: str, ok: bool, detail: str) -> bool:
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{tag}] {name}: {detail}", flush=True)
    return ok


def _corpus():
    return [("flat_torus", flat_torus()), ("marked_torus", marked_torus()),
            ("octagon", regular_octagon()), ("pillowcase", pillowcase())]


def _golden_direction():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    n = math.hypot(1.0, phi)
    return (1.0 / n, phi / n)


def test_01_gauss_bonnet_on_corpus(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for _, surface in _corpus():
        worst = max(worst, validate_gauss_bonnet(surface).residual)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    assert _verdict(capsys, "curvature accounting", ok,
                    f"worst residual {worst:.2e} over 4 surfaces in {elapsed:.2f}s")


def test_02_tracer_soundness_random_octagon_traces(capsys):
    surface = regular_octagon()
    apothem = math.cos(math.pi / 8.0)
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst_col, worst_len = 0.0, 0.0
    for _ in range(1000):
        r = 0.85 * apothem * math.sqrt(rng.uniform(0.0, 1.0))
        pos_ang = rng.uniform(-math.pi, math.pi)
        dir_ang = rng.uniform(-math.pi, math.pi)
        length = rng.uniform(1.0, 100.0)
        state = GeodesicState("oct", (r * math.cos(pos_ang), r * math.sin(pos_ang)),
                              (math.cos(dir_ang), math.sin(dir_ang)))
        result = trace(surface, state, length)
        developed = develop(result)
        # collinearity_residual is already per unit length
        worst_col = max(worst_col, developed.collinearity_residual)
        worst_len = max(worst_len, developed.length_residual)
    elapsed = time.perf_counter() - t0
    ok = worst_col <= 1e-8 and worst_len <= 1e-7 and elapsed < 30.0
    assert _verdict(capsys, "tracer soundness", ok,
                    f"1000 traces: collinearity {worst_col:.2e}/unit, "
                    f"additivity {worst_len:.2e}, {elapsed:.1f}s")


def test_03_continuation_sector_width_law(capsys):
    failures = []
    for name, surface in _corpus():
        for vc in surface.vertex_classes.values():
            chart, vertex, u = vc.direction_at(vc.offsets[0] + 0.5 * vc.angles[0])
            sector = continuation_sector(surface, vc.id, (-u[0], -u[1]),
                                         corner=(chart, vertex))
            want = max(0.0, vc.angle - 2.0 * math.pi)
            if sector.width != want:
                failures.append((name, vc.id, sector.width, want))
    ok = not failures
    assert _verdict(capsys, "sector width law", ok,
                    "width == max(0, angle - 2*pi) exactly for all 7 corpus classes"
                    if ok else f"mismatches: {failures}")


def test_04_strip_quadrangle_formulas(capsys):
    rng = np.random.default_rng(SEED)
    worst_rel, min_margin = 0.0, math.inf
    for _ in range(10_000):
        delta = rng.uniform(0.01, 10.0)
        eps = delta * rng.uniform(1e-6, 1.0)
        theta = rng.uniform(1e-6, math.pi / 2.0 - 1e-6)
        quad = strip_quadrangle(eps, delta, theta)
        width_want = delta + eps / (2.0 * math.cos(theta))
        length_want = eps / (2.0 * math.sin(theta))
        worst_rel = max(worst_rel,
                        abs(quad.width - width_want) / width_want,
                        abs(quad.length - length_want) / length_want)
        min_margin = min(min_margin, quad.width - (delta + eps / 2.0))
    spot = strip_quadrangle(1.0, 2.0, math.pi / 6.0)
    spot_ok = (math.isclose(spot.width, 2.0 + 1.0 / math.sqrt(3.0), abs_tol=1e-12)
               and math.isclose(spot.length, 1.0, abs_tol=1e-12))
    ok = worst_rel <= 1e-12 and min_margin > 0.0 and spot_ok
    assert _verdict(capsys, "strip quadrangle formulas", ok,
                    f"10^4 samples: worst rel err {worst_rel:.2e}, "
                    f"strict width margin {min_margin:.2e}, spot ok={spot_ok}")


def test_05_self_intersection_past_right_angle_apex(capsys):
    surface = doubled_right_triangle()
    apex = next(vc for vc in surface.vertex_classes.values()
                if math.isclose(vc.angle, math.pi / 2.0, rel_tol=1e-12))
    c0 = 1.0
    chart, vertex, u = apex.direction_at(apex.offsets[0] + math.pi / 16.0)
    foot = (c0 * u[0], c0 * u[1])
    path = two_sided_trace(surface, GeodesicState(chart, foot, (-u[1], u[0]), 0.0), 3.0)

    hits = []
    def arcs(result):
        out, s = [], 0.0
        for seg_chart, a, b in result.segments:
            out.append((seg_chart, a, b, s))
            s += math.dist(a, b)
        return out
    for cf, af, bf, sf in arcs(path.forward):
        for cb, ab, bb, sb in arcs(path.backward):
            if cf != cb:
                continue
            hit = oracles.segment_intersection(af, bf, ab, bb)
            if hit is None:
                continue
            t_f = sf + hit[0] * math.dist(af, bf)
            t_b = sb + hit[1] * math.dist(ab, bb)
            if t_f < 1e-9 and t_b < 1e-9:
                continue  # shared start point of the two branches
            hits.append((t_f, t_b, hit[2]))

    predicted = predict_self_intersection(c0, apex.angle)
    ok = len(hits) == 1
    if ok:
        t_f, t_b, point = hits[0]
        ok = (math.isclose(t_f, predicted["parameter_offset"], abs_tol=1e-6)
              and math.isclose(t_b, predicted["parameter_offset"], abs_tol=1e-6)
              and math.isclose(math.hypot(*point),
                               predicted["intersection_distance"], abs_tol=1e-6))
        detail = (f"t'=({t_f:.8f}, {t_b:.8f}) vs 1, "
                  f"apex distance {math.hypot(*point):.8f} vs sqrt(2)")
    else:
        detail = f"expected exactly one crossing, found {len(hits)}"
    assert _verdict(capsys, "near-miss self-intersection", ok, detail)


def test_06_saddle_enumeration_matches_lattice_oracle(capsys):
    surface = marked_torus()
    t0 = time.perf_counter()
    all_equal, counts = True, []
    for length in (1.5, 5.0, 10.0, 20.0):
        found = enumerate_saddles(surface, "v0", length)
        got = sorted((round(c.holonomy[0], 9), round(c.holonomy[1], 9))
                     for c in found)
        want = sorted((float(p), float(q))
                      for p, q in oracles.primitive_vectors(length))
        all_equal = all_equal and got == want
        counts.append(len(found))
    elapsed = time.perf_counter() - t0
    ok = all_equal and elapsed < 60.0
    assert _verdict(capsys, "saddle enumeration", ok,
                    f"holonomy multisets equal at L=1.5/5/10/20 "
                    f"({'/'.join(map(str, counts))} connections) in {elapsed:.2f}s")


def test_07_min_distance_decay_on_torus_and_octagon(capsys):
    t0 = time.perf_counter()
    golden = min_distance_experiment(
        marked_torus(), GeodesicState("sq", GOLDEN_POINT, _golden_direction()),
        [100.0])
    m100 = golden.rows[-1][1]
    lattice = oracles.lattice_segment_min_distance(GOLDEN_POINT,
                                                   _golden_direction(), 100.0)
    direction = (math.cos(1.0), math.sin(1.0))
    octagon = min_distance_experiment(
        regular_octagon(), GeodesicState("oct", (0.0, 0.0), direction), [500.0])
    m500 = octagon.rows[-1][1]
    corridor = oracles.octagon_min_distance((0.0, 0.0), direction, 500.0)
    elapsed = time.perf_counter() - t0
    ok = (m100 < 0.02 and abs(m100 - lattice) <= 1e-9
          and m500 < 0.05 and abs(m500 - corridor) <= 1e-9
          and elapsed < 60.0)
    assert _verdict(capsys, "no wide strips", ok,
                    f"golden m(100)={m100:.6f} (oracle gap {abs(m100 - lattice):.1e}), "
                    f"octagon m(500)={m500:.6f} (oracle gap {abs(m500 - corridor):.1e}), "
                    f"{elapsed:.1f}s")


def test_08_density_of_closed_approximants(capsys):
    surface = marked_torus()
    target = GeodesicState("sq", GOLDEN_POINT, _golden_direction())
    t0 = time.perf_counter()
    report = density_experiment(surface, target, [1, 2, 3, 5, 8, 13, 21, 34, 55],
                                window=5.0, eta=0.05)
    elapsed = time.perf_counter() - t0
    values = [row["distance"] for row in report.rows]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    ok = (report.passed and decreasing and report.final_distance < 0.05
          and elapsed < 60.0)
    assert _verdict(capsys, "closed-approximant density", ok,
                    f"distance {values[0]:.4f} -> {report.final_distance:.6f} "
                    f"strictly decreasing over 9 bounds, {elapsed:.1f}s")


def test_09_branched_triple_cover_roundtrip(capsys):
    base = pillowcase()
    spec = find_monodromy(base, 3)
    cover, report = build_cover(base, spec)
    angles_ok = all(math.isclose(info["angle"], 3.0 * math.pi, rel_tol=1e-12)
                    for info in report.cover_classes.values())
    rh = riemann_hurwitz_check(base, cover, report)

    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(1000):
        sheet = rng.randint(1, 3)
        front = rng.random() < 0.5
        chart = ("front" if front else "back") + f"@{sheet}"
        x = rng.uniform(0.1, 0.9)
        y = rng.uniform(0.1, 0.9) * (1.0 if front else -1.0)
        ang = rng.uniform(-math.pi, math.pi)
        g = trace(cover, GeodesicState(chart, (x, y),
                                       (math.cos(ang), math.sin(ang))),
                  rng.uniform(0.05, 0.4))
        lifted = lift_trace(cover, project_trace(g), start_sheet=sheet)
        worst = max(worst,
                    0.0 if lifted.end_state.chart == g.end_state.chart else math.inf,
                    abs(lifted.end_state.point[0] - g.end_state.point[0]),
                    abs(lifted.end_state.point[1] - g.end_state.point[1]),
                    abs(lifted.total_length - g.total_length))
    ok = (angles_ok and rh == 0 and report.cover_chi == -2
          and report.connected and worst <= 1e-9)
    assert _verdict(capsys, "branched triple cover", ok,
                    f"4 lifted angles 3*pi, Riemann-Hurwitz residual {rh}, "
                    f"chi={report.cover_chi}, lift/project gap {worst:.1e} "
                    f"over 1000 segments")


def test_10_cylinder_widths_and_offset_reclosure(capsys):
    surface = marked_torus()
    directions = []
    for p in range(0, 6):
        for q in range(-5, 6):
            if p * p + q * q > 25 or (p, q) == (0, 0):
                continue
            if p == 0 and q != 1:
                continue
            if p > 0 and math.gcd(p, abs(q)) != 1:
                continue
            directions.append((p, q))
    t0 = time.perf_counter()
    worst_width, worst_reclose = 0.0, 0.0
    for p, q in directions:
        cyl = find_closed_geodesic(surface, (float(p), float(q)),
                                   max_circumference=30.0)
        assert cyl is not None, (p, q)
        worst_width = max(worst_width, abs(cyl.width_left + cyl.width_right
                                           - 1.0 / math.hypot(p, q)))
        for fraction in (0.25, 0.5, 0.75):
            shifted = offset_state(surface, cyl.start,
                                   fraction * cyl.width_left)
            again = find_closed_geodesic(surface, (float(p), float(q)),
                                         (shifted.chart, shifted.point),
                                         max_circumference=30.0)
            assert again is not None, (p, q, fraction)
            worst_reclose = max(worst_reclose,
                                abs(again.circumference - cyl.circumference))
    elapsed = time.perf_counter() - t0
    ok = worst_width <= 1e-9 and worst_reclose <= 1e-9 and elapsed < 60.0
    assert _verdict(capsys, "cylinder widths", ok,
                    f"{len(directions)} primitive directions: width-sum err "
                    f"{worst_width:.1e}, offset re-closure err {worst_reclose:.1e}, "
                    f"{elapsed:.2f}s")
