"""Geodesic tracing: events, development, sectors, distances, near-miss law."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conesurf import (
    GeodesicState,
    TraceOptions,
    build_cover,
    build_surface,
    continuation_sector,
    develop,
    find_monodromy,
    geodesic_distance,
    min_distance_experiment,
    predict_self_intersection,
    trace,
    two_sided_trace,
)
from conesurf import covering, cylinders, saddles, tracer
from conesurf.config import DEFAULT_TOLERANCES, load_tolerance_overrides
from conesurf.corpus import UNIT_SQUARE, marked_torus, regular_octagon
from conesurf.errors import (
    AngleOutOfRange,
    DomainError,
    IncomparableTraces,
    InsufficientPath,
    StartOutsideSurface,
    UnknownVertexClass,
    ZeroDirection,
)
from conesurf.tracer import min_singular_distance_up_to

import oracles

SQRT2 = math.sqrt(2.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def state(chart, x, y, dx, dy):
    n = math.hypot(dx, dy)
    return GeodesicState(chart, (x, y), (dx / n, dy / n), 0.0)


# --------------------------------------------------------------------------
# Event transcripts on the torus
# --------------------------------------------------------------------------

def test_horizontal_torus_transcript(torus):
    res = trace(torus, state("sq", 0.5, 0.5, 1, 0), 3.0)
    assert res.termination == "MaxLengthReached"
    assert [(e.kind, e.arclength) for e in res.events] == [
        ("EdgeCross", 0.5),
        ("EdgeCross", 1.5),
        ("SelfRecurrence", 1.5),     # detected at the crossing; the period is 1
        ("EdgeCross", 2.5),
        ("MaxLengthReached", 3.0),
    ]
    assert res.end_state.chart == "sq"
    assert math.dist(res.end_state.point, (0.5, 0.5)) <= 1e-12
    assert res.end_state.direction == (1.0, 0.0)
    assert res.recurrence is not None
    assert math.isclose(res.recurrence["period"], 1.0)
    assert res.recurrence["matched_at"] < res.recurrence["detected_at"]


def test_edge_cross_detail_names_both_sides(torus):
    res = trace(torus, state("sq", 0.5, 0.5, 0, 1), 0.75)
    cross = next(e for e in res.events if e.kind == "EdgeCross")
    d = cross.detail
    assert d["from_chart"] == d["to_chart"] == "sq"
    assert {d["from_edge"], d["to_edge"]} == {0, 2}
    assert d["side"] in ("a", "b")
    assert torus.gluings[d["gluing"]].index == d["gluing"]


def test_diagonal_hits_marked_cone_point(mtorus):
    res = trace(mtorus, state("sq", 0.5, 0.5, 1, 1), 3.0)
    assert res.termination == "ConeHit"
    (hit,) = [e for e in res.events if e.kind == "ConeHit"]
    assert math.isclose(hit.arclength, SQRT2 / 2, rel_tol=1e-12)
    assert hit.detail["terminal"] is True
    assert hit.detail["vertex_class"] == "v0"
    assert math.isclose(res.total_length, SQRT2 / 2, rel_tol=1e-12)


def test_diagonal_passes_unmarked_corner(torus):
    res = trace(torus, state("sq", 0.5, 0.5, 1, 1), 3.0)
    assert res.termination == "MaxLengthReached"
    passes = [e for e in res.events if e.kind == "VertexPass"]
    assert [round(e.arclength, 12) for e in passes] == [
        round(SQRT2 / 2, 12), round(3 * SQRT2 / 2, 12)]
    assert all(not e.detail["terminal"] for e in passes)
    # Straight continuation through a 2*pi corner preserves the direction.
    assert math.isclose(res.end_state.direction[0], 1 / SQRT2, abs_tol=1e-12)
    assert math.isclose(res.end_state.direction[1], 1 / SQRT2, abs_tol=1e-12)


def test_ray_cutting_a_corner_within_tau_hit_crosses_the_edge(mtorus):
    # Aimed 3e-9 past the marked point at (-1, 0): after two crossings the
    # ray enters at (3.2e-9, 1) and leaves through x = 0 at 5e-10 below the
    # corner (0, 1), moving away from it, so it has no incoming coordinate
    # there and crosses the edge instead of hitting the corner.
    res = trace(mtorus, GeodesicState("sq", (0.18996196406382287, 0.18996196406382287),
                                      (-1.1899619639853278, -0.18996196455553152)), 5.0)
    assert res.termination == "MaxLengthReached"
    assert not [e for e in res.events if e.kind == "ConeHit"]
    cid, a, b = res.segments[2]
    assert a[1] == 1.0 and b[0] == 0.0 and 0.0 < 1.0 - b[1] < 1e-9
    assert develop(res).collinearity_residual <= 1e-15


def test_trace_start_validation(torus):
    with pytest.raises(StartOutsideSurface):
        trace(torus, GeodesicState("sq", (1.5, 0.5), (1.0, 0.0), 0.0), 1.0)
    with pytest.raises(StartOutsideSurface):
        trace(torus, GeodesicState("nope", (0.5, 0.5), (1.0, 0.0), 0.0), 1.0)
    with pytest.raises(ZeroDirection):
        trace(torus, GeodesicState("sq", (0.5, 0.5), (0.0, 0.0), 0.0), 1.0)


def test_trace_start_check_uses_tau_hit():
    tight = marked_torus(tolerances=dataclasses.replace(DEFAULT_TOLERANCES, tau_hit=1e-12))
    with pytest.raises(StartOutsideSurface):
        trace(tight, GeodesicState("sq", (-1e-10, 0.5), (1.0, 0.3)), 1.0)
    trace(tight, GeodesicState("sq", (0.0, 0.5), (1.0, 0.3)), 1.0)


# --------------------------------------------------------------------------
# State recurrence
# --------------------------------------------------------------------------

TAU_REC = DEFAULT_TOLERANCES.tau_rec


class CheckedIndex(tracer._CrossingIndex):
    """The crossing index, checked against the linear-scan oracle at every
    match, for use in place of the library's inside ``trace``."""

    def __init__(self, tau_rec):
        super().__init__(tau_rec)
        self.rows = {}

    def match(self, chart, p, d, s):
        got = super().match(chart, p, d, s)
        assert got == oracles.first_recurrence(self.rows, chart, p, d, s, self.tau)
        return got

    def add(self, chart, p, d, s):
        super().add(chart, p, d, s)
        self.rows.setdefault(chart, []).append([p[0], p[1], d[0], d[1], s])


def _feed(tau_rec, stream):
    """Match and then store each (chart, x, y, dx, dy, ds) state, s summing ds."""
    index = CheckedIndex(tau_rec)
    s = 0.0
    for chart, x, y, dx, dy, ds in stream:
        s += ds
        index.match(chart, (x, y), (dx, dy), s)
        index.add(chart, (x, y), (dx, dy), s)


# components near the boundaries of the index's own cells, on both sides of
# 0, offset so that pairs straddle a boundary, sit exactly at the open bound,
# and match several rows at once
CELL = tracer._CrossingIndex(TAU_REC).h
_grid_value = st.builds(lambda k, off: CELL * k + off,
                        st.integers(-1, 1),
                        st.sampled_from((0.0, 0.999 * TAU_REC, -0.999 * TAU_REC,
                                         TAU_REC, -TAU_REC)))
_grid_state = st.tuples(st.sampled_from(("A", "B")), _grid_value, _grid_value,
                        _grid_value, _grid_value,
                        st.sampled_from((0.0, 5e-10, 1e-9, 2e-9, 1.0)))


def _on_x(*xs):
    return [("A", x, 0.0, 0.0, 0.0, 1.0) for x in xs]


@settings(max_examples=300, deadline=None)
@given(st.lists(_grid_state, min_size=1, max_size=80))
# two matches on both sides of a cell boundary: the earlier one wins, in
# the cell probed last or first
@example(_on_x(0.999 * TAU_REC, -0.999 * TAU_REC, 0.0))
@example(_on_x(-0.999 * TAU_REC, 0.999 * TAU_REC, 0.0))
# the only match lies across a cell boundary from the query
@example(_on_x(-0.999 * TAU_REC, 0.0))
@example(_on_x(CELL - 0.999 * TAU_REC, CELL))
# a difference of exactly tau_rec does not match
@example(_on_x(0.0, TAU_REC))
def test_crossing_index_matches_linear_scan(stream):
    _feed(TAU_REC, stream)


TAU_REC_EDGES = (0, -1, 5e-324, 1e-300, 10)


@pytest.mark.parametrize("tau_rec", TAU_REC_EDGES)
def test_crossing_index_at_edge_tolerances(tau_rec):
    pool = (0.0, 5e-324, 1e-300, 0.25, 0.25 + 1e-7, 0.25 + 2e-7, 3.0, 12.0, 1e3)
    rng = random.Random(8)
    _feed(tau_rec, [(rng.choice("AB"), *(rng.choice(pool) for _ in range(4)),
                     rng.choice((0.0, 1e-9, 1.0))) for _ in range(400)])


@pytest.mark.parametrize("tau_rec", TAU_REC_EDGES)
def test_trace_recurrence_at_edge_tolerances(tau_rec, tmp_path, monkeypatch):
    overrides = tmp_path / "tol.json"
    overrides.write_text(json.dumps({"tau_rec": tau_rec}))
    surface = marked_torus(tolerances=load_tolerance_overrides(overrides))
    monkeypatch.setattr(tracer, "_CrossingIndex", CheckedIndex)
    res = trace(surface, state("sq", 0.5, 0.3, 2, 1), 20.0)
    assert res.termination == "MaxLengthReached"
    assert (res.recurrence is None) == (tau_rec <= 0)


def test_stop_on_recurrence_requires_detection(mtorus):
    with pytest.raises(DomainError, match="detect_recurrence"):
        trace(mtorus, state("sq", 0.5, 0.3, 2, 1), 20.0,
              options=TraceOptions(stop_on_recurrence=True, detect_recurrence=False))


def test_stop_on_recurrence_reports_the_period(mtorus):
    res = trace(mtorus, state("sq", 0.5, 0.3, 2, 1), 20.0,
                options=TraceOptions(stop_on_recurrence=True))
    assert res.termination == "SelfRecurrence"
    assert math.isclose(res.recurrence["period"], math.sqrt(5.0), abs_tol=1e-9)
    assert res.end_state.arclength == res.recurrence["detected_at"]


# --------------------------------------------------------------------------
# Development into the plane
# --------------------------------------------------------------------------

def test_develop_straightens_torus_loop(torus):
    res = trace(torus, state("sq", 0.5, 0.5, 1, 0), 3.0)
    dev = develop(res)
    assert math.dist(dev.points[-1], (3.5, 0.5)) <= 1e-12
    assert dev.collinearity_residual <= 1e-12
    assert dev.length_residual <= 1e-12
    assert len(dev.isometries) == len(res.segments)


def test_develop_long_octagon_path(octagon):
    res = trace(octagon, state("oct", 0.0, 0.0, 1.0, math.pi / 10), 50.0)
    dev = develop(res)
    assert dev.collinearity_residual <= 1e-8 * max(1.0, res.total_length)
    assert dev.length_residual <= 1e-7
    # Independent high-precision recomposition of the same transcript.
    assert oracles.recompose_development(res) <= 1e-6


def test_transitions_map_segment_endpoints(octagon):
    res = trace(octagon, state("oct", 0.1, 0.2, 3.0, 1.0), 10.0)
    assert len(res.transitions) == len(res.segments) - 1
    for k, iso in enumerate(res.transitions):
        end_prev = res.segments[k][2]
        start_next = res.segments[k + 1][1]
        assert math.dist(iso.apply(start_next), end_prev) <= 1e-9


# --------------------------------------------------------------------------
# Continuation sectors
# --------------------------------------------------------------------------

def _mid_wedge_incoming(surface, class_id, wedge=0):
    vc = surface.vertex_classes[class_id]
    chart, vertex, u = vc.direction_at(vc.offsets[wedge] + 0.5 * vc.angles[wedge])
    return (chart, vertex), (-u[0], -u[1])


def test_sector_width_law(mtorus, octagon, pcase):
    # Width is exactly max(0, angle - 2*pi).
    corner, incoming = _mid_wedge_incoming(octagon, "v0")
    sec = continuation_sector(octagon, "v0", incoming, corner=corner)
    assert sec.width == 4 * math.pi
    assert sec.angle == 6 * math.pi

    corner, incoming = _mid_wedge_incoming(pcase, "v0")
    assert continuation_sector(pcase, "v0", incoming, corner=corner).width == 0.0

    corner, incoming = _mid_wedge_incoming(mtorus, "v0")
    sec = continuation_sector(mtorus, "v0", incoming, corner=corner)
    assert sec.width == 0.0
    # The empty sector is centered on the straight continuation.
    straight = math.fmod(sec.incoming_coordinate + sec.angle / 2, sec.angle)
    assert math.isclose(sec.start, straight, rel_tol=1e-12)


def test_sector_unknown_class(torus):
    with pytest.raises(UnknownVertexClass):
        continuation_sector(torus, "v99", (1.0, 0.0), corner=("sq", 0))


def test_sector_rejects_direction_outside_wedge(octagon):
    corner, incoming = _mid_wedge_incoming(octagon, "v0")
    with pytest.raises(ValueError):
        continuation_sector(octagon, "v0", (-incoming[0], -incoming[1]), corner=corner)


# --------------------------------------------------------------------------
# Self-intersection near a small cone point
# --------------------------------------------------------------------------

def test_predicted_self_intersection_spots():
    out = predict_self_intersection(1.0, math.pi / 2)
    assert math.isclose(out["parameter_offset"], 1.0, rel_tol=1e-12)
    assert math.isclose(out["intersection_distance"], SQRT2, rel_tol=1e-12)
    out = predict_self_intersection(2.0, 2 * math.pi / 3)
    assert math.isclose(out["parameter_offset"], 2 * math.sqrt(3.0), rel_tol=1e-12)
    assert math.isclose(out["intersection_distance"], 4.0, rel_tol=1e-12)


@pytest.mark.parametrize("bad", [0.0, math.pi, -0.25, 4.0])
def test_predicted_self_intersection_domain(bad):
    with pytest.raises(AngleOutOfRange):
        predict_self_intersection(1.0, bad)


def find_self_intersections(path):
    """All transverse crossings between the forward and backward branches.

    Returns (forward_arclength, backward_arclength, chart, point) tuples,
    skipping the shared start point.
    """
    hits = []

    def arcs(result):
        out, s = [], 0.0
        for chart, a, b in result.segments:
            out.append((chart, a, b, s))
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
                continue  # the branches share their start
            hits.append((t_f, t_b, cf, hit[2]))
    return hits


def test_traced_self_intersection_matches_prediction(dtriangle):
    # Geodesic passing the pi/2 cone point (chart origin) at distance 1.
    apex = next(vc for vc in dtriangle.vertex_classes.values()
                if math.isclose(vc.angle, math.pi / 2, rel_tol=1e-12))
    c0 = 1.0
    chart, vertex, u = apex.direction_at(apex.offsets[0] + math.pi / 16)
    foot = (c0 * u[0], c0 * u[1])
    perp = (-u[1], u[0])
    path = two_sided_trace(dtriangle, GeodesicState(chart, foot, perp, 0.0), 3.0)

    hits = find_self_intersections(path)
    assert len(hits) == 1
    t_f, t_b, hit_chart, point = hits[0]
    predicted = predict_self_intersection(c0, apex.angle)
    # Arc length from the closest-approach foot, on both branches.
    assert math.isclose(t_f, predicted["parameter_offset"], abs_tol=1e-6)
    assert math.isclose(t_b, predicted["parameter_offset"], abs_tol=1e-6)
    # Both charts place the apex at their origin.
    assert math.isclose(math.hypot(*point), predicted["intersection_distance"],
                        abs_tol=1e-6)


# --------------------------------------------------------------------------
# Distance to the singular set along a trajectory
# --------------------------------------------------------------------------

def test_min_distance_series_horizontal(mtorus):
    rep = min_distance_experiment(mtorus, state("sq", 0.5, 0.5, 1, 0),
                                  [1.0, 2.0, 5.0], threshold=0.6)
    assert [(L, round(m, 12)) for L, m in rep.rows] == [
        (1.0, 0.5), (2.0, 0.5), (5.0, 0.5)]
    assert rep.passed
    rep = min_distance_experiment(mtorus, state("sq", 0.5, 0.5, 1, 0),
                                  [1.0], threshold=0.4)
    assert not rep.passed


def test_min_distance_series_non_increasing(mtorus):
    start = state("sq", SQRT2 - 1, math.sqrt(3) - 1, 1, GOLDEN)
    rep = min_distance_experiment(mtorus, start, [2.0, 5.0, 10.0, 20.0])
    values = [m for _, m in rep.rows]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    tr = trace(mtorus, start, 20.0)
    assert math.isclose(tr.min_distance_at(20.0), values[-1], rel_tol=1e-9)
    assert tr.min_distance_at(2.0) >= tr.min_distance_at(20.0)


def test_min_distance_matches_lattice_oracle(mtorus):
    start = (SQRT2 - 1, math.sqrt(3) - 1)
    direction = (1.0 / math.hypot(1.0, GOLDEN), GOLDEN / math.hypot(1.0, GOLDEN))
    rep = min_distance_experiment(
        mtorus, GeodesicState("sq", start, direction, 0.0), [5.0, 10.0, 25.0])
    for L, m in rep.rows:
        expected = oracles.lattice_segment_min_distance(start, direction, L)
        assert math.isclose(m, expected, rel_tol=0, abs_tol=1e-9)
    with pytest.raises(DomainError, match="positive"):
        min_distance_experiment(mtorus, GeodesicState("sq", start, direction, 0.0), [])


def _random_start(surface, rng):
    chart = rng.choice(sorted(surface.charts))
    geo = surface.geometry[chart]
    v = geo.vertices[rng.randrange(geo.n)]
    w = rng.uniform(0.0, 0.9)
    point = (geo.centroid[0] * (1 - w) + v[0] * w, geo.centroid[1] * (1 - w) + v[1] * w)
    ang = rng.uniform(-math.pi, math.pi)
    return GeodesicState(chart, point, (math.cos(ang), math.sin(ang)), 0.0)


@pytest.fixture(scope="module")
def triple_cover(pcase):
    return build_cover(pcase, find_monodromy(pcase, 3))[0]


@pytest.mark.parametrize("name, length", [("octagon", 200.0), ("mtorus", 100.0),
                                          ("triple_cover", 60.0)])
def test_min_distance_at_segment_ends_matches_recomputation(name, length, request):
    surface = request.getfixturevalue(name)
    rng = random.Random(20260814)
    for _ in range(8):
        tr = trace(surface, _random_start(surface, rng), length)
        # one sample at 0, then one per segment except the zero-length hops
        assert tr.min_distance_series[0][0] == 0.0
        assert len(tr.min_distance_series) == 1 + sum(a != b for _, a, b in tr.segments)
        s = 0.0
        for _, a, b in tr.segments:
            s += math.dist(a, b)
            m_series = tr.min_distance_at(s)
            m_direct = min_singular_distance_up_to(surface, tr, s)
            # Both evaluate the same closed form, which works with squared
            # distances: |w - p0|^2 - t^2 cancels near a cone point, so the two
            # arclength conventions (ray parameter vs segment hypot) agree to
            # 1e-12 in m^2, i.e. to 1e-12 / (2 m) in m itself.
            assert abs(m_series ** 2 - m_direct ** 2) <= 1e-12, (s, m_series, m_direct)


def _grazing_start(surface, rng):
    """A random start aimed within 3e-9 of one of its chart's singular images:
    the distance kernel's cancellation error is largest on such segments, and
    the aims within tau_hit of a corner end in a cone hit."""
    start = _random_start(surface, rng)
    (x, y), cands = start.point, surface.singular_images(start.chart)
    wx, wy = cands[rng.randrange(len(cands))]
    dx, dy = wx - x, wy - y
    off = rng.uniform(-3e-9, 3e-9) / math.hypot(dx, dy)
    return GeodesicState(start.chart, start.point, (dx - off * dy, dy + off * dx), 0.0)


def _hop_start(surface, rng):
    """A start at an edge midpoint of a random chart, pointing out of the
    chart: the trace begins with a zero-length hop into the partner chart."""
    chart = rng.choice(sorted(surface.charts))
    verts = surface.geometry[chart].vertices
    k = rng.randrange(len(verts))
    (ax, ay), (bx, by) = verts[k], verts[(k + 1) % len(verts)]
    ex, ey = bx - ax, by - ay
    slant = rng.uniform(-0.8, 0.8)
    return GeodesicState(chart, ((ax + bx) / 2.0, (ay + by) / 2.0),
                         (ey + slant * ex, -ex + slant * ey), 0.0)


# --------------------------------------------------------------------------
# The stepper against the reference stepper, bit for bit
# --------------------------------------------------------------------------

def _corner_start(surface, rng):
    """A random start aimed within 3e-9 of one of its own chart's corners:
    aims within tau_hit meet the corner (a cone hit, or a flat passage), the
    others graze it and cross an edge next to it."""
    start = _random_start(surface, rng)
    (x, y), corners = start.point, surface.geometry[start.chart].vertices
    wx, wy = corners[rng.randrange(len(corners))]
    dx, dy = wx - x, wy - y
    off = rng.uniform(-3e-9, 3e-9) / math.hypot(dx, dy)
    return GeodesicState(start.chart, start.point, (dx - off * dy, dy + off * dx), 0.0)


def _rational_start(surface, rng):
    """A random start in a rational direction (p, q): periodic on the tori."""
    start = _random_start(surface, rng)
    return dataclasses.replace(start, direction=(float(rng.randint(-3, 3)),
                                                 float(rng.randint(1, 3))))


REFERENCE_OPTIONS = (tracer.PLAIN_TRACE_OPTIONS, TraceOptions(),
                     TraceOptions(stop_on_cone=False), TraceOptions(stop_on_recurrence=True))


def _reference_starts(surface, name):
    """The 52 starts of the reference-stepper corpus on one surface."""
    rng = random.Random(20261019)
    starts = [_corner_start(surface, rng) for _ in range(16)]
    starts += [_hop_start(surface, rng) for _ in range(8)]
    if name in ("torus", "mtorus"):
        starts += [_rational_start(surface, rng) for _ in range(12)]
    elif surface.singular_classes:
        starts += [_grazing_start(surface, rng) for _ in range(12)]
    return starts + [_random_start(surface, rng) for _ in range(52 - len(starts))]


REFERENCE_CORPUS = [("octagon", 40.0), ("torus", 30.0), ("mtorus", 30.0),
                    ("pcase", 30.0), ("triple_cover", 25.0)]


@pytest.mark.parametrize("name, length", REFERENCE_CORPUS)
def test_stepper_matches_reference_stepper(name, length, request):
    # 52 starts x 4 option sets per surface, 1,040 traces in all: every output
    # of trace and of develop equals the reference stepper's with ==
    surface = request.getfixturevalue(name)
    starts = _reference_starts(surface, name)
    seen = set()
    for start in starts:
        for options in REFERENCE_OPTIONS:
            got = trace(surface, start, length, options=options)
            want = oracles.reference_trace(surface, start, length, options=options)
            assert got.start == want.start
            assert got.segments == want.segments
            assert ([(t.c, t.s, t.tx, t.ty) for t in got.transitions]
                    == [(t.c, t.s, t.tx, t.ty) for t in want.transitions])
            assert ([(e.kind, e.arclength, e.detail) for e in got.events]
                    == [(e.kind, e.arclength, e.detail) for e in want.events])
            assert got.total_length == want.total_length
            assert got.termination == want.termination
            assert got.recurrence == want.recurrence
            assert got.min_distance_series == want.min_distance_series
            assert got.end_state == want.end_state
            developed = develop(got)
            points, isos = oracles.reference_develop(want)
            assert developed.points == points
            assert [(g.c, g.s, g.tx, g.ty) for g in developed.isometries] == isos
            seen.add(got.termination)
    assert len(starts) == 52
    assert {"MaxLengthReached", "SelfRecurrence"} <= seen
    assert ("ConeHit" in seen) == bool(surface.singular_classes)


def test_certification_traces_build_no_crossing_events(mtorus, pcase, triple_cover,
                                                      monkeypatch):
    # trace_connection, _recurrence, _one_period and lift_trace read at most the
    # terminal event, so none of their traces builds an EdgeCross event; a later
    # read of events builds them, equal to the reference stepper's
    built = []
    build_event = tracer._edge_cross_event
    monkeypatch.setattr(tracer, "_edge_cross_event",
                        lambda *record: built.append(record) or build_event(*record))
    calls = []

    def recorded_trace(*args, **kwargs):
        calls.append((args, kwargs, trace(*args, **kwargs)))
        return calls[-1][2]

    for module in (saddles, cylinders, covering):
        monkeypatch.setattr(module, "trace", recorded_trace)
    assert saddles.trace_connection(mtorus, ("sq", 0), (2.0, 1.0), math.sqrt(5.0))
    assert cylinders._recurrence(mtorus, state("sq", 0.3, 0.2, 2, 1), 10.0)
    assert cylinders._one_period(mtorus, state("sq", 0.3, 0.2, 2, 1), math.sqrt(5.0))
    covering.lift_trace(triple_cover, trace(pcase, state("front", 0.4, 0.3, 1, 0.377), 3.0))
    assert len(calls) == 4 and built == []
    # nor do the fleets of enumerate_saddles and of the density cores
    monkeypatch.setattr(tracer, "_FLEET_MIN_RAYS", 1)
    fleets = []

    def recorded_fleet(surface, starts, max_lengths, options=tracer.PLAIN_TRACE_OPTIONS):
        results = tracer._trace_fleet(surface, starts, max_lengths, options)
        fleets.append((surface, starts, max_lengths, options, results))
        return results

    for module in (saddles, cylinders):
        monkeypatch.setattr(module, "_trace_fleet", recorded_fleet)
    assert len(saddles.enumerate_saddles(mtorus, "v0", 4.0)) == 32
    directions = [tracer._unit(d) for d in ((2.0, 1.0), (1.0, 0.0), (1.0, 3.0))]
    assert all(cylinders._closed_cores(mtorus, "sq", (0.3, 0.2), directions, 10.0))
    assert [len(f[1]) for f in fleets] == [31, 3, 3] and built == []
    calls += [((surface, start, length), {"options": options}, got)
              for surface, starts, lengths, options, results in fleets
              for start, length, got in zip(starts, lengths, results)]
    crossings = 0
    for args, kwargs, got in calls:
        want = oracles.reference_trace(*args, **kwargs)
        assert ([(e.kind, e.arclength, e.detail) for e in got.events]
                == [(e.kind, e.arclength, e.detail) for e in want.events])
        crossings += sum(e.kind == "EdgeCross" for e in got.events)
    assert crossings > 0 and len(built) == crossings


@pytest.mark.parametrize("name, length", REFERENCE_CORPUS)
def test_last_event_is_the_last_of_the_events(name, length, request):
    # last_event, read before events, equals events[-1] for every termination,
    # and a second read of events gives the same list
    surface = request.getfixturevalue(name)
    seen = set()
    for start in _reference_starts(surface, name):
        for options in REFERENCE_OPTIONS:
            res = trace(surface, start, length, options=options)
            last = res.last_event
            events = list(res.events)
            assert last == events[-1] and last.kind == res.termination
            assert res.events == events
            seen.add(last.kind)
    assert {"MaxLengthReached", "SelfRecurrence"} <= seen
    assert ("ConeHit" in seen) == bool(surface.singular_classes)


@pytest.mark.parametrize("name, direction, length, kind", [
    ("torus", (1.0, 0.3), 0.1, "MaxLengthReached"),
    ("mtorus", (1.0, 0.5), 2.0, "ConeHit")])
def test_last_event_right_after_a_zero_length_hop(name, direction, length, kind, request):
    # from the right edge pointing out, the trace hops to the left edge and ends
    # in its next segment: at max_length, or at the corner (1, 1)
    res = trace(request.getfixturevalue(name), state("sq", 1.0, 0.5, *direction), length)
    last = res.last_event
    assert res.segments[0] == ("sq", (1.0, 0.5), (1.0, 0.5))
    assert [e.kind for e in res.events] == ["EdgeCross", kind]
    assert last == res.events[-1] and res.events[0].arclength == 0.0


def test_projected_events_are_the_reference_events_without_sheets(triple_cover):
    # project_trace strips '@sheet' from the chart keys of the cover trace's
    # events; every other key, kind and arclength is the reference stepper's
    for start in _reference_starts(triple_cover, "triple_cover"):
        got = covering.project_trace(trace(triple_cover, start, 25.0)).events
        want = []
        for e in oracles.reference_trace(triple_cover, start, 25.0).events:
            detail = dict(e.detail)
            for key in ("chart", "from_chart", "to_chart"):
                if key in detail:
                    detail[key] = covering.split_sheet(detail[key])[0]
            want.append((e.kind, e.arclength, detail))
        assert [(e.kind, e.arclength, e.detail) for e in got] == want


@pytest.mark.parametrize("name, length", REFERENCE_CORPUS)
def test_events_follow_arclength(name, length, request):
    # the recurrence event sits where the recurrence was detected, so every
    # trace lists its events in order of arclength
    surface = request.getfixturevalue(name)
    recurring = 0
    for start in _reference_starts(surface, name):
        for options in (TraceOptions(), TraceOptions(stop_on_recurrence=True)):
            res = trace(surface, start, length, options=options)
            arclengths = [e.arclength for e in res.events]
            assert arclengths == sorted(arclengths), (start, options)
            found = [e for e in res.events if e.kind == "SelfRecurrence"]
            assert len(found) == (res.recurrence is not None)
            if found:
                recurring += 1
                assert found[0].arclength == res.recurrence["detected_at"], start
    assert recurring > 0


def test_recurrence_event_follows_its_crossing(mtorus):
    # detected at the crossing at 2.795 with period sqrt(5), not filed at 2.236
    res = trace(mtorus, state("sq", 0.5, 0.3, 2, 1), 6.0)
    kinds = [e.kind for e in res.events]
    k = kinds.index("SelfRecurrence")
    assert kinds[k - 1] == "EdgeCross"
    assert res.events[k].arclength == res.events[k - 1].arclength == res.recurrence["detected_at"]
    assert res.recurrence["period"] == pytest.approx(math.sqrt(5.0))


@pytest.mark.parametrize("name, length", [("octagon", 150.0), ("mtorus", 80.0),
                                          ("pcase", 60.0), ("triple_cover", 40.0)])
def test_min_distance_culling_matches_per_segment_loop(name, length, request, monkeypatch):
    # The series and the no-strips rows take whole-segment values from one
    # vectorized kernel pass; they must equal calling the kernel everywhere.
    surface = request.getfixturevalue(name)
    records = []
    real = tracer._min_distance_series
    monkeypatch.setattr(tracer, "_min_distance_series",
                        lambda s, recs: records.append(recs) or real(s, recs))
    rng = random.Random(20261018)
    starts = ([_random_start(surface, rng) for _ in range(4)]
              + [_grazing_start(surface, rng) for _ in range(12)]
              + [_hop_start(surface, rng) for _ in range(3)]
              + [dataclasses.replace(_random_start(surface, rng), direction=(1.0, 0.0))])
    seen, hops = set(), 0
    for start in starts:
        for options in (TraceOptions(), TraceOptions(stop_on_recurrence=True)):
            records.clear()
            tr = trace(surface, start, length, options=options)
            assert tr.min_distance_series == oracles.min_distance_series(surface, records[0])
            seen.add(tr.termination)
            hops += sum(a == b for _, a, b in tr.segments)
        lengths = [length * f for f in (1.0, 0.5, 0.31, 0.07, rng.random())]
        rep = min_distance_experiment(surface, start, lengths)
        total = rep.trace.total_length
        assert rep.rows == [(L, oracles.min_singular_distance_up_to(surface, rep.trace,
                                                                    min(L, total)))
                            for L in sorted(lengths)]
    assert {"ConeHit", "MaxLengthReached", "SelfRecurrence"} <= seen
    assert hops >= 3


def test_series_is_built_on_first_read(octagon, monkeypatch):
    # a default-options trace computes no m(T) until the series is read; the
    # first read computes it once and frees the records, the second reuses it
    calls = []
    real = tracer._min_distance_series
    monkeypatch.setattr(tracer, "_min_distance_series",
                        lambda s, recs: calls.append(recs) or real(s, recs))
    tr = trace(octagon, state("oct", 0.0, 0.0, 1.0, math.pi / 10), 50.0)
    records = tr.distance_records
    assert calls == [] and len(records) == sum(a != b for _, a, b in tr.segments)
    series = tr.min_distance_series
    assert calls == [records] and tr.distance_records is None
    assert series == oracles.min_distance_series(octagon, records)
    assert tr.min_distance_series is series and len(calls) == 1
    assert tr.min_distance_at(tr.total_length) == series[-1][1]
    assert len(calls) == 1


def test_min_distance_at_rejects_nan_and_unrecorded_traces(octagon):
    start = state("oct", 0.0, 0.0, 1.0, math.pi / 10)
    tr = trace(octagon, start, 50.0)
    with pytest.raises(DomainError, match="NaN"):
        tr.min_distance_at(math.nan)
    plain = trace(octagon, start, 50.0, options=tracer.PLAIN_TRACE_OPTIONS)
    for T in (0.0, 25.0, 50.0, math.nan):
        with pytest.raises(DomainError):
            plain.min_distance_at(T)
    with pytest.raises(DomainError, match="record_min_distance"):
        plain.min_distance_at(50.0)
    # in range: the row of the last sample at or before T, as before
    series = tr.min_distance_series
    for T in [s for s, _ in series] + [0.5, 12.25, 49.9]:
        assert tr.min_distance_at(T) == [m for s, m in series if s <= T + 1e-12][-1]
    assert tr.min_distance_at(-1.0) == math.inf
    assert tr.min_distance_at(math.inf) == series[-1][1]


def test_develop_builds_isometries_on_first_read(octagon, torus, monkeypatch):
    real = tracer.Isometry
    built = []
    monkeypatch.setattr(tracer, "Isometry", lambda *a: built.append(a) or real(*a))
    for surface, start in ((octagon, state("oct", 0.1, 0.2, 3.0, 1.0)),
                           (torus, state("sq", 1.0, 0.5, 1.0, 0.3))):
        res = trace(surface, start, 40.0, options=tracer.PLAIN_TRACE_OPTIONS)
        built.clear()
        dev = develop(res)
        assert built == []
        points, isos = oracles.reference_develop(res)
        assert dev.points == points and dev.frames == isos
        assert [(g.c, g.s, g.tx, g.ty) for g in dev.isometries] == isos
        assert built == isos
        assert dev.isometries is dev.isometries and len(built) == len(isos)


def test_projected_series_is_the_cover_series(triple_cover, monkeypatch):
    # the projection builds the cover trace's series from the same records if
    # the cover trace has not read it, and copies it if it has
    calls = []
    real = tracer._min_distance_series
    monkeypatch.setattr(tracer, "_min_distance_series",
                        lambda s, recs: calls.append(recs) or real(s, recs))
    for start in _reference_starts(triple_cover, "triple_cover")[:6]:
        calls.clear()
        cover = trace(triple_cover, start, 25.0)
        unread = covering.project_trace(cover)
        assert calls == []
        assert unread.min_distance_series == cover.min_distance_series
        assert len(calls) == 2 and calls[0] is calls[1]
        read = covering.project_trace(cover)
        assert read.min_distance_series == cover.min_distance_series
        assert read.min_distance_series is not cover.min_distance_series
        assert len(calls) == 2
        plain = trace(triple_cover, start, 25.0, options=tracer.PLAIN_TRACE_OPTIONS)
        assert covering.project_trace(plain).min_distance_series == [] == plain.min_distance_series
        assert len(calls) == 2


@pytest.mark.parametrize("name", ["octagon", "triple_cover", "torus"])
def test_segment_distances_equal_the_scalar_kernel(name, request, monkeypatch):
    # Many chunks of segments in random charts (chunks of 256 pairs here),
    # grazing and length-0 ones among them, at reaches 0, mid-segment and
    # whole, and with lengths off |p1 - p0| by rounding as the arclength
    # differences of ``trace`` are. The flat torus's chart has no singular
    # images, so every value is inf.
    surface = request.getfixturevalue(name)
    monkeypatch.setattr(tracer, "_CHUNK_PAIRS", 256)
    rng = random.Random(20261018)
    segments, lengths, reaches = [], [], []
    for k in range(3000):
        graze = k % 4 == 0 and surface.singular_classes
        start = _grazing_start(surface, rng) if graze else _random_start(surface, rng)
        (x, y), (dx, dy) = start.point, start.direction
        step = 0.0 if k % 7 == 0 else rng.uniform(0.01, surface.geometry[start.chart].diameter)
        p1 = (x + step * dx, y + step * dy)
        length = math.dist(start.point, p1) * (1.0 + rng.choice([0.0, 2.2e-16, -4.4e-16]))
        segments.append((start.chart, start.point, p1))
        lengths.append(length)
        reaches.append(rng.choice([0.0, length, rng.uniform(0.0, length)]))
    got = tracer._segment_distances(surface, segments, lengths, reaches).tolist()
    want = [tracer._segment_distance(surface.singular_images(c), a, b, length, reach)
            for (c, a, b), length, reach in zip(segments, lengths, reaches)]
    assert got == want
    assert (name == "torus") == all(v == math.inf for v in want)


def test_no_strips_rows_inside_one_segment(mtorus):
    # every row ends inside the first segment, so each bound cuts it short and
    # the next bound must measure it again
    lengths = [0.1, 0.2, 0.3, 0.4]
    rep = min_distance_experiment(mtorus, state("sq", 0.5, 0.3, 1, 0), lengths)
    assert len(rep.trace.segments) == 1
    for (L, m), T in zip(rep.rows, lengths):
        assert L == T
        assert math.isclose(m, math.hypot(0.5 - T, 0.3), rel_tol=0, abs_tol=1e-12)
        assert m == oracles.min_singular_distance_up_to(mtorus, rep.trace, T)


def test_min_singular_distance_at_zero_is_the_start_point(octagon):
    tr = trace(octagon, GeodesicState("oct", (0.0, 0.0), (1.0, math.pi / 10.0)), 50.0)
    assert min_singular_distance_up_to(octagon, tr, 0.0) == tr.min_distance_at(0.0)
    assert math.isclose(tr.min_distance_at(0.0), 1.0, rel_tol=1e-12)  # the circumradius
    for T in (-1e-9, math.nan):
        with pytest.raises(DomainError, match="non-negative"):
            min_singular_distance_up_to(octagon, tr, T)


@pytest.mark.parametrize("lengths, threshold", [([math.nan, 10.0], None),
                                                ([5.0, 10.0], math.nan),
                                                ([5.0, 10.0], math.inf)])
def test_min_distance_experiment_rejects_non_finite(mtorus, lengths, threshold):
    with pytest.raises(DomainError, match="finite"):
        min_distance_experiment(mtorus, state("sq", 0.3, 0.4, 1, GOLDEN), lengths,
                                threshold=threshold)


def test_octagon_min_distance_matches_oracle(octagon):
    rng = random.Random(20260814)
    for _ in range(4):
        start = _random_start(octagon, rng)
        tr = trace(octagon, start, 100.0)
        ends = list(itertools.accumulate(math.dist(a, b) for _, a, b in tr.segments))
        for s in ends[::15] + ends[-1:]:
            expected = oracles.octagon_min_distance(start.point, start.direction, s)
            assert math.isclose(tr.min_distance_at(s), expected, rel_tol=0, abs_tol=1e-9)


# --------------------------------------------------------------------------
# Weighted distance between paths
# --------------------------------------------------------------------------

def test_geodesic_distance_identical_paths_is_zero(torus):
    p = two_sided_trace(torus, state("sq", 0.5, 0.25, 1, 0), 6.0)
    d = geodesic_distance(torus, p, p, window=5.0)
    assert d.value == 0.0
    assert d.truncation_bound > 0.0


def test_geodesic_distance_parallel_offset(torus):
    # Constant separation c integrates to 2c(1 - exp(-W)).
    p1 = two_sided_trace(torus, state("sq", 0.5, 0.25, 1, 0), 6.0)
    p2 = two_sided_trace(torus, state("sq", 0.5, 0.35, 1, 0), 6.0)
    for window in (2.0, 5.0):
        d = geodesic_distance(torus, p1, p2, window=window)
        expected = 2 * 0.1 * (1 - math.exp(-window))
        assert math.isclose(d.value, expected, abs_tol=1e-6)


def test_state_at_stays_on_its_trace(mtorus):
    tr = trace(mtorus, state("sq", 0.31, 0.17, 1.0, GOLDEN), 3.0)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"^path parameters must be finite, got {t}$"):
            tr.state_at(t)
    for t in (-1.0, -2e-9, 3.0 + 2e-9, 99.0):
        with pytest.raises(InsufficientPath, match="^arclength .* outside \\[0, 3\\]$"):
            tr.state_at(t)
    # inside, at every segment start and within locate's slack: bit for bit
    # the point that positions gives and the direction of its segment table
    table = tr._segments
    for t in [0.0, 0.4, 1.3, 3.0, 3.0 + 5e-10] + table.starts.tolist():
        codes, xy = tr.positions([t])
        got = tr.state_at(t)
        k = min(max(int(np.searchsorted(table.starts, t, side="right")) - 1, 0),
                len(tr.segments) - 1)
        assert got.chart == mtorus.chart_names[codes[0]], t
        assert repr(got.point) == repr(tuple(xy[0].tolist())), t
        assert repr(got.direction) == repr(tuple(table.dirs[k].tolist())), t
    assert tr.state_at(-5e-10).arclength == -5e-10


def test_geodesic_distance_requires_enough_path(torus):
    p = two_sided_trace(torus, state("sq", 0.5, 0.25, 1, 0), 2.0)
    with pytest.raises(InsufficientPath):
        geodesic_distance(torus, p, p, window=5.0)


def test_geodesic_distance_incomparable_components():
    polys = [("a", UNIT_SQUARE),
             ("b", [(3.0, 0.0), (4.0, 0.0), (4.0, 1.0), (3.0, 1.0)])]
    gluings = [(("a", 0), ("a", 2)), (("a", 1), ("a", 3)),
               (("b", 0), ("b", 2)), (("b", 1), ("b", 3))]
    s = build_surface(polys, gluings, allow_disconnected=True)
    p1 = two_sided_trace(s, state("a", 0.5, 0.5, 1, 0), 3.0)
    p2 = two_sided_trace(s, state("b", 3.5, 0.5, 1, 0), 3.0)
    with pytest.raises(IncomparableTraces):
        geodesic_distance(s, p1, p2, window=2.0)
    # alone, and after a comparable pair of the same block
    grid = tracer._DistanceGrid(s, p1, 2.0)
    for pairs in ([(p2, 0.0)], [(p1, 0.0), (p2, 0.0)]):
        with pytest.raises(IncomparableTraces, match="^no chart alignment between 'a' and 'b'"):
            grid.least(pairs)


@pytest.fixture(scope="module")
def strips10():
    return oracles.subdivide_torus(10)


def _same_bits(*args):
    got, want = tracer._sample_distances(*args), oracles.reference_sample_distances(*args)
    assert got.shape == want.shape == (len(args[1]),)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    return got


@pytest.mark.parametrize("name, copies, classes", [
    ("mtorus", 13, 1), ("octagon", 41, 41), ("pcase", 26, 13), ("triple_cover", 102, 51),
    ("strips10", 130, 50)])
def test_sample_distances_equal_the_reference_kernel(name, copies, classes, request,
                                                     monkeypatch):
    # Bit patterns, not values: random samples over every chart pair (six of
    # the cover's 36 pairs and half the strips' 100 have no alignment), the
    # samples of one pair and of the unaligned pairs, and a sample equal to its
    # partner (distance 0), with no cap, the diameter bound and a cap below
    # most distances; then samples clustered within 0.05, where the copies'
    # bounds rule out all but one or two, and no samples at all.
    surface = request.getfixturevalue(name)
    names = surface.chart_names
    isos = [(a, b, iso) for a in names for b in names for iso in surface.alignment_isos(a, b)]
    assert len(isos) == copies
    assert len({(a, b, tracer._rotation_bits(iso.c, iso.s)) for a, b, iso in isos}) == classes
    rng = random.Random(20261019)
    starts = [_random_start(surface, rng) for _ in range(1200)]
    codes = np.array([surface.chart_index[s.chart] for s in starts], dtype=np.int64)
    xy = np.array([s.point for s in starts])
    k1, xy1, k2, xy2 = codes[:600], xy[:600], codes[600:], xy[600:]
    k2[0], xy2[0] = k1[0], xy1[0]
    pair = k1 * len(names) + k2
    unaligned = np.array([not surface.alignment_isos(names[k // len(names)],
                                                     names[k % len(names)]) for k in pair])
    assert unaligned.any() == (name in ("triple_cover", "strips10"))
    diameter = sum(g.diameter for g in surface.geometry.values())
    for cap in (math.inf, diameter, 0.3):
        for sel in (slice(None), pair == pair[0], unaligned):
            got = _same_bits(surface, k1[sel], xy1[sel], k2[sel], xy2[sel], cap)
        assert (got == cap).all()   # the unaligned samples, the last block
        for i in range(0, 40, 2):   # clusters: one chart pair, 50 samples each within 0.05
            jitter = np.array([[rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.05)]
                               for _ in range(100)])
            _same_bits(surface, np.full(50, k1[i]), xy1[i] + jitter[:50],
                       np.full(50, k2[i]), xy2[i] + jitter[50:], cap)
        empty = (np.empty(0, dtype=np.int64), np.empty((0, 2)))
        _same_bits(surface, *empty, *empty, cap)
    assert tracer._sample_distances(surface, k1, xy1, k2, xy2, math.inf)[0] == 0.0
    if name == "mtorus":
        # ties: (0.5, y) is as near to the copies of (0, y) at x = 0 and at x = 1
        ys = np.linspace(0.1, 0.9, 9)
        tie = _same_bits(surface, np.zeros(9, dtype=np.int64), np.c_[np.full(9, 0.5), ys],
                         np.zeros(9, dtype=np.int64), np.c_[np.zeros(9), ys], math.inf)
        assert (tie == 0.5).all()
        # the copy bounds skip copies: fewer hypot passes than the 13 copies
        passes, hypot = [], np.hypot
        monkeypatch.setattr(np, "hypot", lambda *a, **kw: passes.append(1) or hypot(*a, **kw))
        jitter = np.array([[rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.05)]
                           for _ in range(200)])
        zeros = np.zeros(100, dtype=np.int64)
        tracer._sample_distances(surface, zeros, (0.3, 0.4) + jitter[:100],
                                 zeros, (0.6, 0.7) + jitter[100:], math.inf)
        assert 0 < len(passes) < copies


@pytest.mark.parametrize("step", [0.0, -1.0])
def test_geodesic_distance_rejects_nonpositive_step(step):
    s = marked_torus(tolerances=dataclasses.replace(DEFAULT_TOLERANCES, distance_step=step))
    p = two_sided_trace(s, state("sq", 0.5, 0.25, 1, 0), 6.0)
    with pytest.raises(DomainError, match="distance_step must be positive"):
        geodesic_distance(s, p, p, window=5.0)


# --------------------------------------------------------------------------
# Property: random traces develop onto straight lines
# --------------------------------------------------------------------------

OCT = regular_octagon()
APOTHEM = math.cos(math.pi / 8)


@settings(max_examples=60, deadline=None)
@given(r=st.floats(0.0, 0.85 * APOTHEM), pos=st.floats(0.0, 2 * math.pi),
       ang=st.floats(0.0, 2 * math.pi), length=st.floats(0.5, 20.0))
def test_random_octagon_traces_develop_straight(r, pos, ang, length):
    start = GeodesicState("oct", (r * math.cos(pos), r * math.sin(pos)),
                          (math.cos(ang), math.sin(ang)), 0.0)
    res = trace(OCT, start, length)
    dev = develop(res)
    assert dev.collinearity_residual <= 1e-8 * max(1.0, res.total_length)
    assert dev.length_residual <= 1e-7
    seg_total = sum(math.dist(a, b) for _, a, b in res.segments)
    assert math.isclose(seg_total, res.total_length, rel_tol=0, abs_tol=1e-7)


# --------------------------------------------------------------------------
# Fleets: the lockstep stepper against trace, bit for bit
# --------------------------------------------------------------------------

def _outcome(result):
    """A trace's every output as one string, floats by repr (so -0.0 and 0.0
    differ), or an error's type and message."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    return repr((result.start, result.segments,
                 [(t.c, t.s, t.tx, t.ty) for t in result.transitions],
                 [(e.kind, e.arclength, e.detail) for e in result.events],
                 result.total_length, result.end_state, result.termination, result.recurrence,
                 result.distance_records, result.min_distance_series))


def _traced(surface, start, max_length, options):
    try:
        return trace(surface, start, max_length, options=options)
    except Exception as err:
        return err


# a moderate tau_rec makes a state match two earlier states that do not
# match each other, so the earliest match is not the latest
FLEET_TAU_REC = TAU_REC_EDGES + (0.05, 0.45)
FLEET_OPTIONS = (tracer.PLAIN_TRACE_OPTIONS, cylinders._CORE_OPTIONS,
                 TraceOptions(record_min_distance=False),
                 TraceOptions(stop_on_cone=False, detect_recurrence=False,
                              record_min_distance=False),
                 TraceOptions())


@pytest.fixture(scope="module")
def fleet_surfaces(torus, mtorus, octagon, pcase, dtriangle, notched):
    surfaces = {"torus": torus, "mtorus": mtorus, "octagon": octagon, "pcase": pcase,
                "dtriangle": dtriangle, "notched": notched,
                "strips": oracles.subdivide_torus(3),
                **{f"cover{d}": build_cover(pcase, find_monodromy(pcase, d))[0] for d in (3, 5)}}
    for tau_rec in FLEET_TAU_REC:
        surfaces[f"mtorus_tau{tau_rec}"] = marked_torus(
            tolerances=dataclasses.replace(DEFAULT_TOLERANCES, tau_rec=tau_rec))
    return surfaces


_FLEET_STARTS = (_random_start, _corner_start, _hop_start, _rational_start)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["torus", "mtorus", "octagon", "pcase", "dtriangle", "notched",
                             "strips", "cover3", "cover5"]
                            + [f"mtorus_tau{t}" for t in FLEET_TAU_REC]),
       options=st.sampled_from(FLEET_OPTIONS), seed=st.integers(0, 2**32 - 1))
def test_fleet_rays_equal_their_traces(fleet_surfaces, name, options, seed):
    # every ray of a fleet: segments, transitions, events, end state,
    # termination and recurrence equal trace's, or its error does
    surface = fleet_surfaces[name]
    if name.startswith("mtorus_tau"):
        options = cylinders._CORE_OPTIONS
    rng = random.Random(seed)
    starts = [rng.choice(_FLEET_STARTS)(surface, rng) for _ in range(12)]
    lengths = [rng.choice((rng.uniform(0.2, 25.0), float(rng.randint(1, 20)), -1.0, math.inf))
               if rng.random() < 0.1 else rng.uniform(0.2, 25.0) for _ in starts]
    starts[rng.randrange(len(starts))] = GeodesicState("nowhere", (0.0, 0.0), (1.0, 0.0))
    with mock.patch.object(tracer, "_FLEET_MIN_RAYS", 1):
        got = tracer._trace_fleet(surface, starts, lengths, options)
    assert len(got) == len(starts)
    for start, length, result in zip(starts, lengths, got):
        assert _outcome(result) == _outcome(_traced(surface, start, length, options))


def test_fleet_leaves_the_lockstep_on_each_branch(torus, mtorus, monkeypatch):
    # axis-parallel rays, a flat-corner passage and an edge start that hops
    # are traced again by trace, the other rays not, all equal to trace's
    retraced = []
    real = tracer.trace
    monkeypatch.setattr(tracer, "trace",
                        lambda surface, start, *a, **k: retraced.append(start)
                        or real(surface, start, *a, **k))
    monkeypatch.setattr(tracer, "_FLEET_MIN_RAYS", 1)
    cases = {
        torus: ([state("sq", 0.3, 0.4, 1.0, 0.0), state("sq", 0.3, 0.4, 0.0, -1.0),
                 state("sq", 0.5, 0.5, 1.0, 1.0)],
                [state("sq", 0.3, 0.4, 1.0, GOLDEN)]),
        mtorus: ([state("sq", 0.5, 0.0, 0.3, -1.0)],
                 [state("sq", 0.5, 0.5, 1.0, 1.0), state("sq", 0.3, 0.4, 2.0, 1.0)]),
    }
    for surface, (leaving, staying) in cases.items():
        for options in (tracer.PLAIN_TRACE_OPTIONS, cylinders._CORE_OPTIONS):
            retraced.clear()
            starts = staying + leaving
            got = tracer._trace_fleet(surface, starts, [7.5] * len(starts), options)
            assert retraced == leaving
            for start, result in zip(starts, got):
                assert _outcome(result) == _outcome(real(surface, start, 7.5, options=options))
    # the ray at the corner ends at the marked point in the lockstep, a
    # ConeHit, and passes the flat torus's corner, a VertexPass, in trace
    corner = state("sq", 0.5, 0.5, 1.0, 1.0)
    retraced.clear()
    assert tracer._trace_fleet(mtorus, [corner], [7.5])[0].termination == "ConeHit"
    assert retraced == []
    assert "VertexPass" in [e.kind for e in real(torus, corner, 7.5).events]


# rays whose recurring state matches two earlier crossing states, which do
# not match each other, at the tau_rec of their key
DOUBLE_MATCHES = {
    0.3: [((0.2452882471098236, 0.9189321250083826), (-0.9206294132661906, 0.3904375538151389)),
          ((0.7240684292459645, 0.8911061100511821), (0.9271170242981762, 0.37477196167335536))],
    0.45: [((0.7211041649350144, 0.8789598526229802), (0.29299711643927545, 0.9561133247467424)),
           ((0.48614688951500695, 0.7146340888725481), (0.5906726312561391, 0.8069112979038955))],
}


def test_fleet_recurrence_is_the_earliest_of_its_matches(monkeypatch):
    monkeypatch.setattr(tracer, "_FLEET_MIN_RAYS", 1)
    options = cylinders._CORE_OPTIONS
    for tau, rays in DOUBLE_MATCHES.items():
        surface = marked_torus(tolerances=dataclasses.replace(DEFAULT_TOLERANCES, tau_rec=tau))
        starts = [GeodesicState("sq", p, d) for p, d in rays]
        got = tracer._trace_fleet(surface, starts, [20.0] * len(starts), options)
        for start, result in zip(starts, got):
            want = trace(surface, start, 20.0, options=options)
            assert _outcome(result) == _outcome(want)
            # the crossing states that the recurring one matches (on the torus
            # directions are kept and there is one chart), earliest first
            end = want.end_state
            crossings = [e.arclength for e in want.events if e.kind == "EdgeCross"]
            matches = [s for (_, p, _), s in zip(want.segments[1:], crossings)
                       if abs(p[0] - end.point[0]) < tau and abs(p[1] - end.point[1]) < tau
                       and end.arclength - s > 1e-9]
            assert len(matches) == 2 and want.recurrence["matched_at"] == matches[0]


def test_small_fleets_are_traced_one_by_one(mtorus, monkeypatch):
    retraced = []
    real = tracer.trace
    monkeypatch.setattr(tracer, "trace",
                        lambda surface, start, *a, **k: retraced.append(start)
                        or real(surface, start, *a, **k))
    rng = random.Random(5)
    starts = [_random_start(mtorus, rng) for _ in range(tracer._FLEET_MIN_RAYS)]
    for fleet in (starts[1:], starts):
        retraced.clear()
        got = tracer._trace_fleet(mtorus, fleet, [3.0] * len(fleet))
        assert retraced == (fleet if len(fleet) < tracer._FLEET_MIN_RAYS else [])
        assert [_outcome(r) for r in got] == [
            _outcome(real(mtorus, st, 3.0, options=tracer.PLAIN_TRACE_OPTIONS)) for st in fleet]


def _exit_rays(surface):
    """Per chart: rays from the chart's vertex average at each corner, and
    rays from each edge's midpoint within 1e-17 of parallel to the edge, to
    either side; as (chart, x, y, dx, dy)."""
    rays = []
    for chart in sorted(surface.charts):
        verts = surface.charts[chart]
        cx, cy = (sum(v[0] for v in verts) / len(verts), sum(v[1] for v in verts) / len(verts))
        for vx, vy in verts:
            n = math.hypot(vx - cx, vy - cy)
            rays.append((chart, cx, cy, (vx - cx) / n, (vy - cy) / n))
        for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
            n = math.hypot(bx - ax, by - ay)
            for sign in (1.0, -1.0):
                rays.append((chart, (ax + bx) / 2.0, (ay + by) / 2.0,
                             (bx - ax) / n - sign * 1e-17 * (by - ay) / n,
                             (by - ay) / n + sign * 1e-17 * (bx - ax) / n))
    return rays


@pytest.mark.parametrize("name, counts", [("torus", (4, 8)), ("pcase", (8, 16)),
                                          ("notched", (2, 28)), ("octagon", (3, 16))])
def test_fleet_exits_are_the_ray_exits(request, name, counts):
    # each ray's exit is _ray_exit's, the first edge of a tie, unless the ray
    # leaves the lockstep, which every ray within 1e-15 of parallel to an edge does
    surface = request.getfixturevalue(name)
    tol = surface.tolerances
    rays = _exit_rays(surface)
    code = np.array([surface.chart_index[r[0]] for r in rays])
    px, py, dx, dy = (np.array([r[k] for r in rays]) for k in range(1, 5))
    edge, step, off = tracer._fleet_exits(tracer._EdgeTable(surface), code, px, py, dx, dy,
                                          tol.tau_exit, tol.tau_hit)
    ties = 0
    for (chart, *ray), e, s, left in zip(rays, edge.tolist(), step.tolist(), off.tolist()):
        rows = surface.geometry[chart].scalar_edges
        want = tracer._ray_exit(rows, *ray, tol.tau_exit, tol.tau_hit)
        parallel = any(abs(ray[2] * r[3] - ray[3] * r[2]) < 1e-15 for r in rows)
        assert left or not parallel
        if not left:
            assert (e, s) == want[:2]
            alone = [tracer._ray_exit(rows[k:k + 1], *ray, tol.tau_exit, tol.tau_hit)
                     for k in range(len(rows))]
            ties += sum(x is not None and x[1] == s for x in alone) > 1
    assert (ties, int(off.sum())) == counts
