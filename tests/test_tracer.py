"""Geodesic tracing: events, development, sectors, distances, near-miss law."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random

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
from conesurf import tracer
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
        ("SelfRecurrence", 1.0),
        ("EdgeCross", 1.5),
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


# components on two cells of size 2 * tau_rec, offset so that pairs straddle
# cell boundaries, sit exactly at the open bound, and match several rows at once
_grid_value = st.builds(lambda k, off: 2.0 * TAU_REC * k + off,
                        st.integers(0, 1),
                        st.sampled_from((0.0, 0.999 * TAU_REC, -0.999 * TAU_REC,
                                         TAU_REC, -TAU_REC)))
_grid_state = st.tuples(st.sampled_from(("A", "B")), _grid_value, _grid_value,
                        _grid_value, _grid_value,
                        st.sampled_from((0.0, 5e-10, 1e-9, 2e-9, 1.0)))


def _on_x(*xs):
    return [("A", x, 0.0, 0.0, 0.0, 1.0) for x in xs]


@settings(max_examples=300, deadline=None)
@given(st.lists(_grid_state, min_size=1, max_size=80))
# the earlier of two matches sits in the cell searched later
@example(_on_x(0.999 * TAU_REC, -0.999 * TAU_REC, 0.0))
# the only match sits in a neighbouring cell
@example(_on_x(-0.999 * TAU_REC, 0.0))
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
    tr = rep.trace
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
        rep = min_distance_experiment(surface, start, lengths,
                                      options=tracer.PLAIN_TRACE_OPTIONS)
        total = rep.trace.total_length
        assert rep.rows == [(L, oracles.min_singular_distance_up_to(surface, rep.trace,
                                                                    min(L, total)))
                            for L in sorted(lengths)]
    assert {"ConeHit", "MaxLengthReached", "SelfRecurrence"} <= seen
    assert hops >= 3


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
    with pytest.raises(IncomparableTraces):
        tracer._DistanceGrid(s, p1, 2.0).partial(p2, 0.0, 0.1)


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
