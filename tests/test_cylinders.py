"""Closed geodesics, strip widths, offsets, and the density experiment."""

from __future__ import annotations

import collections
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from conesurf import (
    ChainPath,
    GeodesicState,
    PeriodicPath,
    TraceOptions,
    as_generalized,
    build_cover,
    build_surface,
    chain,
    density_experiment,
    enumerate_saddles,
    find_closed_geodesic,
    find_monodromy,
    geodesic_distance,
    lift_trace,
    offset_state,
    project_trace,
    strip_quadrangle,
    strip_width,
    trace_connection,
    two_sided_trace,
)
from conesurf import cylinders, tracer
from conesurf.config import DEFAULT_TOLERANCES
from conesurf.corpus import marked_torus, pillowcase, regular_octagon
from conesurf.errors import DomainError, UnfoldingBudgetExceeded
from conesurf.geometry import Isometry
from conesurf.surface import FanPencil, WindowSweep

import oracles

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

L_VERTS = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0),
           (1.0, 1.0), (1.0, 2.0), (0.0, 2.0), (0.0, 1.0)]
L_GLUINGS = [(("L", 0), ("L", 5)), (("L", 1), ("L", 3)),
             (("L", 2), ("L", 7)), (("L", 4), ("L", 6))]


def unit(p, q):
    n = math.hypot(p, q)
    return (p / n, q / n)


# --------------------------------------------------------------------------
# Strip capture quadrangle
# --------------------------------------------------------------------------

def test_quadrangle_spot_values():
    q = strip_quadrangle(1.0, 2.0, math.pi / 6)
    assert math.isclose(q.width, 2.0 + 1.0 / math.sqrt(3.0), rel_tol=0, abs_tol=1e-12)
    assert math.isclose(q.length, 1.0, rel_tol=0, abs_tol=1e-12)
    assert (q.eps, q.delta, q.theta) == (1.0, 2.0, math.pi / 6)


def test_quadrangle_closed_forms():
    for eps, delta, theta in [(0.5, 0.5, 0.3), (0.1, 3.0, 1.2), (2.0, 2.0, 0.01)]:
        q = strip_quadrangle(eps, delta, theta)
        assert math.isclose(q.width, delta + eps / (2 * math.cos(theta)), rel_tol=1e-12)
        assert math.isclose(q.length, eps / (2 * math.sin(theta)), rel_tol=1e-12)


@pytest.mark.parametrize("eps,delta,theta", [
    (0.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (2.0, 1.0, 0.5),
    (1.0, 2.0, 0.0), (1.0, 2.0, math.pi / 2), (1.0, 2.0, 2.0),
])
def test_quadrangle_domain(eps, delta, theta):
    with pytest.raises(DomainError):
        strip_quadrangle(eps, delta, theta)


@settings(max_examples=200, deadline=None)
@given(delta=st.floats(1e-3, 10.0), frac=st.floats(1e-6, 1.0),
       theta=st.floats(1e-4, math.pi / 2 - 1e-4))
def test_quadrangle_width_exceeds_straight_margin(delta, frac, theta):
    eps = frac * delta
    q = strip_quadrangle(eps, delta, theta)
    assert q.width > delta + eps / 2


# --------------------------------------------------------------------------
# Closed geodesics and widths on the torus
# --------------------------------------------------------------------------

@pytest.mark.parametrize("p,q", [(1, 0), (0, 1), (1, 1), (2, 1), (3, 2)])
def test_torus_cylinder_total_width(mtorus, p, q):
    cyl = find_closed_geodesic(mtorus, (float(p), float(q)), ("sq", (0.31, 0.17)))
    assert cyl is not None
    assert math.isclose(cyl.circumference, math.hypot(p, q), rel_tol=1e-12)
    assert cyl.closure_error <= 1e-9
    assert math.isclose(cyl.width_left + cyl.width_right,
                        oracles.torus_cylinder_width(p, q), rel_tol=0, abs_tol=1e-9)
    assert not cyl.unbounded
    assert math.isclose(cyl.total_width, cyl.width_left + cyl.width_right, rel_tol=1e-12)


def test_cylinder_boundary_connections(mtorus):
    cyl = find_closed_geodesic(mtorus, (2.0, 1.0), ("sq", (0.31, 0.17)))
    for side in ("left", "right"):
        conns = cyl.bounding[side]
        assert len(conns) == 1
        (c,) = conns
        assert c.start == c.end == "v0"
        assert math.isclose(c.length, math.sqrt(5.0), rel_tol=1e-9)
        witnesses = cyl.witnesses[side]
        assert witnesses and all(w.class_id == "v0" for w in witnesses)


def test_unmarked_torus_cylinder_is_unbounded(torus):
    cyl = find_closed_geodesic(torus, (2.0, 1.0), ("sq", (0.31, 0.17)))
    assert cyl.width_left == math.inf and cyl.width_right == math.inf
    assert cyl.unbounded


def test_octagon_horizontal_cylinder(octagon):
    cyl = find_closed_geodesic(octagon, (1.0, 0.0), ("oct", (0.0, 0.0)))
    assert math.isclose(cyl.circumference, 2 * math.cos(math.pi / 8), rel_tol=1e-12)
    assert math.isclose(cyl.width_left, math.sin(math.pi / 8), rel_tol=0, abs_tol=1e-12)
    assert math.isclose(cyl.width_right, math.sin(math.pi / 8), rel_tol=0, abs_tol=1e-12)


def test_irrational_direction_finds_nothing(mtorus):
    assert find_closed_geodesic(mtorus, (1.0, GOLDEN), ("sq", (0.31, 0.17)),
                                max_circumference=30.0) is None


def test_on_boundary_start_is_jiggled_into_the_cylinder(mtorus):
    # (0.5, 0) sits on the horizontal saddle connection; the searcher
    # offsets the launch point into the cylinder.
    cyl = find_closed_geodesic(mtorus, (1.0, 0.0), ("sq", (0.5, 0.0)))
    assert cyl is not None and math.isclose(cyl.circumference, 1.0, rel_tol=1e-12)
    assert 0.0 < cyl.start.point[1] < 1.0


def test_offset_reclosures_preserve_circumference(mtorus):
    cyl = find_closed_geodesic(mtorus, (2.0, 1.0), ("sq", (0.31, 0.17)))
    for frac in (0.25, 0.5, 0.75):
        moved = offset_state(mtorus, cyl.start, frac * cyl.width_left)
        re = find_closed_geodesic(mtorus, cyl.direction,
                                  (moved.chart, moved.point))
        assert re is not None
        assert math.isclose(re.circumference, cyl.circumference, rel_tol=1e-9)


def test_offset_state_roundtrip(mtorus):
    st_ = GeodesicState("sq", (0.31, 0.17), (1.0, 0.0), 0.0)
    up = offset_state(mtorus, st_, 0.25)
    assert up.chart == "sq"
    assert math.isclose(up.point[1], 0.42, rel_tol=1e-12)  # left of (1,0) is +y
    assert up.direction == st_.direction
    back = offset_state(mtorus, up, -0.25)
    assert math.dist(back.point, st_.point) <= 1e-12
    # Offsets that cross a gluing land in a valid chart position.
    far = offset_state(mtorus, st_, 1.4)
    assert 0.0 <= far.point[1] <= 1.0


# --------------------------------------------------------------------------
# Direct strip-width queries
# --------------------------------------------------------------------------

def test_strip_width_values_and_witnesses(mtorus):
    cyl = find_closed_geodesic(mtorus, (1.0, 0.0), ("sq", (0.5, 0.17)))
    left, right, witnesses = strip_width(mtorus, cyl.core)
    assert math.isclose(left, 0.83, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(right, 0.17, rel_tol=0, abs_tol=1e-12)
    assert {w.class_id for side in witnesses.values() for w in side} == {"v0"}


@pytest.fixture(scope="module")
def ls():
    return build_surface([("L", L_VERTS)], L_GLUINGS)


def test_strip_width_on_non_convex_chart(ls):
    (vc,) = ls.vertex_classes.values()
    assert math.isclose(vc.angle, 6 * math.pi, rel_tol=1e-12)
    assert ls.euler_characteristic == -2

    # the horizontal strip 0 < y < 1 is bounded by the corners at y = 0 and y = 1
    cyl = find_closed_geodesic(ls, (1.0, 0.0), ("L", (0.3, 0.5)))
    assert cyl is not None and math.isclose(cyl.circumference, 2.0, rel_tol=1e-12)
    assert math.isclose(cyl.width_left, 0.5, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(cyl.width_right, 0.5, rel_tol=0, abs_tol=1e-12)
    left, right, _ = strip_width(ls, cyl.core)
    assert (left, right) == (cyl.width_left, cyl.width_right)


def _primitive_directions(r2):
    """Primitive (p, q) with p^2 + q^2 <= r2, one of each +-pair; r2 = 25
    gives the 24 directions of acceptance check 10."""
    r = math.isqrt(r2)
    return [(p, q) for p in range(r + 1) for q in range(-r, r + 1)
            if 0 < p * p + q * q <= r2 and math.gcd(p, abs(q)) == 1 and (p > 0 or q > 0)]


@pytest.mark.parametrize("L", [1.5, 5.0])
def test_saddles_stop_at_corners_between_collinear_edges(ls, L):
    # rays along the bottom edges meet the singular corner (1, 0) between two
    # collinear edges; a trace running along them must stop there
    conns = enumerate_saddles(ls, "v0", L)
    holos = sorted((round(c.holonomy[0], 9), round(c.holonomy[1], 9)) for c in conns)
    assert holos == sorted((float(p), float(q)) for p, q in oracles.primitive_vectors(L))
    assert all(oracles.passes_trace_audit(ls, c) for c in conns)


@pytest.mark.parametrize("L,count", [(1.5, 8), (5.0, 48), (10.0, 192)])
def test_notched_torus_saddles_match_the_lattice(notched, L, count):
    conns = enumerate_saddles(notched, "v0", L)
    holos = sorted((round(c.holonomy[0], 9), round(c.holonomy[1], 9)) for c in conns)
    assert len(conns) == count
    assert holos == sorted((float(p), float(q)) for p, q in oracles.primitive_vectors(L))


def test_notched_torus_widths_match_the_lattice(notched):
    for p, q in _primitive_directions(25):
        cyl = find_closed_geodesic(notched, (float(p), float(q)), max_circumference=30.0)
        assert cyl is not None, (p, q)
        assert math.isclose(cyl.circumference, math.hypot(p, q), rel_tol=1e-12)
        assert abs(cyl.total_width - oracles.torus_cylinder_width(p, q)) <= 1e-9, (p, q)


def test_default_start_lies_inside_a_non_convex_chart(notched):
    # the vertex average of chart A, (0.5, 0.48), lies in the notch
    cyl = find_closed_geodesic(notched, (1.0, 0.0))
    assert cyl is not None and math.isclose(cyl.circumference, 1.0, rel_tol=1e-12)


BOUNDING_CASES = [
    ("mtorus", _primitive_directions(25)), ("octagon", _primitive_directions(20)),
    ("pcover", _primitive_directions(25)), ("ls", [(1, 0), (0, 1), (1, 1)]),
    ("notched", _primitive_directions(25))]
BOUNDING_IDS = [name for name, _ in BOUNDING_CASES]


@pytest.mark.parametrize("name,directions", BOUNDING_CASES, ids=BOUNDING_IDS)
def test_bounding_saddles_close_up(request, name, directions):
    # one connection per pair of consecutive witnesses, joining their classes,
    # whose lengths add up to the circumference
    surface = request.getfixturevalue(name)
    for p, q in directions:
        cyl = find_closed_geodesic(surface, (float(p), float(q)))
        assert cyl is not None, (p, q)
        for side in ("left", "right"):
            ws, conns = cyl.witnesses[side], cyl.bounding[side]
            assert ws, (p, q, side)
            assert [(c.start, c.end) for c in conns] == [
                (w.class_id, ws[(k + 1) % len(ws)].class_id) for k, w in enumerate(ws)]
            assert abs(sum(c.length for c in conns) - cyl.circumference) <= 1e-9
            assert all(oracles.passes_trace_audit(surface, c) for c in conns), (p, q, side)


def test_launch_states_are_built_on_demand(mtorus, monkeypatch):
    calls = []
    real = cylinders.offset_state
    monkeypatch.setattr(cylinders, "offset_state",
                        lambda *args: calls.append(args) or real(*args))
    # from the default start (0.5, 0.5), (1, 0) closes at once; (1, 1) runs
    # into the cone point at (1, 1) and closes from the first offset
    assert find_closed_geodesic(mtorus, (1.0, 0.0)) is not None
    assert len(calls) == 0
    assert find_closed_geodesic(mtorus, (1.0, 1.0)) is not None
    assert len(calls) == 1


def _cylinder_record(cyl):
    return (cyl.circumference, cyl.width_left, cyl.width_right, cyl.witnesses,
            {side: [(c.start, c.end, c.length, c.holonomy) for c in conns]
             for side, conns in cyl.bounding.items()})


@pytest.mark.parametrize("name", ["mtorus", "pcover"])
def test_launch_states_on_demand_match_eager_search(request, name):
    surface = request.getfixturevalue(name)
    for p, q in _primitive_directions(25):
        cyl = find_closed_geodesic(surface, (float(p), float(q)))
        eager = oracles.find_closed_geodesic_eager(surface, (float(p), float(q)))
        assert cyl is not None and eager is not None, (p, q)
        assert _cylinder_record(cyl) == _cylinder_record(eager), (p, q)


# --------------------------------------------------------------------------
# The window sweep against one window per part
# --------------------------------------------------------------------------

def _wedge_sweeps(sweep_class, surface, L):
    """The hits of the sweeps of every v0 wedge, as a multiset, and the
    number of windows they visit."""
    vc = surface.vertex_class("v0")
    hits, windows = collections.Counter(), 0
    for m, (chart, vertex) in enumerate(vc.members):
        pencil = FanPencil(surface.charts[chart][vertex], vc.start_rays[m], vc.angles[m])
        root = (chart, Isometry.identity(), ((0.0, False), (vc.angles[m], True)))
        sweep = sweep_class(surface, pencil, [root], L)
        hits.update(sweep)
        windows += sweep.windows
    return hits, windows


@pytest.mark.parametrize("name, L", [("mtorus", 21.0), ("octagon", 8.0), ("pcase", 8.0),
                                     ("pcover", 4.0), ("notched", 6.0), ("ls", 10.0)])
def test_joined_windows_hit_what_single_windows_hit(request, name, L):
    # (point, depth, chart, vertex, isometry) of every hit, compared with ==
    surface = request.getfixturevalue(name)
    joined, windows = _wedge_sweeps(WindowSweep, surface, L)
    single, single_windows = _wedge_sweeps(oracles.WindowSweep, surface, L)
    assert joined and joined == single
    assert windows <= single_windows


def test_marked_torus_sweep_visits_quadratically_many_windows(mtorus):
    # 832 connections at L = 21; one window per part visits about 0.86 L^3
    assert _wedge_sweeps(oracles.WindowSweep, mtorus, 21.0)[1] == 8636
    hits, windows = _wedge_sweeps(WindowSweep, mtorus, 21.0)
    assert sum(hits.values()) == 832 and windows == 2748


@pytest.mark.parametrize("name,directions", BOUNDING_CASES, ids=BOUNDING_IDS)
def test_strip_widths_match_single_interval_sweep(request, monkeypatch, name, directions):
    surface = request.getfixturevalue(name)
    for p, q in directions:
        joined = find_closed_geodesic(surface, (float(p), float(q)))
        with monkeypatch.context() as m:
            m.setattr(cylinders, "WindowSweep", oracles.WindowSweep)
            single = find_closed_geodesic(surface, (float(p), float(q)))
        assert _cylinder_record(joined) == _cylinder_record(single), (p, q)


def test_strip_width_budget_guard():
    # each side's window sweep visits 3 windows for the horizontal core
    octagon = regular_octagon(
        tolerances=dataclasses.replace(DEFAULT_TOLERANCES, unfolding_budget=2))
    with pytest.raises(UnfoldingBudgetExceeded, match="exceeded 2 windows"):
        find_closed_geodesic(octagon, (1.0, 0.0))


# --------------------------------------------------------------------------
# Path wrappers feed the weighted distance
# --------------------------------------------------------------------------

def test_periodic_path_wraps_indefinitely(mtorus):
    cyl = find_closed_geodesic(mtorus, (2.0, 1.0), ("sq", (0.31, 0.17)))
    pp = PeriodicPath(cyl.core)
    assert pp.param_range() == (-math.inf, math.inf)
    assert geodesic_distance(mtorus, pp, pp, window=5.0).value == 0.0


def test_chain_path_wraps_closed_chains(mtorus):
    diag = next(c for c in enumerate_saddles(mtorus, "v0", 1.5)
                if math.isclose(c.holonomy[0], 1.0, abs_tol=1e-9)
                and math.isclose(c.holonomy[1], 1.0, abs_tol=1e-9))
    cp = ChainPath(chain(mtorus, [diag, diag]))
    assert cp.param_range() == (-math.inf, math.inf)
    assert geodesic_distance(mtorus, cp, cp, window=5.0).value == 0.0


PLAIN = TraceOptions(detect_recurrence=False, record_min_distance=False)


@pytest.fixture(scope="module")
def pcover(pcase):
    return build_cover(pcase, find_monodromy(pcase, 3))[0]


def _path_kinds(surface):
    """A two-sided target plus one path of each kind on the surface:
    another two-sided trajectory, a closed geodesic and a closed chain."""
    charts = sorted(surface.charts)
    geo = surface.geometry[charts[0]]
    cx, cy = geo.centroid
    v = geo.vertices[1]
    target = two_sided_trace(surface, GeodesicState(
        charts[0], (0.6 * cx + 0.4 * v[0], 0.6 * cy + 0.4 * v[1]), unit(1.0, GOLDEN)),
        4.0, options=PLAIN)
    geo = surface.geometry[charts[-1]]
    other = two_sided_trace(surface, GeodesicState(
        charts[-1], (0.7 * geo.centroid[0] + 0.3 * geo.vertices[0][0],
                     0.7 * geo.centroid[1] + 0.3 * geo.vertices[0][1]), unit(-0.3, 1.0)),
        4.0, options=PLAIN)
    core = find_closed_geodesic(surface, (2.0, 1.0)).core
    conns = [c for vc in surface.singular_classes for c in enumerate_saddles(surface, vc.id, 1.5)]
    links = next(([a, b] for a in conns for b in conns
                  if a is not b and a.end == b.start and b.end == a.start), None)
    links = links or [next(c for c in conns if c.start == c.end)]
    return target, {"two_sided": other, "periodic": PeriodicPath(core),
                    "chain": ChainPath(chain(surface, links))}


@pytest.mark.parametrize("name", ["mtorus", "pcase", "pcover"])
def test_distance_matches_per_sample_oracle(name):
    coarse = dataclasses.replace(DEFAULT_TOLERANCES, distance_step=5e-3)
    if name == "mtorus":
        surface = marked_torus(tolerances=coarse)
    else:
        surface = pillowcase(tolerances=coarse)
        if name == "pcover":
            surface = build_cover(surface, find_monodromy(surface, 3))[0]
    target, others = _path_kinds(surface)
    for kind, path in others.items():
        for anchor2 in (0.0, 0.37):
            fast = geodesic_distance(surface, target, path, 3.0, anchor2=anchor2)
            slow = oracles.compact_open_distance(surface, target, path, 3.0,
                                                 anchor2=anchor2, step=5e-3)
            assert abs(fast.value - slow) <= 1e-12, (kind, anchor2, fast.value, slow)


@pytest.mark.parametrize("name", ["mtorus", "pcase", "pcover", "coarse"])
def test_pruning_partials_bound_the_distance(request, name):
    # "coarse": a grid with no node within the narrowest half-width of t = 0
    surface = (marked_torus(tolerances=dataclasses.replace(DEFAULT_TOLERANCES, distance_step=0.4))
               if name == "coarse" else request.getfixturevalue(name))
    target, others = _path_kinds(surface)
    grid = tracer._DistanceGrid(surface, target, 3.0)
    for kind, path in others.items():
        for anchor2 in (0.0, 0.37):
            full = geodesic_distance(surface, target, path, 3.0, anchor2=anchor2).value
            partials = [grid.partial(path, anchor2, h) for h in cylinders._PRUNE_HALF_WIDTHS]
            assert 0.0 <= partials[0] <= partials[-1] <= full, (kind, anchor2, partials, full)
            # the whole grid taken as one slice is the distance itself
            assert grid.partial(path, anchor2) == full, (kind, anchor2)


@pytest.mark.parametrize("name", ["mtorus", "pcase", "pcover"])
def test_path_protocol_chart_codes(request, name):
    surface = request.getfixturevalue(name)
    target, others = _path_kinds(surface)
    ts = np.linspace(-3.7, 3.9, 777)
    paths = [target, target.forward, *others.values()]
    for path in paths:
        grid = (ts - ts[0]) / 2.0 if path is target.forward else ts
        codes, xy = path.positions(grid)
        assert codes.dtype == np.int64 and xy.shape == (len(grid), 2)
        want = [oracles.path_sample(path, t) for t in grid]
        assert list(surface.chart_names[codes]) == [c for c, _ in want]
        assert np.abs(xy - np.array([p for _, p in want])).max() <= 1e-12


def test_chain_path_samples_generalized_links(pcase):
    # A closed chain whose first link is a generalized connection: two pieces
    # through a 3*pi class of the cover branched over v0 and v1, and no path.
    cover = build_cover(pcase, find_monodromy(pcase, 3, branch_classes=("v0", "v1")))[0]
    s2 = 1.0 / math.sqrt(2.0)
    first = trace_connection(cover, ("front@1", 2), (-s2, -s2), math.sqrt(2.0))
    jc = cover.vertex_classes[first.end]
    t_in = first.path.events[-1].detail["sector"].incoming_coordinate
    chart, vertex, u = jc.direction_at((t_in + math.pi) % jc.angle)
    second = trace_connection(cover, (chart, vertex), u, math.sqrt(2.0))
    merged = as_generalized(cover, chain(cover, [first, second]))
    assert merged.path is None and len(merged.pieces) == 2
    back = next([a, b] for a in enumerate_saddles(cover, merged.end, 3.0)
                for b in enumerate_saddles(cover, a.end, 3.0) if b.end == merged.start)
    path = ChainPath(chain(cover, [merged, *back]))
    grid = np.linspace(-1.3, 2.0 * path.length, 501)
    codes, xy = path.positions(grid)
    want = [oracles.path_sample(path, t) for t in grid]
    assert list(cover.chart_names[codes]) == [c for c, _ in want]
    assert np.abs(xy - np.array([p for _, p in want])).max() <= 1e-12
    # halfway along the merged link is the start of its second piece
    mid_codes, mid_xy = path.positions([first.length])
    want_codes, want_xy = second.path.positions([0.0])
    assert mid_codes[0] == want_codes[0] and np.abs(mid_xy - want_xy).max() <= 1e-12


def test_two_sided_positions_follow_a_changed_grid(pcase):
    target, _ = _path_kinds(pcase)
    fresh = lambda grid: type(target)(target.forward, target.backward).positions(grid)
    grid = np.linspace(-3.0, 3.0, 301)
    first = target.positions(grid)
    assert not first[0].flags.writeable and not first[1].flags.writeable
    for changed in (grid + 0.25, np.linspace(-2.0, 3.0, 11), grid):
        codes, xy = target.positions(changed)
        want_codes, want_xy = fresh(changed)
        assert np.array_equal(codes, want_codes) and np.array_equal(xy, want_xy)
    # the memo compares values, not the caller's array object
    moving = grid.copy()
    target.positions(moving)
    moving += 0.5
    assert np.array_equal(target.positions(moving)[1], fresh(grid + 0.5)[1])


def test_projected_trace_reports_base_chart_codes(pcase, pcover):
    base = two_sided_trace(pcase, GeodesicState("back", (0.3, -0.6), unit(1.0, GOLDEN)),
                           3.0, options=PLAIN).forward
    down = project_trace(lift_trace(pcover, base, 2))
    ts = np.linspace(0.0, 3.0, 200)
    (codes, xy), (want_codes, want_xy) = down.positions(ts), base.positions(ts)
    assert np.array_equal(codes, want_codes)
    assert np.abs(xy - want_xy).max() <= 1e-9


# --------------------------------------------------------------------------
# Density experiment (short deterministic run)
# --------------------------------------------------------------------------

def test_density_short_run_improves_but_fails_threshold(mtorus):
    n = math.hypot(1.0, GOLDEN)
    target = GeodesicState("sq", (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0),
                           (1.0 / n, GOLDEN / n), 0.0)
    rep = density_experiment(mtorus, target, [1.0, 2.0, 3.0], window=5.0, eta=0.05)
    assert not rep.passed
    values = [row["distance"] for row in rep.rows]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert math.isclose(values[0], 0.576338934, abs_tol=1e-6)
    assert math.isclose(rep.final_distance, 0.172524278, abs_tol=1e-6)
    assert [row["kind"] for row in rep.rows] == ["closed_geodesic"] * 3
    # Best approximants are the slope ladder 0/1, 1/1, 2/1 of directions.
    assert [round(row["approximant_length"], 9) for row in rep.rows] == [
        1.0, round(math.sqrt(2.0), 9), round(math.sqrt(5.0), 9)]
    inv = rep.inventory
    assert inv["connections"] == 16 and inv["closed_geodesics"] == 8
    assert inv["chains"] > 0 and inv["chains_skipped"] is False


@pytest.mark.parametrize("lengths, eta", [([math.nan, 2.0], 0.05), ([1.0, math.inf], 0.05),
                                          ([0.0, 1.0], 0.05), ([-1.0, 1.0], 0.05),
                                          ([1.0, 2.0], math.nan), ([1.0, 2.0], math.inf)])
def test_density_rejects_invalid_bounds_and_eta(mtorus, monkeypatch, lengths, eta):
    traced = []
    monkeypatch.setattr(cylinders, "two_sided_trace", lambda *args, **kw: traced.append(1))
    target = GeodesicState("sq", (0.31, 0.17), unit(1.0, GOLDEN))
    with pytest.raises(DomainError, match="finite"):
        density_experiment(mtorus, target, lengths, eta=eta)
    assert not traced


@pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_density_rejects_invalid_window(mtorus, monkeypatch, window):
    traced = []
    monkeypatch.setattr(cylinders, "two_sided_trace", lambda *args, **kw: traced.append(1))
    target = GeodesicState("sq", (0.31, 0.17), unit(1.0, GOLDEN))
    with pytest.raises(DomainError, match="window must be finite and positive"):
        density_experiment(mtorus, target, [1.0, 2.0], window=window)
    assert not traced


def _golden_target(surface, chart, point):
    """A golden-slope target at a point of a chart, or, with chart None,
    offset by ``point`` from the centroid of the first chart."""
    if chart is None:
        chart = sorted(surface.charts)[0]
        cx, cy = surface.geometry[chart].centroid
        point = (cx + point[0], cy + point[1])
    return GeodesicState(chart, point, unit(1.0, GOLDEN))


def _density_json(surface, target, lengths, window, chain_budget):
    rep = density_experiment(surface, target, lengths, window=window, chain_budget=chain_budget)
    return json.dumps({"rows": rep.rows, "inventory": rep.inventory})


@pytest.mark.parametrize("name, chart, point, lengths, window, chain_budget, prunes", [
    ("mtorus", "sq", (0.31, 0.17), [1.0, 2.0, 3.0], 5.0, 200, True),
    ("mtorus", "sq", (0.31, 0.17), [float(L) for L in range(1, 14)], 5.0, 200, True),
    ("octagon", None, (0.05, 0.02), [1.0, 1.5, 2.0], 3.0, 200, False),
    ("pcase", "front", (0.3, 0.45), [1.0, 2.0, 3.0, 4.0], 3.0, 200, True),
    ("pcover", "front@1", (0.3, 0.45), [1.0, 2.0, 3.0], 3.0, 0, False),
])
def test_density_pruning_matches_full_evaluation(request, monkeypatch, name, chart, point,
                                                 lengths, window, chain_budget, prunes):
    surface = request.getfixturevalue(name)
    target = _golden_target(surface, chart, point)
    calls = []
    full = cylinders.geodesic_distance
    monkeypatch.setattr(cylinders, "geodesic_distance",
                        lambda *a, **k: calls.append(1) or full(*a, **k))
    pruned = _density_json(surface, target, lengths, window, chain_budget)
    pruned_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(cylinders, "_pruning_bound", lambda *args: None)
    assert _density_json(surface, target, lengths, window, chain_budget) == pruned
    assert (pruned_calls < len(calls)) if prunes else (pruned_calls == len(calls))


def test_density_traces_each_closed_direction_twice(mtorus, monkeypatch):
    # one trace to recurrence and one period from the target's point
    calls = []
    real = cylinders.trace
    monkeypatch.setattr(cylinders, "trace", lambda *a, **k: calls.append(1) or real(*a, **k))
    target = GeodesicState("sq", (0.31, 0.17), unit(1.0, GOLDEN))
    rep = density_experiment(mtorus, target, [1.0, 2.0, 3.0])
    assert rep.inventory["closed_geodesics"] == 8
    assert len(calls) == 2 * 8


@pytest.mark.parametrize("name, chart, point, lengths, window, chain_budget", [
    ("mtorus", "sq", (0.31, 0.17), [float(L) for L in range(1, 14)], 5.0, 0),
    ("mtorus", "sq", (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0), [2.0, 5.0, 8.0], 5.0, 0),
    ("mtorus", "sq", (0.73, 0.41), [3.0, 13.0], 5.0, 0),
    ("octagon", None, (0.05, 0.02), [1.0, 1.5, 2.0], 3.0, 200),
    ("pcase", "front", (0.3, 0.45), [1.0, 2.0, 3.0, 4.0], 3.0, 200),
    ("pcover", "front@1", (0.3, 0.45), [1.0, 2.0, 3.0], 3.0, 0),
])
def test_density_cores_match_three_traces(request, monkeypatch, name, chart, point,
                                          lengths, window, chain_budget):
    # whether each direction closes, and the core from the target's point,
    # equal those of re-tracing the period from the matched state first
    surface = request.getfixturevalue(name)
    target = _golden_target(surface, chart, point)
    cores = {}
    one_period = cylinders._one_period

    def spy(surface, state, period):
        closed = one_period(surface, state, period)
        cores[state.direction] = closed[0] if closed else None
        return closed

    monkeypatch.setattr(cylinders, "_one_period", spy)
    rep = density_experiment(surface, target, lengths, window=window, chain_budget=chain_budget)
    conns = [c for vc in surface.singular_classes
             for c in enumerate_saddles(surface, vc.id, lengths[-1])]
    directions = cylinders._inventory_directions(surface, target.chart, conns)
    reference = oracles.density_cores_three_traces(surface, target, directions, lengths[-1])
    for d, want in zip(directions, reference):
        got = cores.get(d)
        assert (got is None) == (want is None), d
        if got is not None:
            assert got.segments == want.segments, d
            assert got.total_length == want.total_length, d
    assert rep.inventory["closed_geodesics"] == sum(c is not None for c in reference) > 0


def _closed_chains(surface, L):
    """Closed chains of one or two saddle connections of length <= L each."""
    conns = [c for vc in surface.singular_classes for c in enumerate_saddles(surface, vc.id, L)]
    pool = [[c] for c in conns if c.start == c.end]
    pool += [[a, b] for a in conns for b in conns
             if a is not b and a.end == b.start and b.end == a.start]
    return [ChainPath(chain(surface, links)) for links in pool]


@pytest.mark.parametrize("name, L", [("mtorus", 1.5), ("octagon", 0.8),
                                     ("pcase", 2.1), ("pcover", 1.1)])
def test_anchor_on_chain_matches_per_sample_loop(request, name, L):
    surface = request.getfixturevalue(name)
    paths = _closed_chains(surface, L)
    assert paths
    for chart in sorted(surface.charts):
        geo = surface.geometry[chart]
        for v in geo.vertices[:2]:
            point = (chart, (0.6 * geo.centroid[0] + 0.4 * v[0],
                             0.6 * geo.centroid[1] + 0.4 * v[1]))
            for path in paths[:40]:
                assert (cylinders._anchor_on_chain(surface, path, point)
                        == oracles.anchor_on_chain(surface, path, point)), (chart, point)
