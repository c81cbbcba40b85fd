"""Closed geodesics, strip widths, offsets, and the density experiment."""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from conesurf import (
    ChainPath,
    GeodesicState,
    PeriodicPath,
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
    load_surface,
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
from conesurf.errors import (
    DomainError,
    IncomparableTraces,
    InsufficientPath,
    TraceNumericalError,
    UnfoldingBudgetExceeded,
    ZeroDirection,
)
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


def _counting_trace_connection(monkeypatch, result=None):
    """Patch a counter onto the boundary traces: the list of their calls. With
    ``result`` given, each call returns it instead of tracing."""
    calls = []
    real = cylinders.trace_connection

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs) if result is None else result()

    monkeypatch.setattr(cylinders, "trace_connection", counted)
    return calls


@pytest.mark.parametrize("name,direction", [("mtorus", (2.0, 1.0)), ("octagon", (1.0, 0.0)),
                                            ("pcover", (1.0, 2.0))])
def test_bounding_saddles_are_traced_on_first_read(request, monkeypatch, name, direction):
    surface = request.getfixturevalue(name)
    calls = _counting_trace_connection(monkeypatch)
    cyl = find_closed_geodesic(surface, direction)
    assert calls == []
    bounding = cyl.bounding
    witnesses = sum(len(ws) for ws in cyl.witnesses.values())
    assert len(calls) == witnesses > 0
    assert cyl.bounding is bounding and len(calls) == witnesses


def test_uncertified_boundary_raises_on_first_read(mtorus, monkeypatch):
    calls = _counting_trace_connection(monkeypatch, result=lambda: None)
    cyl = find_closed_geodesic(mtorus, (2.0, 1.0), ("sq", (0.31, 0.17)))
    assert cyl is not None and calls == []
    (w,) = cyl.witnesses["left"]
    message = (f"the boundary segment from v0 at x={w.x:.12g} to v0 at x={w.x:.12g} "
               "does not trace as a saddle connection")
    with pytest.raises(TraceNumericalError) as exc:
        cyl.bounding
    assert str(exc.value) == message and len(calls) == 1


def test_bounding_without_a_surface_is_a_domain_error(mtorus):
    cyl = find_closed_geodesic(mtorus, (2.0, 1.0))
    bare = dataclasses.replace(cyl, surface=None)
    with pytest.raises(DomainError, match="needs surface="):
        bare.bounding
    assert dataclasses.replace(cyl, surface=None, witnesses={}).bounding == {}


@pytest.mark.parametrize("bound", [math.nan, math.inf, -1.0, 0.0])
def test_circumference_bound_is_checked_before_any_trace(mtorus, monkeypatch, bound):
    traced = []
    monkeypatch.setattr(cylinders, "trace", lambda *a, **k: traced.append(a))
    with pytest.raises(DomainError) as exc:
        find_closed_geodesic(mtorus, (1.0, 2.0), max_circumference=bound)
    assert str(exc.value) == f"max_circumference must be positive and finite, got {bound}"
    assert traced == []


@pytest.mark.parametrize("direction", [(0.0, 0.0), (math.nan, 1.0), (math.inf, 1.0)])
def test_zero_direction_is_checked_before_any_trace(mtorus, monkeypatch, direction):
    traced = []
    monkeypatch.setattr(cylinders, "trace", lambda *a, **k: traced.append(a))
    message = f"direction {direction} has no usable length"
    with pytest.raises(ZeroDirection) as exc:
        find_closed_geodesic(mtorus, direction)
    assert str(exc.value) == message
    for u in (0.0, 0.2):
        with pytest.raises(ZeroDirection) as exc:
            offset_state(mtorus, GeodesicState("sq", (0.31, 0.17), direction), u)
        assert str(exc.value) == message
    assert traced == []
    # trace raises the same error with the same message
    with pytest.raises(ZeroDirection) as exc:
        tracer.trace(mtorus, GeodesicState("sq", (0.31, 0.17), direction), 1.0)
    assert str(exc.value) == message


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


@pytest.mark.parametrize("name, L", [("mtorus", 21.0), ("octagon", 8.0), ("pcase", 8.0),
                                     ("pcover", 4.0), ("notched", 6.0), ("ls", 10.0)])
def test_kept_holes_hit_what_cast_holes_hit(request, name, L):
    # a hole whose ray carries no corner of the copy is kept without exit casts;
    # the same hits (isometries included) and windows as casting on both sides
    surface = request.getfixturevalue(name)
    kept, windows = _wedge_sweeps(WindowSweep, surface, L)
    cast, cast_windows = _wedge_sweeps(oracles.HoleCastSweep, surface, L)
    assert kept and kept == cast
    assert windows == cast_windows


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
        for sweep in (oracles.WindowSweep, oracles.HoleCastSweep):
            with monkeypatch.context() as m:
                m.setattr(cylinders, "WindowSweep", sweep)
                single = find_closed_geodesic(surface, (float(p), float(q)))
            assert _cylinder_record(joined) == _cylinder_record(single), (p, q, sweep)


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


@pytest.mark.parametrize("window", [math.inf, (0.0, math.inf), (-math.inf, 1.0), math.nan])
def test_geodesic_distance_rejects_a_non_finite_window(mtorus, window):
    # a periodic path covers every window, so only the window check can refuse it
    pp = PeriodicPath(find_closed_geodesic(mtorus, (1.0, 2.0)).core)
    with pytest.raises(DomainError, match=r"window \(.*\) must be finite"):
        geodesic_distance(mtorus, pp, pp, window=window)


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
        4.0)
    geo = surface.geometry[charts[-1]]
    other = two_sided_trace(surface, GeodesicState(
        charts[-1], (0.7 * geo.centroid[0] + 0.3 * geo.vertices[0][0],
                     0.7 * geo.centroid[1] + 0.3 * geo.vertices[0][1]), unit(-0.3, 1.0)),
        4.0)
    core = find_closed_geodesic(surface, (2.0, 1.0)).core
    conns = [c for vc in surface.singular_classes for c in enumerate_saddles(surface, vc.id, 1.5)]
    links = next(([a, b] for a in conns for b in conns
                  if a is not b and a.end == b.start and b.end == a.start), None)
    links = links or [next(c for c in conns if c.start == c.end)]
    return target, {"two_sided": other, "periodic": PeriodicPath(core),
                    "chain": ChainPath(chain(surface, links))}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_path_parameters_must_be_finite(mtorus, monkeypatch, value):
    # every path kind raises before any search, and with no numpy warning
    target, others = _path_kinds(mtorus)
    searched = []
    monkeypatch.setattr(tracer._Segments, "locate", lambda *args: searched.append(args))
    for kind, path in {"trace": target.forward, **others}.items():
        with pytest.raises(DomainError) as exc:
            path.positions([0.5, value])
        assert str(exc.value) == f"path parameters must be finite, got {value}", kind
    assert not searched


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
    # "coarse": a grid with no node within the first ring's half-width of t = 0
    surface = (marked_torus(tolerances=dataclasses.replace(DEFAULT_TOLERANCES, distance_step=0.4))
               if name == "coarse" else request.getfixturevalue(name))
    target, others = _path_kinds(surface)
    grid = tracer._DistanceGrid(surface, target, 3.0)
    # rings narrower than the grid, and the whole grid last
    assert len(grid.rings) > 1 and grid.rings[-1] == (0, len(grid.ts))
    for kind, path in others.items():
        for anchor2 in (0.0, 0.37):
            full = geodesic_distance(surface, target, path, 3.0, anchor2=anchor2).value
            # the block walk: its early rings computed ahead, then one ring at a time
            (walk,) = grid.early_rings([(path, anchor2)], math.inf)
            while len(walk.sums) < len(grid.rings):
                grid._extend([walk])
            sums = walk.sums
            assert len(sums) == len(grid.rings), (kind, anchor2)
            assert 0.0 <= sums[0], (kind, anchor2, sums)
            assert all(a <= b for a, b in zip(sums, sums[1:])), (kind, anchor2, sums)
            # the whole grid is the distance itself, by the block walk and alone
            assert sums[-1] == full, (kind, anchor2, sums, full)
            alone = tracer._Walk(path, anchor2, path._segments)
            for _ in grid.rings:
                grid._extend([alone])
            assert alone.sums == sums, (kind, anchor2)
            assert grid.least([(path, anchor2)]) == [full], (kind, anchor2)


@pytest.mark.parametrize("name", ["mtorus", "pcase", "pcover"])
def test_batched_first_rings_equal_single_path_terms(request, name):
    # a block of periodic cores, chains and two-sided paths, the last ones
    # uncovered from anchor 1.1 on, batched through the early rings with no
    # least value to beat and with one that stops some walks early
    surface = request.getfixturevalue(name)
    target, others = _path_kinds(surface)
    grid = tracer._DistanceGrid(surface, target, 3.0)
    block = [(others[kind], anchor2) for anchor2 in (0.0, 0.37, 1.1, 2.9, 4.6)
             for kind in ("periodic", "chain", "two_sided")]
    whole = []
    for path, anchor2 in block:
        own = tracer._Walk(path, anchor2, path._segments)
        if not grid._uncovered(path, anchor2):
            for _ in grid.rings:
                grid._extend([own])
        whole.append(own)
    firsts = sorted(w.sums[0] for w in whole if w.sums)
    pairs, depths = set(), set()
    for least in (math.inf, firsts[len(firsts) // 2]):
        for (path, anchor2), got, full in zip(block, grid.early_rings(block, least), whole):
            if not full.sums:
                assert got is None and anchor2 > 1.0, anchor2
                continue
            # the same rings walked alone, ring by ring, and the whole grid
            own = tracer._Walk(path, anchor2, path._segments)
            for _ in got.sums:
                grid._extend([own])
            lo, hi = grid.rings[len(got.sums) - 1]
            assert got.k0 == own.k0 == full.k0
            assert repr(got.sums) == repr(own.sums) == repr(full.sums[:len(got.sums)])
            assert got.terms.tobytes() == own.terms.tobytes() == full.terms[lo:hi].tobytes()
            depths.add((least, len(got.sums)))
            codes, _ = path.positions(grid.ts[lo:hi] + anchor2)
            pairs.update(zip(grid.k1[lo:hi].tolist(), codes.tolist()))
    # no least value: every covered pair walks the early rings; with one, some stop
    assert {d for least, d in depths if least == math.inf} == {tracer._EARLY_RINGS}
    assert len({d for least, d in depths if least != math.inf}) > 1, depths
    if name != "mtorus":
        assert len(pairs) > 1, pairs


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
        # bit for bit the points of each trace located on its own
        want_codes, want_xy = oracles.reference_positions(path, grid)
        assert np.array_equal(codes, want_codes) and xy.tobytes() == want_xy.tobytes()
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
    assert xy.tobytes() == oracles.reference_positions(path, grid)[1].tobytes()
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
    target.positions(grid)
    for changed in (grid + 0.25, np.linspace(-2.0, 3.0, 11), grid):
        codes, xy = target.positions(changed)
        want_codes, want_xy = fresh(changed)
        assert np.array_equal(codes, want_codes) and np.array_equal(xy, want_xy)
    # the positions follow the values, not the caller's array object
    moving = grid.copy()
    target.positions(moving)
    moving += 0.5
    assert np.array_equal(target.positions(moving)[1], fresh(grid + 0.5)[1])


def test_projected_trace_reports_base_chart_codes(pcase, pcover):
    base = two_sided_trace(pcase, GeodesicState("back", (0.3, -0.6), unit(1.0, GOLDEN)),
                           3.0).forward
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


@pytest.mark.parametrize("budget", [-1, 2.5, 200.0, True, "5"])
def test_density_rejects_a_negative_or_non_integral_chain_budget(mtorus, monkeypatch, budget):
    # -1 used to skip every chain without a word
    traced = []
    monkeypatch.setattr(cylinders, "two_sided_trace", lambda *args, **kw: traced.append(1))
    target = GeodesicState("sq", (0.31, 0.17), unit(1.0, GOLDEN))
    with pytest.raises(DomainError, match="chain_budget must be a non-negative integer"):
        density_experiment(mtorus, target, [1.0, 2.0], chain_budget=budget)
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
    ("octagon", None, (0.05, 0.02), [1.0, 1.5, 2.0], 3.0, 200, True),
    ("pcase", "front", (0.3, 0.45), [1.0, 2.0, 3.0, 4.0], 3.0, 200, True),
    ("pcover", "front@1", (0.3, 0.45), [1.0, 2.0, 3.0], 3.0, 0, True),
])
def test_density_pruning_matches_full_evaluation(request, monkeypatch, name, chart, point,
                                                 lengths, window, chain_budget, prunes):
    surface = request.getfixturevalue(name)
    target = _golden_target(surface, chart, point)
    samples = []    # the sizes passed to the distance kernel
    kernel = tracer._sample_distances
    monkeypatch.setattr(tracer, "_sample_distances",
                        lambda s, k1, *a: samples.append(len(k1)) or kernel(s, k1, *a))
    calls = []
    monkeypatch.setattr(cylinders, "_least_distances",
                        lambda *args: calls.append(args) or tracer._least_distances(*args))
    pruned = _density_json(surface, target, lengths, window, chain_budget)
    pruned_samples = sum(samples)
    # the block walk equals each candidate walking its rings on its own
    (args,) = calls
    assert repr(tracer._least_distances(*args)) == repr(oracles.reference_least_distances(*args))
    samples.clear()
    # the whole grid is the only ring: every candidate is evaluated in full
    monkeypatch.setattr(tracer, "_FIRST_RING", math.inf)
    assert _density_json(surface, target, lengths, window, chain_budget) == pruned
    full_samples = sum(samples)
    assert (pruned_samples < full_samples) if prunes else (pruned_samples == full_samples)


@pytest.mark.parametrize("name, chart, point, lengths, window, chain_budget", [
    ("mtorus", "sq", (0.31, 0.17), [1.0, 2.0, 3.0], 5.0, 200),
    ("octagon", None, (0.05, 0.02), [1.0, 1.5, 2.0], 3.0, 200),
    ("pcase", "front", (0.3, 0.45), [1.0, 2.0, 3.0, 4.0], 3.0, 200),
    ("pcover", "front@1", (0.3, 0.45), [1.0, 2.0, 3.0], 3.0, 0),
])
def test_least_distances_are_distances_or_ruled_out(request, monkeypatch, name, chart,
                                                      point, lengths, window, chain_budget):
    # the density experiment's own pairs: each value is the pair's distance,
    # or a ring sum above the least value before it, and pruning happens
    surface = request.getfixturevalue(name)
    seen = []

    def recording(*args):
        seen.append((args, tracer._least_distances(*args)))
        return seen[-1][1]

    monkeypatch.setattr(cylinders, "_least_distances", recording)
    density_experiment(surface, _golden_target(surface, chart, point), lengths,
                       window=window, chain_budget=chain_budget)
    ((_, target, _, pairs), values), = seen
    assert len(values) == len(pairs) > 1
    least, pruned = math.inf, 0
    for (path, anchor), value in zip(pairs, values):
        full = geodesic_distance(surface, target, path, window, anchor2=anchor).value
        if value != full:
            pruned += 1
            assert value > least * (1.0 + 1e-12) and value <= full * (1.0 + 1e-12), (
                value, least, full)
        least = min(least, value)
    assert 0 < pruned < len(pairs)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_golden_least_distances_equal_the_reference_walk_with_little_waste(monkeypatch, seed):
    # the benchmark's density inputs at bound 21: the marked torus, the
    # golden-slope target, moved by the seed as the benchmark moves it
    root = pathlib.Path(__file__).resolve().parent.parent
    surface = load_surface(root / "surfaces" / "torus_marked.json")
    config = json.loads((root / "configs" / "density_torus_golden.json").read_text())
    t = config["target"]
    rng = random.Random(seed)
    point = (t["x"], t["y"]) if seed == 0 else (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
    target = GeodesicState(t["chart"], point, (t["dx"], t["dy"]))
    calls = []
    monkeypatch.setattr(cylinders, "_least_distances",
                        lambda *args: calls.append(args) or tracer._least_distances(*args))
    density_experiment(surface, target, [float(L) for L in config["lengths"] if L <= 21],
                       window=config["window"], eta=config["eta"])
    (args,) = calls
    kernel, counts = tracer._sample_distances, []
    monkeypatch.setattr(tracer, "_sample_distances",
                        lambda s, k1, *a: counts.append(len(k1)) or kernel(s, k1, *a))
    got = tracer._least_distances(*args)
    calls, samples = len(counts), sum(counts)
    counts.clear()
    want = oracles.reference_least_distances(*args)
    assert repr(got) == repr(want)
    # the early rings computed ahead cost few samples that the walk pair by
    # pair does not need (batching every ring doubled them)
    assert calls < len(counts) and samples <= 1.05 * sum(counts), (calls, samples, counts)


@pytest.mark.parametrize("name", ["pcase", "pcover"])
def test_mixed_block_least_distances_equal_the_reference_walk(request, name):
    # periodic cores, chains of two pieces and two-sided paths, 45 pairs in
    # one block of 32 and one of 12 after the first pair, some ruled out and
    # the others walking the whole grid; then an uncovered pair in the
    # second block
    surface = request.getfixturevalue(name)
    target, others = _path_kinds(surface)
    pairs = [(others[kind], anchor) for anchor in np.linspace(0.0, 1.0, 15).tolist()
             for kind in ("periodic", "chain", "two_sided")]
    assert {len(path.traces) for path, _ in pairs} == {1, 2}
    got = tracer._least_distances(surface, target, 3.0, pairs)
    assert repr(got) == repr(oracles.reference_least_distances(surface, target, 3.0, pairs))
    full = [geodesic_distance(surface, target, path, 3.0, anchor2=anchor).value
            for path, anchor in pairs]
    assert 0 < sum(a != b for a, b in zip(got, full)) < len(pairs)
    pairs.insert(40, (others["two_sided"], 1.5))
    with pytest.raises(InsufficientPath) as batched:
        tracer._least_distances(surface, target, 3.0, pairs)
    with pytest.raises(InsufficientPath) as walked:
        oracles.reference_least_distances(surface, target, 3.0, pairs)
    assert str(batched.value) == str(walked.value)
    assert str(batched.value).startswith("path2 covers")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["anchor1", "anchor2"])
def test_geodesic_distance_rejects_non_finite_anchors(mtorus, monkeypatch, which, value):
    # a two-sided target and a periodic core, whose range checks a
    # non-finite anchor passes, raise before any sample is taken
    target = two_sided_trace(mtorus, GeodesicState("sq", (0.31, 0.17), unit(1.0, GOLDEN)), 6.0)
    core = PeriodicPath(find_closed_geodesic(mtorus, (2.0, 1.0)).core)
    sampled = []
    monkeypatch.setattr(tracer._Segments, "locate", lambda *args: sampled.append(args))
    monkeypatch.setattr(tracer, "_sample_distances", lambda *args: sampled.append(args))
    with pytest.raises(DomainError, match=f"^{which} must be finite, got {value}$"):
        geodesic_distance(mtorus, target, core, 3.0, **{which: value})
    assert not sampled


def test_density_run_calls_geodesic_distance_once(mtorus, monkeypatch):
    # only the first candidate is measured by geodesic_distance; every other
    # one walks its rings on the shared grid
    calls = []
    full = tracer.geodesic_distance
    monkeypatch.setattr(tracer, "geodesic_distance",
                        lambda *a, **k: calls.append(1) or full(*a, **k))
    rep = density_experiment(mtorus, _golden_target(mtorus, "sq", (0.31, 0.17)), [1.0, 2.0, 3.0])
    assert rep.inventory["closed_geodesics"] == 8 and len(calls) == 1


def _three_tori():
    """Marked square tori of sides 1, 1.3 and 1.7 as one disconnected surface."""
    polys = [(c, [(x0, 0.0), (x0 + a, 0.0), (x0 + a, a), (x0, a)])
             for c, x0, a in (("a", 0.0, 1.0), ("b", 3.0, 1.3), ("c", 6.0, 1.7))]
    gluings = [((c, k), (c, k + 2)) for c in "abc" for k in (0, 1)]
    return build_surface(polys, gluings, marked=[(c, 0) for c in "abc"],
                         allow_disconnected=True)


def test_density_block_raises_for_its_first_failing_candidate(monkeypatch):
    # chains on the other tori have no chart alignment with the target's at
    # t = 0; one block holds a chain on "b" and, later, one on "c", and
    # before them a pair that walks past the early rings
    surface = _three_tori()
    target = _golden_target(surface, "a", (0.31, 0.17))
    blocks = []
    early_rings = tracer._DistanceGrid.early_rings

    def recording(self, pairs, least):
        walks = early_rings(self, pairs, least)
        blocks.append((pairs, list(walks)))
        return walks

    monkeypatch.setattr(tracer._DistanceGrid, "early_rings", recording)
    with pytest.raises(IncomparableTraces) as batched:
        density_experiment(surface, target, [1.0, 2.0, 3.0])
    # the first candidate's geodesic_distance is a block of its own
    assert len(blocks[0][0]) == 1
    pairs, walks = blocks[1]
    charts = [surface.chart_names[path.positions([anchor])[0][0]] for path, anchor in pairs]
    b, c = charts.index("b"), charts.index("c")
    assert 0 < b < c, charts
    assert max(len(w.sums) for w in walks[:b]) > tracer._EARLY_RINGS
    # the failing pairs' early rings were computed ahead, and raised nothing
    assert walks[b].sums and walks[c].sums
    monkeypatch.setattr(tracer, "_FIRST_RING", math.inf)
    with pytest.raises(IncomparableTraces) as full:
        density_experiment(surface, target, [1.0, 2.0, 3.0])
    assert str(batched.value) == str(full.value) == (
        "no chart alignment between 'a' and 'b' at time 0")


def test_density_traces_each_closed_direction_twice(mtorus, monkeypatch):
    # one trace to recurrence and one period from the target's point, each a
    # ray of one of two fleets, and no trace outside them
    calls, fleets = [], []
    real, real_fleet = cylinders.trace, cylinders._trace_fleet
    monkeypatch.setattr(cylinders, "trace", lambda *a, **k: calls.append(1) or real(*a, **k))
    monkeypatch.setattr(cylinders, "_trace_fleet",
                        lambda surface, starts, *a: fleets.append(len(starts))
                        or real_fleet(surface, starts, *a))
    target = GeodesicState("sq", (0.31, 0.17), unit(1.0, GOLDEN))
    rep = density_experiment(mtorus, target, [1.0, 2.0, 3.0])
    assert rep.inventory["closed_geodesics"] == 8
    assert fleets == [8, 8] and calls == []


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
    closed_cores = cylinders._closed_cores

    def spy(surface, chart, point, directions, max_circumference):
        out = closed_cores(surface, chart, point, directions, max_circumference)
        cores.update(zip(directions, out))
        return out

    monkeypatch.setattr(cylinders, "_closed_cores", spy)
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
