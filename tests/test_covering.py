"""Branched covers: assembly, monodromy, curvature accounting, lifts."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesurf import (
    CoverSpec,
    DEFAULT_TOLERANCES,
    GeodesicState,
    build_cover,
    build_surface,
    class_monodromy,
    default_odd_degree,
    find_monodromy,
    lift_trace,
    project_trace,
    riemann_hurwitz_check,
    trace,
)
from conesurf.corpus import flat_torus, marked_torus, pillowcase
from conesurf.errors import (
    BranchPointOnPath,
    InvalidPermutation,
    NoSmallSingularities,
    SearchBudgetExceeded,
)

SQRT2 = math.sqrt(2.0)


def sheet_of(chart: str) -> int:
    return int(chart.rsplit("@", 1)[1])


# --------------------------------------------------------------------------
# Cover assembly on the torus
# --------------------------------------------------------------------------

def test_trivial_cover_is_a_relabelled_copy(torus):
    cover, report = build_cover(torus, CoverSpec(1, {}))
    assert list(cover.charts) == ["sq@1"]
    assert report.degree == 1 and report.connected
    assert report.cover_chi == torus.euler_characteristic == 0
    assert riemann_hurwitz_check(torus, cover, report) == 0


def test_double_cover_with_sheet_swap(torus):
    cover, report = build_cover(torus, CoverSpec(2, {0: (2, 1)}))
    assert report.connected and report.components == 1
    assert report.cover_chi == 0
    # Unbranched: the corner class splits into two 2*pi classes.
    angles = [vc.angle for vc in cover.vertex_classes.values()]
    assert len(angles) == 2
    assert all(math.isclose(a, 2 * math.pi, rel_tol=1e-12) for a in angles)
    info = report.base_classes["v0"]
    assert info["monodromy"] == (1, 2)
    assert info["cycle_type"] == (1, 1)
    for cid, cinfo in report.cover_classes.items():
        assert cinfo["base_class"] == "v0" and cinfo["local_degree"] == 1
    assert riemann_hurwitz_check(torus, cover, report) == 0


def test_triple_cover_fully_branched_corner(torus):
    spec = CoverSpec(3, {0: (2, 3, 1), 1: (2, 1, 3)})
    assert class_monodromy(torus, spec, "v0") == (2, 3, 1)
    cover, report = build_cover(torus, spec)
    assert report.connected
    assert report.cover_chi == -2
    (vc,) = cover.vertex_classes.values()
    assert math.isclose(vc.angle, 6 * math.pi, rel_tol=1e-12)
    assert report.cover_classes[vc.id]["local_degree"] == 3
    assert riemann_hurwitz_check(torus, cover, report) == 0


def test_identity_cover_of_marked_torus_disconnects(mtorus):
    cover, report = build_cover(mtorus, CoverSpec(2, {}))
    assert not report.connected and report.components == 2
    # The marked corner lifts to every sheet.
    assert set(cover.marked_corners) == {("sq@1", 0), ("sq@2", 0)}
    assert all(vc.singular for vc in cover.vertex_classes.values())
    assert riemann_hurwitz_check(mtorus, cover, report) == 0


@pytest.mark.parametrize("spec,fragment", [
    (CoverSpec(2, {0: (1, 1)}), "not a permutation"),
    (CoverSpec(2, {0: (1, 2, 3)}), "not a permutation"),
    (CoverSpec(2, {7: (2, 1)}), "gluing 7"),
    (CoverSpec(0, {}), "degree"),
    (CoverSpec(2, {0: (0, 1)}), "not a permutation"),
])
def test_invalid_permutations_rejected(torus, spec, fragment):
    with pytest.raises(InvalidPermutation, match=fragment):
        build_cover(torus, spec)


# --------------------------------------------------------------------------
# Pillowcase triple cover
# --------------------------------------------------------------------------

def test_pillowcase_triple_cover_unfolds_all_pi_cones(pcase):
    degree = default_odd_degree(pcase)
    assert degree == 3
    spec = find_monodromy(pcase, degree)
    cover, report = build_cover(pcase, spec)
    assert report.connected
    assert report.cover_chi == -2
    assert len(cover.vertex_classes) == 4
    for vc in cover.vertex_classes.values():
        assert math.isclose(vc.angle, 3 * math.pi, rel_tol=1e-12)
        assert vc.kind == "large"
    for info in report.base_classes.values():
        assert info["cycle_type"] == (3,)
    assert riemann_hurwitz_check(pcase, cover, report) == 0


def test_default_odd_degree_spots(dtriangle):
    # Smallest odd degree lifting every small cone above 2*pi.
    assert default_odd_degree(dtriangle) == 5  # min angle pi/2 -> 5*pi/2
    equilateral = build_surface(
        [("front", [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]),
         ("back", [(0.0, 0.0), (0.5, -math.sqrt(3) / 2), (1.0, 0.0)])],
        [(("front", 0), ("back", 2)), (("front", 1), ("back", 1)),
         (("front", 2), ("back", 0))])
    min_angle = min(vc.angle for vc in equilateral.vertex_classes.values())
    assert math.isclose(min_angle, 2 * math.pi / 3, rel_tol=1e-12)
    # 3 * (2*pi/3) is exactly 2*pi, not above it: the next odd degree wins.
    assert default_odd_degree(equilateral) == 5


def test_default_odd_degree_requires_small_cones(torus):
    with pytest.raises(NoSmallSingularities):
        default_odd_degree(torus)


def test_monodromy_search_budget():
    pcase = pillowcase(tolerances=dataclasses.replace(DEFAULT_TOLERANCES, search_budget=3))
    with pytest.raises(SearchBudgetExceeded):
        find_monodromy(pcase, 3)


def test_cover_inherits_base_tolerances():
    tol = dataclasses.replace(DEFAULT_TOLERANCES, unfolding_budget=1234)
    # the pillowcase cover is built once; the marked torus lifts its marked
    # point, so its cover is built a second time
    for base, spec in ((pillowcase(tolerances=tol), CoverSpec(3, {0: (2, 3, 1)})),
                       (marked_torus(tolerances=tol), CoverSpec(2, {}))):
        assert build_cover(base, spec)[0].tolerances is base.tolerances


# --------------------------------------------------------------------------
# Lifting and projecting trajectories
# --------------------------------------------------------------------------

def test_lift_doubles_the_vertical_period(torus):
    cover, _ = build_cover(torus, CoverSpec(2, {0: (2, 1)}))
    vertical = GeodesicState("sq", (0.5, 0.5), (0.0, 1.0), 0.0)
    one_lap = lift_trace(cover, trace(torus, vertical, 1.0))
    assert one_lap.end_state.chart == "sq@2"
    assert math.dist(one_lap.end_state.point, (0.5, 0.5)) <= 1e-9
    two_laps = lift_trace(cover, trace(torus, vertical, 2.0))
    assert two_laps.end_state.chart == "sq@1"
    # The swap acts only on the lifted gluing; horizontal laps stay put.
    horizontal = GeodesicState("sq", (0.5, 0.5), (1.0, 0.0), 0.0)
    assert lift_trace(cover, trace(torus, horizontal, 1.0)).end_state.chart == "sq@1"


def test_lift_starting_sheet_selects_branch(torus):
    cover, _ = build_cover(torus, CoverSpec(3, {0: (2, 3, 1), 1: (2, 1, 3)}))
    # Gluing 0 joins the bottom edge (a side) to the top edge (b side), so an
    # upward lap leaves through the b side and walks the inverse permutation.
    up = trace(torus, GeodesicState("sq", (0.25, 0.5), (0.0, 1.0), 0.0), 1.0)
    down = trace(torus, GeodesicState("sq", (0.25, 0.5), (0.0, -1.0), 0.0), 1.0)
    for sheet, expected in ((1, 3), (2, 1), (3, 2)):
        lifted = lift_trace(cover, up, start_sheet=sheet)
        assert lifted.start.chart == f"sq@{sheet}"
        assert sheet_of(lifted.end_state.chart) == expected
    for sheet, expected in ((1, 2), (2, 3), (3, 1)):
        assert sheet_of(lift_trace(cover, down, start_sheet=sheet)
                        .end_state.chart) == expected


def test_projection_is_a_left_inverse_of_lifting(torus):
    cover, _ = build_cover(torus, CoverSpec(2, {0: (2, 1)}))
    base = trace(torus, GeodesicState("sq", (0.3, 0.7), (2.0, 1.0), 0.0), 4.0)
    lifted = lift_trace(cover, base, start_sheet=2)
    proj = project_trace(lifted)
    assert proj.end_state.chart == base.end_state.chart
    assert math.dist(proj.end_state.point, base.end_state.point) <= 1e-9
    assert len(proj.segments) == len(base.segments)
    for (ca, a0, a1), (cb, b0, b1) in zip(proj.segments, base.segments):
        assert ca == cb
        assert math.dist(a0, b0) <= 1e-9 and math.dist(a1, b1) <= 1e-9
    for ev in proj.events:
        for key in ("chart", "from_chart", "to_chart"):
            if key in ev.detail:
                assert "@" not in ev.detail[key]


def test_lift_refuses_paths_through_branch_points(torus):
    cover, _ = build_cover(torus, CoverSpec(3, {0: (2, 3, 1), 1: (2, 1, 3)}))
    diag = trace(torus, GeodesicState("sq", (0.5, 0.5), (1 / SQRT2, 1 / SQRT2), 0.0), 1.0)
    assert any(e.kind == "VertexPass" for e in diag.events)
    with pytest.raises(BranchPointOnPath):
        lift_trace(cover, diag)


def test_cover_roundtrip_on_random_segments(pcase):
    cover, _ = build_cover(pcase, find_monodromy(pcase, 3))
    import random
    rng = random.Random(412)
    for _ in range(25):
        sheet = rng.randint(1, 3)
        chart = rng.choice(["front", "back"])
        x = rng.uniform(0.15, 0.85)
        y = rng.uniform(0.15, 0.85) * (1.0 if chart == "front" else -1.0)
        ang = rng.uniform(0.0, 2 * math.pi)
        length = rng.uniform(0.05, 0.4)
        g = trace(cover, GeodesicState(f"{chart}@{sheet}", (x, y),
                                       (math.cos(ang), math.sin(ang)), 0.0), length)
        if g.termination != "MaxLengthReached":
            continue
        back = lift_trace(cover, project_trace(g), start_sheet=sheet)
        assert back.end_state.chart == g.end_state.chart
        assert math.dist(back.end_state.point, g.end_state.point) <= 1e-9
        assert len(back.segments) == len(g.segments)
        for (ca, a0, a1), (cb, b0, b1) in zip(back.segments, g.segments):
            assert ca == cb
            assert math.dist(a0, b0) <= 1e-9 and math.dist(a1, b1) <= 1e-9


# --------------------------------------------------------------------------
# Property: curvature accounting balances for arbitrary covers
# --------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 4), data=st.data())
def test_riemann_hurwitz_balances_for_random_covers(d, data):
    base = flat_torus()
    perms = {}
    for gidx in range(len(base.gluings)):
        perms[gidx] = tuple(data.draw(st.permutations(range(1, d + 1)),
                                      label=f"sigma_{gidx}"))
    cover, report = build_cover(base, CoverSpec(d, perms))
    assert riemann_hurwitz_check(base, cover, report) == 0
    assert sum(info["local_degree"]
               for info in report.cover_classes.values()) == d


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_riemann_hurwitz_balances_on_pillowcase_covers(data):
    base = pillowcase()
    d = 3
    perms = {}
    for gidx in range(len(base.gluings)):
        perms[gidx] = tuple(data.draw(st.permutations(range(1, d + 1)),
                                      label=f"sigma_{gidx}"))
    cover, report = build_cover(base, CoverSpec(d, perms))
    assert riemann_hurwitz_check(base, cover, report) == 0
    # Every lifted angle is the base pi times the local degree.
    for info in report.cover_classes.values():
        expected = math.pi * info["local_degree"]
        assert math.isclose(info["angle"], expected, rel_tol=1e-12)
