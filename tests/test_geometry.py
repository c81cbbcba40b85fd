"""Planar primitives: isometries, angles, polygon predicates."""

import math

import pytest
from hypothesis import given, strategies as st

from conesurf.geometry import (
    Isometry,
    angle_of,
    ccw_angle,
    interior_angle,
    interior_point,
    is_simple_polygon,
    normalize,
    point_in_polygon,
    point_segment_distance,
    polygon_area,
)

UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

angles = st.floats(-10.0, 10.0, allow_nan=False)
coords = st.floats(-100.0, 100.0, allow_nan=False)


def isometry(theta, tx, ty):
    return Isometry(math.cos(theta), math.sin(theta), tx, ty)


@given(angles, coords, coords, coords, coords)
def test_isometry_inverse_roundtrip(theta, tx, ty, px, py):
    g = isometry(theta, tx, ty)
    q = g.inverse().apply(g.apply((px, py)))
    assert math.isclose(q[0], px, abs_tol=1e-8)
    assert math.isclose(q[1], py, abs_tol=1e-8)


@given(angles, angles, coords, coords, coords, coords)
def test_isometry_composition_acts_in_order(t1, t2, tx1, ty1, px, py):
    g = isometry(t1, tx1, ty1)
    h = isometry(t2, 0.5, -2.0)
    p = (px, py)
    lhs = g.compose(h).apply(p)
    rhs = g.apply(h.apply(p))
    assert math.isclose(lhs[0], rhs[0], rel_tol=1e-12, abs_tol=1e-9)
    assert math.isclose(lhs[1], rhs[1], rel_tol=1e-12, abs_tol=1e-9)


def test_isometry_preserves_distances():
    g = isometry(0.83, 3.0, -1.5)
    a, b = (0.2, 0.7), (-1.1, 4.0)
    ga, gb = g.apply(a), g.apply(b)
    assert math.isclose(math.dist(a, b), math.dist(ga, gb), rel_tol=1e-14)


def test_isometry_rotate_ignores_translation():
    g = isometry(math.pi / 2.0, 100.0, -50.0)
    v = g.rotate((1.0, 0.0))
    assert abs(v[0]) < 1e-15 and abs(v[1] - 1.0) < 1e-15


def test_from_segments_maps_one_segment_onto_another():
    a0, a1 = (0.0, 0.0), (1.0, 0.0)
    b1, b0 = (2.0, 1.0), (2.0, 2.0)
    g = Isometry.from_segments(a0, a1, b0, b1)
    for src, dst in ((a0, b0), (a1, b1)):
        got = g.apply(src)
        assert math.isclose(got[0], dst[0], abs_tol=1e-12)
        assert math.isclose(got[1], dst[1], abs_tol=1e-12)


def test_angle_of_range_and_values():
    assert angle_of((1.0, 0.0)) == 0.0
    assert math.isclose(angle_of((0.0, 1.0)), math.pi / 2.0)
    assert math.isclose(angle_of((-1.0, 0.0)), math.pi)
    assert math.isclose(angle_of((0.0, -1.0)), 3.0 * math.pi / 2.0)


@given(angles, angles)
def test_ccw_angle_in_zero_two_pi(a, b):
    g = ccw_angle(a, b)
    assert 0.0 <= g < 2.0 * math.pi + 1e-12


def test_ccw_angle_quarter_turn():
    assert math.isclose(ccw_angle(0.0, math.pi / 2.0), math.pi / 2.0)
    assert math.isclose(ccw_angle(math.pi / 2.0, 0.0), 3.0 * math.pi / 2.0)


def test_normalize_unit_length():
    v = normalize((3.0, 4.0))
    assert math.isclose(math.hypot(*v), 1.0, rel_tol=1e-15)
    assert math.isclose(v[0], 0.6) and math.isclose(v[1], 0.8)


def test_polygon_area_and_orientation():
    assert math.isclose(polygon_area(UNIT_SQUARE), 1.0)
    assert polygon_area(tuple(reversed(UNIT_SQUARE))) < 0.0


def test_simple_polygon_predicate():
    assert is_simple_polygon(UNIT_SQUARE)
    bowtie = ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0))
    assert not is_simple_polygon(bowtie)


def test_interior_angle_square_corner():
    assert math.isclose(interior_angle(UNIT_SQUARE, 0), math.pi / 2.0)


def test_point_in_polygon_interior_boundary_exterior():
    assert point_in_polygon(UNIT_SQUARE, (0.5, 0.5))
    assert point_in_polygon(UNIT_SQUARE, (0.0, 0.5))      # on an edge
    assert point_in_polygon(UNIT_SQUARE, (0.0, 0.0))      # on a corner
    assert not point_in_polygon(UNIT_SQUARE, (1.5, 0.5))
    assert not point_in_polygon(UNIT_SQUARE, (-1e-6, 0.5))


@pytest.mark.parametrize("poly", [
    # the unit square minus a notch from the top: the vertex average is in the notch
    ((0.0, 0.0), (0.4, 0.0), (0.6, 0.0), (1.0, 0.0), (1.0, 1.0),
     (0.6, 1.0), (0.6, 0.4), (0.4, 0.4), (0.4, 1.0), (0.0, 1.0)),
    # a chevron whose reflex vertex lies in the ear at the lowest vertex
    ((0.0, 0.0), (10.0, 10.0), (0.0, 2.0), (-10.0, 10.0)),
])
def test_interior_point_of_non_convex_polygon(poly):
    n = len(poly)
    avg = (sum(v[0] for v in poly) / n, sum(v[1] for v in poly) / n)
    assert not point_in_polygon(poly, avg)
    p = interior_point(poly)
    assert point_in_polygon(poly, p)
    assert min(point_segment_distance(p, poly[i], poly[(i + 1) % n]) for i in range(n)) > 0.1


def test_interior_point_keeps_an_inside_vertex_average():
    assert interior_point(UNIT_SQUARE) == (0.5, 0.5)


def test_point_segment_distance_clamps_to_endpoints():
    assert math.isclose(point_segment_distance((2.0, 1.0), (0.0, 0.0), (1.0, 0.0)),
                        math.hypot(1.0, 1.0))
    assert math.isclose(point_segment_distance((0.5, 0.3), (0.0, 0.0), (1.0, 0.0)), 0.3)
