"""Surface construction: validation, vertex classes, curvature audit, serialization."""

from __future__ import annotations

import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conesurf
import conesurf.cli
from conesurf import (
    build_surface,
    classify_singularities,
    load_surface,
    save_surface,
    surface_from_dict,
    surface_to_dict,
    validate_gauss_bonnet,
)
from conesurf import corpus
from conesurf.corpus import UNIT_SQUARE, doubled_right_triangle
from conesurf.errors import (
    DisconnectedSurface,
    EdgeLengthMismatch,
    InvalidSurfaceSpec,
    NonSimplePolygon,
    OrientationError,
    UnmatchedEdge,
)

TORUS_GLUINGS = [(("sq", 0), ("sq", 2)), (("sq", 1), ("sq", 3))]


# --------------------------------------------------------------------------
# Corpus-wide invariants
# --------------------------------------------------------------------------

def test_corpus_euler_characteristics(torus, mtorus, octagon, pcase, dtriangle):
    assert torus.euler_characteristic == 0
    assert mtorus.euler_characteristic == 0
    assert octagon.euler_characteristic == -2
    assert pcase.euler_characteristic == 2
    assert dtriangle.euler_characteristic == 2


def test_corpus_gauss_bonnet_residuals(torus, mtorus, octagon, pcase, dtriangle):
    for s in (torus, mtorus, octagon, pcase, dtriangle):
        report = validate_gauss_bonnet(s)
        assert abs(report.residual) <= 1e-9
        assert math.isclose(report.lhs, report.rhs, abs_tol=1e-9)


def test_corpus_class_kinds(torus, mtorus, octagon, pcase, dtriangle):
    # Torus: single 2*pi class, marked only when requested.
    (vc,) = torus.vertex_classes.values()
    assert vc.kind == "marked" and not vc.singular
    assert math.isclose(vc.angle, 2 * math.pi, rel_tol=1e-12)

    (mvc,) = mtorus.vertex_classes.values()
    assert mvc.kind == "marked" and mvc.singular

    # Octagon: one 6*pi class, always singular.
    (ovc,) = octagon.vertex_classes.values()
    assert ovc.kind == "large" and ovc.singular
    assert math.isclose(ovc.angle, 6 * math.pi, rel_tol=1e-12)
    assert len(ovc.members) == 8

    # Pillowcase: four pi classes.
    angles = sorted(vc.angle for vc in pcase.vertex_classes.values())
    assert len(angles) == 4
    assert all(math.isclose(a, math.pi, rel_tol=1e-12) for a in angles)
    assert all(vc.kind == "small" and vc.singular for vc in pcase.vertex_classes.values())

    # Doubled right triangle: angles pi/2, pi/2, pi in some order.
    tri_angles = sorted(vc.angle for vc in dtriangle.vertex_classes.values())
    expected = [math.pi / 2, math.pi / 2, math.pi]
    assert all(math.isclose(a, e, rel_tol=1e-12) for a, e in zip(tri_angles, expected))


def test_classify_singularities_buckets(torus, octagon, pcase):
    assert classify_singularities(torus) == {"small": [], "marked": ["v0"], "large": []}
    buckets = classify_singularities(octagon)
    assert buckets["large"] == ["v0"] and not buckets["small"] and not buckets["marked"]
    buckets = classify_singularities(pcase)
    assert sorted(buckets["small"]) == ["v0", "v1", "v2", "v3"]
    assert not buckets["marked"] and not buckets["large"]


# --------------------------------------------------------------------------
# Build-time validation errors
# --------------------------------------------------------------------------

def test_duplicate_chart_id_rejected():
    with pytest.raises(InvalidSurfaceSpec, match="duplicate chart id"):
        build_surface([("sq", UNIT_SQUARE), ("sq", UNIT_SQUARE)], TORUS_GLUINGS)


def test_too_few_vertices_rejected():
    with pytest.raises(NonSimplePolygon, match="fewer than 3"):
        build_surface([("sq", UNIT_SQUARE[:2])], [])


def test_clockwise_chart_rejected():
    with pytest.raises(OrientationError, match="not counterclockwise"):
        build_surface([("sq", UNIT_SQUARE[::-1])], TORUS_GLUINGS)


def test_self_crossing_chart_rejected():
    bow = [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
    with pytest.raises(NonSimplePolygon, match="not a simple polygon"):
        build_surface([("bow", bow)], [(("bow", 0), ("bow", 2)), (("bow", 1), ("bow", 3))])


def test_edge_reused_in_two_gluings_rejected():
    gluings = [(("sq", 0), ("sq", 2)), (("sq", 0), ("sq", 3)), (("sq", 1), ("sq", 3))]
    with pytest.raises(UnmatchedEdge, match="appears in gluings"):
        build_surface([("sq", UNIT_SQUARE)], gluings)


def test_edge_glued_to_itself_rejected():
    gluings = [(("sq", 0), ("sq", 0)), (("sq", 1), ("sq", 3)), (("sq", 2), ("sq", 2))]
    with pytest.raises(UnmatchedEdge, match="with itself"):
        build_surface([("sq", UNIT_SQUARE)], gluings)


def test_unglued_edge_rejected():
    with pytest.raises(UnmatchedEdge, match="not glued"):
        build_surface([("sq", UNIT_SQUARE)], [(("sq", 0), ("sq", 2))])


def test_glued_edge_length_mismatch_rejected():
    rect = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]
    with pytest.raises(EdgeLengthMismatch):
        build_surface([("r", rect)], [(("r", 0), ("r", 3)), (("r", 1), ("r", 2))])


def test_unknown_chart_in_gluing_rejected():
    with pytest.raises(InvalidSurfaceSpec, match="unknown chart"):
        build_surface([("sq", UNIT_SQUARE)],
                      [(("sq", 0), ("zz", 2)), (("sq", 1), ("sq", 3))])


def test_unknown_marked_corner_rejected():
    with pytest.raises(InvalidSurfaceSpec, match="marked corner"):
        build_surface([("sq", UNIT_SQUARE)], TORUS_GLUINGS, marked=[("sq", 9)])


def test_reserved_chart_id_rejected_unless_allowed():
    polys = [("sq@1", UNIT_SQUARE)]
    gluings = [(("sq@1", 0), ("sq@1", 2)), (("sq@1", 1), ("sq@1", 3))]
    with pytest.raises(InvalidSurfaceSpec, match="@"):
        build_surface(polys, gluings)
    s = build_surface(polys, gluings, allow_sheet_ids=True)
    assert list(s.charts) == ["sq@1"]


def test_disconnected_surface_rejected_unless_allowed():
    polys = [("a", UNIT_SQUARE),
             ("b", [(3.0, 0.0), (4.0, 0.0), (4.0, 1.0), (3.0, 1.0)])]
    gluings = [(("a", 0), ("a", 2)), (("a", 1), ("a", 3)),
               (("b", 0), ("b", 2)), (("b", 1), ("b", 3))]
    with pytest.raises(DisconnectedSurface, match="2 components"):
        build_surface(polys, gluings)
    s = build_surface(polys, gluings, allow_disconnected=True)
    assert len(s.components) == 2
    assert s.euler_characteristic == 0  # two tori


# --------------------------------------------------------------------------
# Gluing/edge-lookup geometry
# --------------------------------------------------------------------------

def _chart_edge(surface, chart, edge):
    verts = surface.charts[chart]
    n = len(verts)
    return verts[edge], verts[(edge + 1) % n]


@pytest.mark.parametrize("fixture", ["torus", "octagon", "pcase", "dtriangle"])
def test_gluing_isometries_map_edges_exactly(fixture, request):
    surface = request.getfixturevalue(fixture)
    for g in surface.gluings:
        a0, a1 = _chart_edge(surface, *g.a)
        b0, b1 = _chart_edge(surface, *g.b)
        # Orientation compatibility: the a edge lands on the reversed b edge.
        image0, image1 = g.iso.apply(a0), g.iso.apply(a1)
        assert math.dist(image0, b1) <= 1e-12
        assert math.dist(image1, b0) <= 1e-12


@pytest.mark.parametrize("fixture", ["torus", "octagon", "pcase", "dtriangle"])
def test_edge_lookup_is_inverse_symmetric(fixture, request):
    surface = request.getfixturevalue(fixture)
    for g in surface.gluings:
        fwd = surface.edge_lookup[g.a]
        back = surface.edge_lookup[g.b]
        assert fwd.gluing_index == back.gluing_index == g.index
        assert (fwd.side, back.side) == ("a", "b")
        assert (fwd.chart, fwd.edge) == g.b
        assert (back.chart, back.edge) == g.a
        # Forward then backward isometry composes to the identity.
        roundtrip = back.iso.compose(fwd.iso)
        for p in [(0.3, 0.7), (-1.2, 0.4)]:
            assert math.dist(roundtrip.apply(p), p) <= 1e-12


def test_class_walk_visits_each_member_once(torus, octagon, pcase):
    for surface in (torus, octagon, pcase):
        for cid, vc in surface.vertex_classes.items():
            walk = surface.class_walk(cid)
            assert len(walk) == len(vc.members)
            for gidx, side in walk:
                assert side in ("a", "b")
                assert 0 <= gidx < len(surface.gluings)


def test_vertex_class_coordinates_roundtrip(torus, octagon):
    for surface in (torus, octagon):
        (vc,) = surface.vertex_classes.values()
        assert math.isclose(vc.offsets[-1] + vc.angles[-1], vc.angle, rel_tol=1e-12)
        for k in range(len(vc.members)):
            alpha = vc.offsets[k] + 0.25 * vc.angles[k]
            chart, vertex, u = vc.direction_at(alpha)
            assert (chart, vertex) == vc.members[k]
            assert math.isclose(math.hypot(*u), 1.0, rel_tol=1e-12)
            assert vc.wedge_index(chart, vertex) == k
            assert math.isclose(vc.cone_coordinate(chart, vertex, u), alpha,
                                rel_tol=0, abs_tol=1e-9)


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def test_dict_roundtrip_preserves_geometry(octagon):
    data = surface_to_dict(octagon)
    rebuilt = surface_from_dict(data)
    assert set(rebuilt.charts) == set(octagon.charts)
    for cid, verts in octagon.charts.items():
        for p, q in zip(verts, rebuilt.charts[cid]):
            assert math.dist(p, q) <= 1e-15
    assert rebuilt.euler_characteristic == octagon.euler_characteristic
    assert {g.a for g in rebuilt.gluings} == {g.a for g in octagon.gluings}


def test_file_roundtrip(tmp_path, mtorus):
    path = tmp_path / "mtorus.json"
    save_surface(mtorus, path)
    rebuilt = load_surface(path)
    assert rebuilt.marked_corners == mtorus.marked_corners
    (vc,) = rebuilt.vertex_classes.values()
    assert vc.singular and vc.kind == "marked"


# --------------------------------------------------------------------------
# Tolerances are fixed when a surface is built
# --------------------------------------------------------------------------

def test_only_surface_builders_take_tolerances():
    # every algorithm reads surface.tolerances; ConeSurface stores what the
    # builders pass it, _vertex_classes is build_surface's helper, and the
    # corpus builders forward theirs
    allowed = {"build_surface", "surface_from_dict", "load_surface", "ConeSurface",
               "_vertex_classes"}
    takers = []
    for module in (conesurf, conesurf.cli, conesurf.covering, conesurf.cylinders,
                   conesurf.saddles, conesurf.surface, conesurf.tracer):
        for name, obj in vars(module).items():
            if name.startswith("__") or not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            if "tolerances" in params and name not in allowed:
                takers.append(f"{module.__name__}.{name}")
    assert takers == []
    for builder in corpus.BUILDERS.values():
        assert "tolerances" in inspect.signature(builder).parameters


# --------------------------------------------------------------------------
# Property: rectangle torus is always flat
# --------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(w=st.floats(0.1, 50.0), h=st.floats(0.1, 50.0))
def test_rectangle_torus_gauss_bonnet(w, h):
    rect = [(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)]
    s = build_surface([("r", rect)], [(("r", 0), ("r", 2)), (("r", 1), ("r", 3))])
    assert s.euler_characteristic == 0
    assert abs(validate_gauss_bonnet(s).residual) <= 1e-9
    (vc,) = s.vertex_classes.values()
    assert math.isclose(vc.angle, 2 * math.pi, rel_tol=1e-12)
