"""Surface construction: validation, vertex classes, curvature audit, serialization."""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conesurf
import conesurf.cli
import conesurf.svgout
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
from conesurf.corpus import UNIT_SQUARE, pillowcase
from conesurf.covering import build_cover, find_monodromy
from conesurf.errors import (
    DisconnectedSurface,
    EdgeLengthMismatch,
    InvalidSurfaceSpec,
    NonSimplePolygon,
    OrientationError,
    UnmatchedEdge,
)

import oracles

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


@pytest.mark.parametrize("name", sorted(corpus.BUILDERS))
def test_shipped_surface_files_equal_their_builders(name):
    # surfaces/<name>.json is what save_surface(corpus.BUILDERS[name](), path) writes
    path = Path(__file__).resolve().parent.parent / "surfaces" / f"{name}.json"
    built = json.loads(json.dumps(surface_to_dict(corpus.BUILDERS[name]())))
    assert built == json.loads(path.read_text(encoding="utf-8"))


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


def test_no_public_callable_takes_a_depth_step_or_cap():
    # the unfolding depth is fixed at two gluing crossings; the distance step,
    # the diameter bound and the strip-width cap come from the surface. Result
    # records such as DistanceResult may still report them.
    banned = {"depth", "step", "diameter_bound", "w_max"}
    takers = []
    for module in (conesurf, conesurf.cli, conesurf.config, conesurf.corpus,
                   conesurf.covering, conesurf.cylinders, conesurf.geometry,
                   conesurf.saddles, conesurf.surface, conesurf.svgout, conesurf.tracer):
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            members = [] if dataclasses.is_dataclass(obj) else [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{m}", f) for m, f in vars(obj).items()
                            if not m.startswith("_") and callable(f)]
            for qualname, fn in members:
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                takers += [f"{module.__name__}.{qualname}({p})"
                           for p in sorted(banned & set(params))]
    assert takers == []


def test_benchmark_span_targets_exist():
    # the benchmark's tracer wraps these names; a rename would otherwise show
    # only in its self-test. The file is executed from source, not imported,
    # so the benchmark directory stays untouched.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing.__dict__)
    missing = []
    for mod_name, functions in tracing.spanned(conesurf).items():
        module = getattr(conesurf, mod_name, None)
        missing += [f"{mod_name}.{fn}" for fn in functions
                    if not callable(getattr(module, fn, None))]
    for mod_name, cls_name, meth in tracing.SPANNED_METHODS:
        cls = getattr(getattr(conesurf, mod_name, None), cls_name, None)
        if cls is None or not callable(vars(cls).get(meth)):
            missing.append(f"{mod_name}.{cls_name}.{meth}")
    assert missing == []


# --------------------------------------------------------------------------
# Developing-map explorer
# --------------------------------------------------------------------------

def test_unfold_marked_torus_two_rings(mtorus):
    lattice = {(a, b) for a in range(-2, 3) for b in range(-2, 3) if abs(a) + abs(b) <= 2}
    isos = mtorus.alignment_isos("sq", "sq")
    assert len(isos) == 13
    assert all((iso.c, iso.s) == (1.0, 0.0) for iso in isos)
    assert {(iso.tx, iso.ty) for iso in isos} == lattice
    levels = {(iso.tx, iso.ty): level for level, _, iso in mtorus.unfold("sq", max_level=2)}
    assert levels == {(a, b): abs(a) + abs(b) for a, b in lattice}


def test_singular_images_marked_torus_one_ring(mtorus):
    # the square's corners and those of its four edge neighbours
    pts = mtorus.singular_images("sq").tolist()
    assert len(pts) == 12
    assert {tuple(p) for p in pts} == {(x, y) for x in range(-1, 3) for y in range(-1, 3)
                                       if x in (0, 1) or y in (0, 1)}


def test_unfold_octagon_counts(octagon):
    assert len(octagon.alignment_isos("oct", "oct")) == 41
    assert len(octagon.singular_images("oct")) == 48


def test_alignment_isos_match_per_pair_search():
    base = pillowcase()
    cover = build_cover(base, find_monodromy(base, 3))[0]
    for a in cover.charts:
        for b in cover.charts:
            assert cover.alignment_isos(a, b) == oracles.alignment_isos(cover, a, b), (a, b)


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
