"""Saddle connections: enumeration, direction spectra, chains, merging."""

from __future__ import annotations

import dataclasses
import math

import pytest

from conesurf import (
    DEFAULT_TOLERANCES,
    as_generalized,
    build_cover,
    build_surface,
    chain,
    direction_spectrum,
    enumerate_saddles,
    find_monodromy,
    trace_connection,
)
from conesurf.corpus import regular_octagon
from conesurf.errors import (
    DomainError,
    EndpointMismatch,
    UnfoldingBudgetExceeded,
    UnknownVertexClass,
)

import oracles

SQRT2 = math.sqrt(2.0)


# --------------------------------------------------------------------------
# Enumeration against the lattice oracle
# --------------------------------------------------------------------------

@pytest.mark.parametrize("L", [1.5, 5.0])
def test_torus_saddles_match_primitive_vectors(mtorus, L):
    conns = enumerate_saddles(mtorus, "v0", L)
    got = sorted((round(h, 9) for c in conns for h in [c.length]))
    expected = sorted(round(math.hypot(p, q), 9) for p, q in oracles.primitive_vectors(L))
    assert got == expected
    holos = sorted((round(c.holonomy[0], 9), round(c.holonomy[1], 9)) for c in conns)
    assert holos == sorted((float(p), float(q)) for p, q in oracles.primitive_vectors(L))


def test_holonomy_norm_equals_length(mtorus):
    for c in enumerate_saddles(mtorus, "v0", 3.0):
        assert math.isclose(math.hypot(*c.holonomy), c.length, rel_tol=1e-12)
        assert c.start == c.end == "v0"
        assert c.interior_hits == ()
        assert math.isclose(math.hypot(*c.direction), 1.0, rel_tol=1e-12)


def test_pillowcase_short_saddles(pcase):
    # At L = 1.1 only the four glued square edges connect singularities.
    adjacency = {"v0": {"v1", "v3"}, "v1": {"v0", "v2"},
                 "v2": {"v1", "v3"}, "v3": {"v0", "v2"}}
    union = set()
    for base, expected_ends in adjacency.items():
        conns = enumerate_saddles(pcase, base, 1.1)
        assert {c.end for c in conns} == expected_ends
        assert len(conns) == 2
        assert all(math.isclose(c.length, 1.0, rel_tol=1e-12) for c in conns)
        for c in conns:
            union.add(frozenset((c.start, c.end)))
    assert len(union) == 4


def test_enumeration_input_validation(torus, mtorus):
    with pytest.raises(DomainError, match="not singular"):
        enumerate_saddles(torus, "v0", 1.5)
    with pytest.raises(UnknownVertexClass):
        enumerate_saddles(mtorus, "v99", 1.5)
    with pytest.raises(DomainError):
        enumerate_saddles(mtorus, "v0", 0.0)
    with pytest.raises(DomainError):
        enumerate_saddles(mtorus, "v0", math.inf)


def test_unfolding_budget_guard():
    # The window sweep of one corner's wedge visits 7 windows at L = 1.45;
    # a budget below that makes the enumeration refuse instead of finishing.
    octagon = regular_octagon(
        tolerances=dataclasses.replace(DEFAULT_TOLERANCES, unfolding_budget=5))
    with pytest.raises(UnfoldingBudgetExceeded, match="exceeded 5 windows"):
        enumerate_saddles(octagon, "v0", 1.45)


# --------------------------------------------------------------------------
# The regular octagon, the paper's genus-2 example
# --------------------------------------------------------------------------

OCTAGON_SIDE = 2.0 * math.sin(math.pi / 8.0)


def _rounded(vectors):
    # rounded as the benchmark's octagon oracle rounds holonomies
    return sorted((round(x, 7) + 0.0, round(y, 7) + 0.0) for x, y in vectors)


@pytest.mark.parametrize("L", [0.8, 2.0, 5.0])
def test_octagon_saddles_are_symmetric_and_audited(octagon, L):
    conns = enumerate_saddles(octagon, "v0", L)
    assert conns and min(c.length for c in conns) >= OCTAGON_SIDE - 1e-9
    c, s = math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)
    holonomies = [sc.holonomy for sc in conns]
    assert _rounded(holonomies) == _rounded((c * x - s * y, s * x + c * y) for x, y in holonomies)
    assert all(oracles.passes_trace_audit(octagon, sc) for sc in conns)


def test_octagon_short_saddles_are_the_oriented_sides(octagon):
    verts = octagon.charts["oct"]
    sides = [(verts[(k + 1) % 8][0] - verts[k][0], verts[(k + 1) % 8][1] - verts[k][1])
             for k in range(8)]
    conns = enumerate_saddles(octagon, "v0", 0.8)
    assert len(conns) == 8
    assert _rounded(sc.holonomy for sc in conns) == _rounded(sides)


# --------------------------------------------------------------------------
# Direction spectrum
# --------------------------------------------------------------------------

def test_spectrum_small_bound_is_eight_point_star(mtorus):
    spec = direction_spectrum(mtorus, 1.5)
    expected = [-3 * math.pi / 4, -math.pi / 2, -math.pi / 4, 0.0,
                math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
    assert len(spec.angles) == 8 and spec.total == 8
    assert all(math.isclose(a, e, abs_tol=1e-12) for a, e in zip(spec.angles, expected))
    assert spec.multiplicities == [1] * 8
    assert math.isclose(spec.max_gap, math.pi / 4, rel_tol=1e-12)


def test_spectrum_gap_matches_lattice_oracle(mtorus):
    spec = direction_spectrum(mtorus, 10.0)
    angles, gap = oracles.torus_direction_gaps(10.0)
    assert len(spec.angles) == len(angles) == 192
    assert max(abs(a - b) for a, b in zip(spec.angles, angles)) <= 1e-12
    assert math.isclose(spec.max_gap, gap, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(spec.max_gap, math.atan(1 / 9), rel_tol=0, abs_tol=1e-12)


# --------------------------------------------------------------------------
# Chains and junction bookkeeping
# --------------------------------------------------------------------------

def _connection(surface, base, holonomy, L=1.5):
    hx, hy = holonomy
    return next(c for c in enumerate_saddles(surface, base, L)
                if math.isclose(c.holonomy[0], hx, abs_tol=1e-9)
                and math.isclose(c.holonomy[1], hy, abs_tol=1e-9))


def test_closed_diagonal_chain(mtorus):
    diag = _connection(mtorus, "v0", (1.0, 1.0))
    pg = chain(mtorus, [diag, diag])
    assert pg.closed and not pg.single_link
    assert math.isclose(pg.total_length, 2 * SQRT2, rel_tol=1e-12)
    assert len(pg.junctions) == 2
    for j in pg.junctions:
        assert j["straight"] and j["geodesic"]
        assert math.isclose(j["deviation"], 0.0, abs_tol=1e-12)
        assert all(math.isclose(s, math.pi, rel_tol=1e-12) for s in j["sides"])
    single = chain(mtorus, [diag])
    assert single.closed and single.single_link and not single.junctions == []


def test_chain_endpoint_mismatch(pcase):
    v0_to_v1 = _connection(pcase, "v0", (1.0, 0.0), L=1.1)
    with pytest.raises(EndpointMismatch):
        chain(pcase, [v0_to_v1, v0_to_v1])
    with pytest.raises(EndpointMismatch):
        chain(pcase, [])


def test_merge_rejects_closed_chains(mtorus):
    diag = _connection(mtorus, "v0", (1.0, 1.0))
    with pytest.raises(DomainError, match="closed"):
        as_generalized(mtorus, chain(mtorus, [diag, diag]))


def test_merge_rejects_small_junction(pcase):
    first = _connection(pcase, "v0", (1.0, 0.0), L=1.1)   # v0 -> v1
    second = _connection(pcase, "v1", (0.0, 1.0), L=1.1)  # v1 -> v2
    pg = chain(pcase, [first, second])
    assert not pg.closed
    with pytest.raises(DomainError, match="large-angle"):
        as_generalized(pcase, pg)


def test_merge_rejects_marked_junction():
    # 3x1 torus from three unit squares, all three corner classes marked:
    # straight passage through an angle-2*pi class is still not mergeable.
    charts, gluings = [], []
    for i, name in enumerate(("A", "B", "C")):
        x = float(i)
        charts.append((name, [(x, 0.0), (x + 1, 0.0), (x + 1, 1.0), (x, 1.0)]))
        gluings.append(((name, 0), (name, 2)))
    gluings += [(("A", 1), ("B", 3)), (("B", 1), ("C", 3)), (("C", 1), ("A", 3))]
    s = build_surface(charts, gluings, marked=[("A", 0), ("A", 1), ("B", 1)])
    x_id = s.corner_class[("A", 0)].id
    y_id = s.corner_class[("A", 1)].id
    z_id = s.corner_class[("B", 1)].id
    assert len({x_id, y_id, z_id}) == 3

    first = _connection(s, x_id, (1.0, 0.0), L=1.2)
    second = _connection(s, y_id, (1.0, 0.0), L=1.2)
    assert (first.end, second.end) == (y_id, z_id)
    pg = chain(s, [first, second])
    j = pg.junctions[0]
    assert not pg.closed and j["straight"] and j["kind"] == "marked"
    with pytest.raises(DomainError, match="large-angle"):
        as_generalized(s, pg)


# --------------------------------------------------------------------------
# Generalized connections through a large cone class
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def branched_cover(pcase):
    # Degree-3 cover branched over two of the four pi classes: those lift to
    # single 3*pi (large) classes, the other two keep three pi sheets each.
    spec = find_monodromy(pcase, 3, branch_classes=("v0", "v1"))
    cover, report = build_cover(pcase, spec)
    return cover


def test_merge_accepts_straight_large_junction(branched_cover):
    cover = branched_cover
    s2 = 1 / SQRT2
    first = trace_connection(cover, ("front@1", 2), (-s2, -s2), SQRT2)
    assert first is not None
    junction_class = cover.vertex_classes[first.end]
    assert math.isclose(junction_class.angle, 3 * math.pi, rel_tol=1e-12)

    sector = first.path.events[-1].detail["sector"]
    t_out = (sector.incoming_coordinate + math.pi) % junction_class.angle
    chart, vertex, u = junction_class.direction_at(t_out)
    second = trace_connection(cover, (chart, vertex), u, SQRT2)
    assert second is not None and second.start == first.end

    pg = chain(cover, [first, second])
    j = pg.junctions[0]
    assert not pg.closed and j["straight"] and j["kind"] == "large"
    merged = as_generalized(cover, pg)
    assert merged.start != merged.end
    assert math.isclose(merged.length, 2 * SQRT2, rel_tol=1e-12)
    assert math.isclose(math.hypot(*merged.holonomy), merged.length, rel_tol=1e-12)
    assert merged.interior_hits == (first.end,)


def test_branched_cover_keeps_connections_with_equal_holonomy(branched_cover):
    # Three classes (v3, v5, v7) have images at holonomy (-1, 0) from v2; a
    # candidate table keyed on holonomy alone kept one of them.
    conns = enumerate_saddles(branched_cover, "v2", 3.0)
    assert sorted(c.end for c in conns) == ["v0", "v0", "v1", "v1", "v1", "v3", "v5", "v7"]
    for vc in branched_cover.singular_classes:
        assert all(oracles.passes_trace_audit(branched_cover, sc)
                   for sc in enumerate_saddles(branched_cover, vc.id, 3.0)), vc.id


def test_merge_rejects_bent_large_junction(branched_cover):
    cover = branched_cover
    s2 = 1 / SQRT2
    first = trace_connection(cover, ("front@1", 2), (-s2, -s2), SQRT2)
    junction_class = cover.vertex_classes[first.end]
    sector = first.path.events[-1].detail["sector"]
    # Leave a quarter turn off the straight continuation: still a legal
    # geodesic passage (both sides 1.5*pi) but not mergeable.
    t_out = (sector.incoming_coordinate + 1.5 * math.pi) % junction_class.angle
    chart, vertex, u = junction_class.direction_at(t_out)
    second = trace_connection(cover, (chart, vertex), u, SQRT2) \
        or trace_connection(cover, (chart, vertex), u, 1.0)
    assert second is not None
    pg = chain(cover, [first, second])
    j = pg.junctions[0]
    assert not j["straight"] and j["geodesic"]
    with pytest.raises(DomainError, match="bends"):
        as_generalized(cover, pg)


# --------------------------------------------------------------------------
# Certification by tracing
# --------------------------------------------------------------------------

def test_trace_connection_certifies_diagonal(mtorus):
    s2 = 1 / SQRT2
    c = trace_connection(mtorus, ("sq", 0), (s2, s2), SQRT2, "v0")
    assert c is not None
    assert math.isclose(c.length, SQRT2, rel_tol=1e-9)
    assert math.isclose(c.holonomy[0], 1.0, abs_tol=1e-9)
    assert math.isclose(c.holonomy[1], 1.0, abs_tol=1e-9)


def test_trace_connection_rejects_wrong_data(mtorus):
    s2 = 1 / SQRT2
    # Wrong stated length.
    assert trace_connection(mtorus, ("sq", 0), (s2, s2), 2.0, "v0") is None
    # Wrong expected end class.
    assert trace_connection(mtorus, ("sq", 0), (s2, s2), SQRT2, "v99") is None
    # Direction that never reaches a cone point at this length.
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    n = math.hypot(1.0, golden)
    assert trace_connection(mtorus, ("sq", 0), (1 / n, golden / n), 3.0) is None
