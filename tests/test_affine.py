"""The affine action as an oracle: a surface mapped by a linear map g, built
by ``oracles.apply_linear``, has its saddle holonomies and cylinders mapped by
g. Similarities c.R rotate and scale every chart; the octagon's Veech twist
makes long, thin charts. Both run the certification and density fleets on
charts unlike the corpus's."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conesurf import enumerate_saddles, find_closed_geodesic

import oracles

# base length bound per surface: the octagon has 368 connections at L = 8
SADDLE_L = {"octagon": 4.0, "mtorus": 6.0, "pcase": 6.0}
VEECH_TWIST = ((1.0, 2.0 + 2.0 * math.sqrt(2.0)), (0.0, 1.0))


def _similarity(c: float, theta: float):
    return ((c * math.cos(theta), -c * math.sin(theta)), (c * math.sin(theta), c * math.cos(theta)))


def _apply(g, v):
    return (g[0][0] * v[0] + g[0][1] * v[1], g[1][0] * v[0] + g[1][1] * v[1])


def _assert_same_vectors(got, want, tol: float):
    """Equal multisets of plane vectors, up to tol: each vector has as many
    neighbours within tol on the other side as on its own."""
    got, want = np.array(got, dtype=float).reshape(-1, 2), np.array(want, dtype=float).reshape(-1, 2)
    assert len(got) == len(want)

    def near(a, b):
        return (np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
                <= tol).sum(axis=1)

    assert (near(want, got) == near(want, want)).all()
    assert (near(got, want) == near(got, got)).all()


def _holonomies(surface, L):
    return [sc.holonomy for vc in surface.singular_classes
            for sc in enumerate_saddles(surface, vc.id, L)]


@settings(max_examples=6, deadline=None)
@given(log_c=st.floats(-3.0, 3.0), theta=st.floats(0.0, 2.0 * math.pi))
@example(log_c=-3.0, theta=0.3).via("the smallest scale")
@example(log_c=3.0, theta=math.pi / 4.0).via("the largest scale")
def test_saddle_holonomies_map_by_a_similarity(octagon, mtorus, pcase, log_c, theta):
    # Hol(cR.S) = cR.Hol(S), with multiplicities, on rotated and scaled charts
    c = 10.0 ** log_c
    g = _similarity(c, theta)
    for name, surface in (("octagon", octagon), ("mtorus", mtorus), ("pcase", pcase)):
        L = SADDLE_L[name]
        want = [_apply(g, h) for h in _holonomies(surface, L)]
        got = _holonomies(oracles.apply_linear(surface, g), c * L)
        _assert_same_vectors(got, want, 1e-8 * c)


@pytest.mark.parametrize("c", [1e-3, 0.37, 1.0, 1e3])
@pytest.mark.parametrize("name", ["octagon", "mtorus", "pcase"])
def test_closed_geodesic_scales_by_a_similarity(request, name, c):
    # the circumference and both widths of the (1, 2) cylinder scale by c
    surface = request.getfixturevalue(name)
    theta = 0.7
    base = find_closed_geodesic(surface, (1.0, 2.0))
    moved = find_closed_geodesic(oracles.apply_linear(surface, _similarity(c, theta)),
                                 _apply(_similarity(1.0, theta), (1.0, 2.0)))
    for a, b in ((base.circumference, moved.circumference), (base.width_left, moved.width_left),
                 (base.width_right, moved.width_right)):
        assert math.isclose(b, c * a, rel_tol=1e-9), (a, b)


def test_octagon_veech_twist_keeps_its_connections(octagon):
    # the twist is in the octagon's Veech group: the sheared octagon, whose
    # charts are long and thin (diameter 9.86), has the octagon's 368
    # connections of length at most 8, holonomy for holonomy
    sheared = oracles.apply_linear(octagon, VEECH_TWIST)
    assert sheared.max_diameter > 9.8
    got = _holonomies(sheared, 8.0)
    assert len(got) == 368
    _assert_same_vectors(got, _holonomies(octagon, 8.0), 1e-8)


@pytest.mark.parametrize("g, landing", [(tuple(zip(*VEECH_TWIST)), 92),
                                        (_similarity(1.0, math.pi / 4.0), 368)],
                         ids=["twist_transpose", "rotation_pi_4"])
def test_octagon_veech_group_keeps_its_holonomies(octagon, g, landing):
    # the transpose of the twist and the rotation by pi/4 are in the
    # octagon's Veech group too: the octagon mapped by g has the octagon's
    # 368 connections of length at most 8, and g maps the octagon's
    # holonomies onto themselves with multiplicity where the image lands
    # within 8
    hol = _holonomies(octagon, 8.0)
    assert len(hol) == 368
    _assert_same_vectors(_holonomies(oracles.apply_linear(octagon, g), 8.0), hol, 1e-8)
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    inverse = ((g[1][1] / det, -g[0][1] / det), (-g[1][0] / det, g[0][0] / det))
    images = [v for v in (_apply(g, h) for h in hol) if math.hypot(*v) <= 8.0]
    assert len(images) == landing
    _assert_same_vectors(images, [h for h in hol if math.hypot(*_apply(inverse, h)) <= 8.0],
                         1e-8)
