"""Chart-subdivision invariance: the marked torus cut into horizontal strips
(``oracles.subdivide_torus``) is the same flat surface, so its saddle
connections, its (2, 1) cylinder, its m(T) rows and, on two strips, its
density rows equal the uncut torus's."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesurf import (
    GeodesicState,
    density_experiment,
    enumerate_saddles,
    find_closed_geodesic,
    min_distance_experiment,
)
from conesurf.corpus import marked_torus

import oracles

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _quantities(surface, chart):
    """Sorted rounded holonomies of the connections from v0 at L = 8, the
    (2, 1) cylinder's circumference and d_L + d_R, and the m(T) rows at
    T = 5 and 20 from (0.3, 0.55) at golden slope (``chart`` holds it)."""
    holonomies = sorted((round(c.holonomy[0], 9), round(c.holonomy[1], 9))
                        for c in enumerate_saddles(surface, "v0", 8.0))
    cyl = find_closed_geodesic(surface, (2.0, 1.0))
    n = math.hypot(1.0, GOLDEN)
    start = GeodesicState(chart, (0.3, 0.55), (1.0 / n, GOLDEN / n))
    rows = min_distance_experiment(surface, start, [5.0, 20.0]).rows
    return holonomies, cyl.circumference, cyl.width_left + cyl.width_right, rows


@pytest.fixture(scope="module")
def uncut(mtorus):
    return _quantities(mtorus, "sq")


@pytest.mark.parametrize("k", [2, 4, 10])
def test_strips_keep_the_torus_quantities(uncut, k):
    surface = oracles.subdivide_torus(k)
    assert len(surface.charts) == k and [vc.id for vc in surface.singular_classes] == ["v0"]
    holonomies, circumference, width, rows = _quantities(surface, f"r{int(0.55 * k)}")
    want_holonomies, want_circumference, want_width, want_rows = uncut
    assert len(holonomies) == 120 and holonomies == want_holonomies
    assert abs(circumference - want_circumference) <= 1e-12, (circumference, want_circumference)
    assert abs(width - want_width) <= 1e-12, (width, want_width)
    assert [T for T, _ in rows] == [T for T, _ in want_rows] == [5.0, 20.0]
    for (_, m), (_, want) in zip(rows, want_rows):
        assert abs(m - want) <= 1e-12, (rows, want_rows)


TORUS = marked_torus()
STRIPS = {k: oracles.subdivide_torus(k) for k in (2, 3, 4)}


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.01, 0.99), y=st.floats(0.01, 0.99), angle=st.floats(0.0, 2.0 * math.pi),
       bounds=st.lists(st.floats(0.1, 30.0), min_size=3, max_size=3))
def test_strips_keep_the_torus_min_distance_rows(x, y, angle, bounds):
    # m(T) from any start, in any direction, at any bounds, uses neither the
    # window sweep nor the density kernel. Not k >= 5: a middle strip's
    # one-ring candidates hold no marked point, so its rows read inf
    # (ROADMAP item 13's defect).
    direction = (math.cos(angle), math.sin(angle))
    want = min_distance_experiment(TORUS, GeodesicState("sq", (x, y), direction), bounds).rows
    for k, surface in STRIPS.items():
        start = GeodesicState(f"r{int(k * y)}", (x, y), direction)
        rows = min_distance_experiment(surface, start, bounds).rows
        assert [T for T, _ in rows] == [T for T, _ in want]
        for (_, m), (_, w) in zip(rows, want):
            assert abs(m - w) <= 1e-12, (k, rows, want)


def _density_rows(surface, chart):
    n = math.hypot(1.0, GOLDEN)
    start = GeodesicState(chart, (0.3, 0.55), (1.0 / n, GOLDEN / n))
    return density_experiment(surface, start, [1.0, 2.0, 3.0, 5.0], window=3.0).rows


def test_two_strips_keep_the_torus_density_rows(mtorus):
    # The first density rows over more than one chart. Not k = 4: its first row
    # reads 0.534851 against 0.532446, since the distance kernel minimizes over
    # the copies within two gluing crossings only (ROADMAP item 13's defect).
    rows, want = _density_rows(oracles.subdivide_torus(2), "r1"), _density_rows(mtorus, "sq")
    assert len(rows) == len(want) == 4
    for row, w in zip(rows, want):
        assert (row["label"], row["kind"]) == (w["label"], w["kind"])
        assert row["length_bound"] == w["length_bound"]
        assert abs(row["distance"] - w["distance"]) <= 1e-12, (rows, want)
        assert abs(row["approximant_length"] - w["approximant_length"]) <= 1e-12, (rows, want)
