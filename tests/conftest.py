"""Shared fixtures: the bundled corpus surfaces, built once per session."""

import pytest

from conesurf import build_surface
from conesurf.corpus import (
    doubled_right_triangle,
    flat_torus,
    marked_torus,
    pillowcase,
    regular_octagon,
)


@pytest.fixture(scope="session")
def torus():
    return flat_torus()


@pytest.fixture(scope="session")
def mtorus():
    return marked_torus()


@pytest.fixture(scope="session")
def octagon():
    return regular_octagon()


@pytest.fixture(scope="session")
def pcase():
    return pillowcase()


@pytest.fixture(scope="session")
def dtriangle():
    return doubled_right_triangle()


@pytest.fixture(scope="session")
def notched():
    """The marked unit torus cut into two charts with flat corners: "A" is the
    square minus the notch [0.4, 0.6] x [0.4, 1], which is chart "B"; (0, 0)
    is marked. The vertex average of "A", (0.5, 0.48), lies in the notch."""
    a = [(0.0, 0.0), (0.4, 0.0), (0.6, 0.0), (1.0, 0.0), (1.0, 1.0),
         (0.6, 1.0), (0.6, 0.4), (0.4, 0.4), (0.4, 1.0), (0.0, 1.0)]
    b = [(0.4, 0.4), (0.6, 0.4), (0.6, 1.0), (0.4, 1.0)]
    gluings = [(("A", 5), ("B", 1)), (("A", 6), ("B", 0)), (("A", 7), ("B", 3)),
               (("A", 0), ("A", 8)), (("A", 1), ("B", 2)), (("A", 2), ("A", 4)),
               (("A", 3), ("A", 9))]
    return build_surface([("A", a), ("B", b)], gluings, marked=[("A", 0)])
