"""Hand-built example surfaces used by tests, experiments, and the shipped files."""

from __future__ import annotations

import math

from .config import Tolerances, DEFAULT_TOLERANCES
from .surface import ConeSurface, build_surface

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def flat_torus(tolerances: Tolerances = DEFAULT_TOLERANCES) -> ConeSurface:
    """Unit square with opposite edges glued by translation; no marked point."""
    return build_surface(
        [("sq", UNIT_SQUARE)],
        [(("sq", 0), ("sq", 2)), (("sq", 1), ("sq", 3))],
        tolerances=tolerances)


def marked_torus(tolerances: Tolerances = DEFAULT_TOLERANCES) -> ConeSurface:
    """Flat torus with the corner class marked: one singular point of angle 2*pi."""
    return build_surface(
        [("sq", UNIT_SQUARE)],
        [(("sq", 0), ("sq", 2)), (("sq", 1), ("sq", 3))],
        marked=[("sq", 0)],
        tolerances=tolerances)


def regular_octagon(circumradius: float = 1.0,
                    tolerances: Tolerances = DEFAULT_TOLERANCES) -> ConeSurface:
    """Regular octagon with opposite edges glued by translation.

    Vertices at angles pi/8 + k*pi/4 so the left/right edges are vertical.
    Single vertex class of angle 6*pi; genus 2 (chi = -2).
    """
    verts = [(circumradius * math.cos(math.pi / 8 + k * math.pi / 4),
              circumradius * math.sin(math.pi / 8 + k * math.pi / 4))
             for k in range(8)]
    return build_surface(
        [("oct", verts)],
        [(("oct", k), ("oct", k + 4)) for k in range(4)],
        tolerances=tolerances)


def pillowcase(tolerances: Tolerances = DEFAULT_TOLERANCES) -> ConeSurface:
    """Doubled unit square: a sphere with four cone points of angle pi.

    The mirror copy is re-embedded counterclockwise below the x-axis so all
    gluings are orientation-compatible.
    """
    front = UNIT_SQUARE
    back = [(0.0, 0.0), (0.0, -1.0), (1.0, -1.0), (1.0, 0.0)]
    return build_surface(
        [("front", front), ("back", back)],
        [(("front", 0), ("back", 3)),
         (("front", 1), ("back", 2)),
         (("front", 2), ("back", 1)),
         (("front", 3), ("back", 0))],
        tolerances=tolerances)


def doubled_right_triangle(leg: float = 8.0,
                           tolerances: Tolerances = DEFAULT_TOLERANCES) -> ConeSurface:
    """Double of a right isosceles triangle: a sphere with cone angles pi/2, pi/2, pi.

    The apex of angle pi/2 sits at the origin with a clean standard-cone
    neighborhood of radius about ``leg``, which makes it a convenient stage for
    self-intersection experiments near a small cone point.
    """
    front = [(0.0, 0.0), (leg, 0.0), (leg, leg)]
    back = [(0.0, 0.0), (leg, -leg), (leg, 0.0)]
    return build_surface(
        [("front", front), ("back", back)],
        [(("front", 0), ("back", 2)),
         (("front", 1), ("back", 1)),
         (("front", 2), ("back", 0))],
        tolerances=tolerances)


BUILDERS = {
    "flat_torus": flat_torus,
    "torus_marked": marked_torus,
    "octagon": regular_octagon,
    "pillowcase": pillowcase,
}

