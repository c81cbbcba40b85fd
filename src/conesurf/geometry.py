"""Planar primitives on (x, y) tuples: rigid motions, polygon predicates,
segment queries."""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


def norm(v) -> float:
    return math.hypot(v[0], v[1])


def dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1]


def cross(a, b) -> float:
    return a[0] * b[1] - a[1] * b[0]


def normalize(v):
    n = norm(v)
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("cannot normalize zero or non-finite vector")
    return (v[0] / n, v[1] / n)


def angle_of(v) -> float:
    """Direction angle in [0, 2*pi)."""
    a = math.atan2(v[1], v[0])
    return a + TWO_PI if a < 0.0 else a


def ccw_angle(from_angle: float, to_angle: float) -> float:
    """Counterclockwise angle from one direction angle to another, in [0, 2*pi)."""
    return (to_angle - from_angle) % TWO_PI


@dataclass(frozen=True)
class Isometry:
    """Orientation-preserving rigid motion p -> R p + t with R = [[c,-s],[s,c]]."""

    c: float
    s: float
    tx: float
    ty: float

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_segments(a0, a1, b0, b1) -> "Isometry":
        """The proper rigid motion mapping directed segment (a0,a1) onto (b0,b1).

        Assumes |a1-a0| ~= |b1-b0|; the rotation aligns the unit directions.
        """
        da = normalize((a1[0] - a0[0], a1[1] - a0[1]))
        db = normalize((b1[0] - b0[0], b1[1] - b0[1]))
        c = da[0] * db[0] + da[1] * db[1]
        s = da[0] * db[1] - da[1] * db[0]
        tx = b0[0] - (c * a0[0] - s * a0[1])
        ty = b0[1] - (s * a0[0] + c * a0[1])
        return Isometry(c, s, tx, ty)

    def apply(self, p):
        return (self.c * p[0] - self.s * p[1] + self.tx,
                self.s * p[0] + self.c * p[1] + self.ty)

    def rotate(self, v):
        return (self.c * v[0] - self.s * v[1], self.s * v[0] + self.c * v[1])

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: (self.compose(other))(p) == self(other(p))."""
        c = self.c * other.c - self.s * other.s
        s = self.s * other.c + self.c * other.s
        tx, ty = self.apply((other.tx, other.ty))
        return Isometry(c, s, tx, ty)

    def inverse(self) -> "Isometry":
        # R^-1 = R^T; t' = -R^T t
        c, s = self.c, -self.s
        tx = -(c * self.tx - s * self.ty)
        ty = -(s * self.tx + c * self.ty)
        return Isometry(c, s, tx, ty)

    def rounded_key(self, digits: int = 9):
        return (round(self.c, digits), round(self.s, digits),
                round(self.tx, digits), round(self.ty, digits))


# -- polygon predicates --------------------------------------------------------

def polygon_area(vertices) -> float:
    """Signed area; positive for counterclockwise."""
    a = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        a += x0 * y1 - x1 * y0
    return 0.5 * a


def _segments_cross(p0, p1, q0, q1, eps: float) -> bool:
    """True if closed segments intersect away from shared endpoints."""
    d1 = (p1[0] - p0[0], p1[1] - p0[1])
    d2 = (q1[0] - q0[0], q1[1] - q0[1])
    denom = cross(d1, d2)
    rel = (q0[0] - p0[0], q0[1] - p0[1])
    if abs(denom) <= eps:
        # parallel: overlap check via projections when collinear
        if abs(cross(rel, d1)) > eps:
            return False
        l1 = dot(d1, d1)
        t0 = dot(rel, d1) / l1
        t1 = t0 + dot(d2, d1) / l1
        lo, hi = min(t0, t1), max(t0, t1)
        return lo < 1.0 - 1e-12 and hi > 1e-12
    s = cross(rel, d2) / denom
    t = cross(rel, d1) / denom
    return -eps < s < 1.0 + eps and -eps < t < 1.0 + eps


def is_simple_polygon(vertices, eps: float = 1e-12) -> bool:
    """No repeated vertices, no crossing edges (adjacent edges share one point)."""
    n = len(vertices)
    if n < 3:
        return False
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        if norm((b[0] - a[0], b[1] - a[1])) <= eps:
            return False
    for i in range(n):
        p0, p1 = vertices[i], vertices[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent (or same) edges
            q0, q1 = vertices[j], vertices[(j + 1) % n]
            if _segments_cross(p0, p1, q0, q1, eps):
                return False
    return True


def interior_angle(vertices, i: int) -> float:
    """Interior angle at vertex i of a counterclockwise simple polygon, in (0, 2*pi)."""
    n = len(vertices)
    v = vertices[i]
    nxt = vertices[(i + 1) % n]
    prv = vertices[(i - 1) % n]
    a_out = angle_of((nxt[0] - v[0], nxt[1] - v[1]))
    a_in = angle_of((prv[0] - v[0], prv[1] - v[1]))
    ang = ccw_angle(a_out, a_in)
    return ang if ang > 0.0 else TWO_PI


def point_in_polygon(vertices, p, tol: float = 1e-9) -> bool:
    """Inside test with a boundary band of width tol counted as inside."""
    n = len(vertices)
    if any(point_segment_distance(p, vertices[i], vertices[(i + 1) % n]) <= tol
           for i in range(n)):
        return True
    inside = False
    x, y = p
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        if (y0 > y) != (y1 > y):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if xi > x:
                inside = not inside
    return inside


def interior_point(vertices):
    """A point inside a counterclockwise simple polygon: the vertex average
    when ``point_in_polygon`` accepts it, else one inside the polygon for sure.

    The lowest (then leftmost) vertex v is convex. When no other vertex lies
    strictly inside the triangle of v and its neighbours, no edge crosses the
    triangle and its centroid is inside; otherwise the vertex q in it farthest
    from the neighbours' line sees v along a diagonal, whose midpoint is inside.
    """
    n = len(vertices)
    avg = (sum(v[0] for v in vertices) / n, sum(v[1] for v in vertices) / n)
    if point_in_polygon(vertices, avg):
        return avg
    k = min(range(n), key=lambda i: (vertices[i][1], vertices[i][0]))
    a, v, b = vertices[k - 1], vertices[k], vertices[(k + 1) % n]
    left = lambda p, q, w: cross((q[0] - p[0], q[1] - p[1]), (w[0] - p[0], w[1] - p[1]))
    # the vertices strictly inside the counterclockwise triangle (v, b, a)
    ear = [w for w in vertices if left(v, b, w) > 0.0 and left(b, a, w) > 0.0
           and left(a, v, w) > 0.0]
    if not ear:
        return ((a[0] + v[0] + b[0]) / 3.0, (a[1] + v[1] + b[1]) / 3.0)
    q = min(ear, key=lambda w: left(a, b, w))
    return (0.5 * (v[0] + q[0]), 0.5 * (v[1] + q[1]))


def point_segment_distance(p, a, b) -> float:
    ab = (b[0] - a[0], b[1] - a[1])
    ap = (p[0] - a[0], p[1] - a[1])
    l2 = dot(ab, ab)
    if l2 == 0.0:
        return norm(ap)
    t = dot(ap, ab) / l2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(ap[0] - t * ab[0], ap[1] - t * ab[1])
