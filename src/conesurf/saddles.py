"""Saddle connection enumeration and piecewise-geodesic assembly.

A saddle connection is a geodesic segment running between singular vertex
classes with no singular point in its interior. Enumeration sweeps the wedge
of each corner of the base class through the developed surface with the exact
window sweep of ``surface.WindowSweep``: each ray ends at the first singular
corner it meets, and one re-trace turns each hit into its connection. Chains
of connections form piecewise geodesics; chains whose junctions continue
straight through large cone points merge into generalized connections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, EndpointMismatch, TraceNumericalError
from .geometry import TWO_PI, Isometry
from .surface import KIND_LARGE, ConeSurface, CornerRef, FanPencil, WindowSweep
from .tracer import (
    EVENT_CONE_HIT,
    PLAIN_TRACE_OPTIONS,
    GeodesicState,
    TraceResult,
    _trace_fleet,
    _unit,
    trace,
)


@dataclass(frozen=True)
class SaddleConnection:
    """Geodesic segment between singular classes, free of interior cone points
    except the large-angle passages listed in ``interior_hits``."""

    start: str                      # vertex class id
    end: str
    length: float
    holonomy: tuple[float, float]   # developed displacement, root chart frame
    start_corner: CornerRef
    direction: tuple[float, float]  # outgoing unit vector, root chart frame
    path: TraceResult | None        # None for merged generalized connections
    pieces: tuple[TraceResult, ...] = ()
    interior_hits: tuple[str, ...] = ()

    @property
    def angle(self) -> float:
        return math.atan2(self.holonomy[1], self.holonomy[0])


@dataclass
class PiecewiseGeodesic:
    links: tuple[SaddleConnection, ...]
    closed: bool
    total_length: float
    junctions: list  # per junction: class, angular coordinates, deviation
    single_link: bool


@dataclass
class DirectionSpectrum:
    angles: list[float]         # sorted representatives in (-pi, pi]
    multiplicities: list[int]
    max_gap: float              # largest circular gap; 2*pi when empty
    total: int


def trace_connection(surface: ConeSurface, corner: CornerRef, direction,
                     length: float, expected_end: str | None = None) -> SaddleConnection | None:
    """Certify a saddle connection by tracing from a singular corner.

    Returns the connection when the trace ends in a cone hit at the stated
    length (and class, when given); None otherwise. A zero or non-finite
    direction raises ``trace``'s ``ZeroDirection`` before any trace.
    """
    start, d, max_length = _connection_start(surface, corner, direction, length)
    tr = trace(surface, start, max_length, options=PLAIN_TRACE_OPTIONS)
    return _certified(surface, corner, d, length, expected_end, tr)


def _connection_start(surface: ConeSurface, corner: CornerRef, direction, length: float):
    """The start state, unit direction and length bound of the trace that
    certifies a connection: the stated length plus a slack."""
    chart, k = corner
    surface.corner_class[corner]        # a corner of no class raises KeyError first
    d = _unit(direction)
    return GeodesicState(chart, surface.charts[chart][k], d), d, length + _slack(length)


def _slack(length: float) -> float:
    return max(1e-7, 1e-9 * length)


def _certified(surface: ConeSurface, corner: CornerRef, d, length: float,
               expected_end: str | None, tr: TraceResult) -> SaddleConnection | None:
    """The connection that the trace ``tr`` from ``corner`` along d
    certifies, or None (``trace_connection``)."""
    if tr.termination != EVENT_CONE_HIT:
        return None
    if abs(tr.total_length - length) > _slack(length):
        return None
    end_cls = tr.last_event.detail["vertex_class"]
    if expected_end is not None and end_cls != expected_end:
        return None
    return SaddleConnection(
        start=surface.corner_class[corner].id, end=end_cls, length=tr.total_length,
        holonomy=(tr.total_length * d[0], tr.total_length * d[1]),
        start_corner=corner, direction=d, path=tr, pieces=(tr,))


def enumerate_saddles(surface: ConeSurface, base: str, L: float) -> list[SaddleConnection]:
    """All saddle connections from ``base`` of length at most L.

    A WindowSweep of reach L follows the rays of each member corner's wedge
    (start ray included, end ray excluded) to the first singular corner each
    meets; the surface's ``unfolding_budget`` bounds the windows one wedge's
    sweep visits. Rays entering one chart copy through one edge share a
    window, so on the marked torus that is O(L^2) windows. Hits are
    deduplicated by (classes, chart-frame holonomy, length) rounded to 1e-9,
    the first member corner winning. The first hit is certified by
    ``trace_connection`` as it is found, the others after the sweeps, by
    one fleet of its traces (``tracer._trace_fleet``); a hit that does not
    certify raises TraceNumericalError. The errors raise in the order of a
    sweep that certifies each hit as it finds it: a certification before
    the sweep error that follows it. Sorted by length, then angle.
    """
    vc = surface.vertex_class(base)
    if not vc.singular:
        raise DomainError(f"class {base!r} is not singular; saddle connections "
                          "start and end at singular classes")
    if L <= 0.0 or not math.isfinite(L):
        raise DomainError(f"length bound must be positive and finite, got {L}")

    keys: set = set()
    found: list[SaddleConnection] = []
    pending, starts = [], []        # per hit after the first: (corner, holonomy, length, end)
    error = None
    try:
        for m_idx, corner in enumerate(vc.members):
            b = surface.charts[corner[0]][corner[1]]
            pencil = FanPencil(b, vc.start_rays[m_idx], vc.angles[m_idx])
            wedge = [(corner[0], Isometry.identity(), ((0.0, False), (vc.angles[m_idx], True)))]
            for w, dist, c, i, _ in WindowSweep(surface, pencil, wedge, L):
                end = surface.corner_class[(c, i)].id
                hx, hy = w[0] - b[0], w[1] - b[1]
                key = (vc.id, end, round(hx, 9), round(hy, 9), round(dist, 9))
                if key in keys:
                    continue
                keys.add(key)
                if not found:
                    found.append(_checked(trace_connection(surface, corner, (hx, hy), dist,
                                                           expected_end=end),
                                          corner, (hx, hy), dist, end))
                else:
                    pending.append((corner, (hx, hy), dist, end))
                    starts.append(_connection_start(surface, corner, (hx, hy), dist))
    except Exception as err:
        # raised after the certifications of the hits found before it
        error = err
    traces = _trace_fleet(surface, [st for st, _, _ in starts], [bound for _, _, bound in starts])
    for (corner, h, dist, end), (_, d, _), tr in zip(pending, starts, traces):
        if isinstance(tr, Exception):
            raise tr
        found.append(_checked(_certified(surface, corner, d, dist, end, tr), corner, h, dist, end))
    if error is not None:
        raise error
    return sorted(found, key=lambda s: (s.length, s.angle))


def _checked(sc: SaddleConnection | None, corner: CornerRef, h, dist: float,
             end: str) -> SaddleConnection:
    """The certified connection of a sweep hit, or the error of one that is not."""
    if sc is None:
        raise TraceNumericalError(f"tracing from corner {corner} toward the sweep's hit "
                                  f"on {end} at ({h[0]:.12g}, {h[1]:.12g}) ends elsewhere")
    return sc


def direction_spectrum(surface: ConeSurface, L: float) -> DirectionSpectrum:
    """Union of saddle holonomy directions over all singular base classes.

    Angles are atan2 values in (-pi, pi], merged within 1e-9, each with the
    number of contributing connections; the max circular gap is 2*pi when no
    connection exists at the length bound.
    """
    angles: list[float] = []
    for vc in surface.singular_classes:
        for sc in enumerate_saddles(surface, vc.id, L):
            angles.append(sc.angle)
    if not angles:
        return DirectionSpectrum([], [], TWO_PI, 0)
    angles.sort()
    reps: list[float] = []
    mult: list[int] = []
    for a in angles:
        if reps and a - reps[-1] <= 1e-9:
            mult[-1] += 1
        else:
            reps.append(a)
            mult.append(1)
    # circular wrap: first and last may coincide mod 2*pi
    if len(reps) > 1 and (reps[0] + TWO_PI) - reps[-1] <= 1e-9:
        mult[0] += mult.pop()
        reps.pop()
    if len(reps) == 1:
        gap = TWO_PI
    else:
        gaps = [b - a for a, b in zip(reps, reps[1:])]
        gaps.append(reps[0] + TWO_PI - reps[-1])
        gap = max(gaps)
    return DirectionSpectrum(reps, mult, gap, len(angles))


def _junction(surface: ConeSurface, prev: SaddleConnection, nxt: SaddleConnection) -> dict:
    vc = surface.vertex_class(prev.end)
    hit = prev.pieces[-1].last_event
    if hit.kind != EVENT_CONE_HIT:
        raise EndpointMismatch("link does not terminate at a cone point")
    corner = (hit.detail["chart"], hit.detail["vertex"])
    d_in = hit.detail["incoming"]
    t_in = vc.cone_coordinate(corner[0], corner[1], (-d_in[0], -d_in[1]))
    t_out = vc.cone_coordinate(nxt.start_corner[0], nxt.start_corner[1], nxt.direction)
    side = (t_out - t_in) % vc.angle
    deviation = side - math.pi
    return {
        "class": vc.id,
        "kind": vc.kind,
        "t_in": t_in,
        "t_out": t_out,
        "sides": (side, vc.angle - side),
        "deviation": deviation,
        "straight": abs(deviation) <= 1e-9,
        "geodesic": min(side, vc.angle - side) >= math.pi - 1e-9,
    }


def chain(surface: ConeSurface, links) -> PiecewiseGeodesic:
    """Assemble connections into a piecewise geodesic, recording junction data.

    Consecutive links must share endpoint classes; the chain is closed when the
    last end class equals the first start class. No angle condition is imposed
    at junctions; the recorded data says whether each passage is straight or a
    legal geodesic continuation.
    """
    links = tuple(links)
    if not links:
        raise EndpointMismatch("a chain needs at least one link")
    for a, b in zip(links, links[1:]):
        if a.end != b.start:
            raise EndpointMismatch(
                f"link ending at class {a.end!r} followed by link starting at {b.start!r}")
    closed = links[-1].end == links[0].start
    junctions = [_junction(surface, a, b) for a, b in zip(links, links[1:])]
    if closed:
        junctions.append(_junction(surface, links[-1], links[0]))
    return PiecewiseGeodesic(
        links=links, closed=closed,
        total_length=sum(l.length for l in links),
        junctions=junctions,
        single_link=closed and len(links) == 1)


def as_generalized(surface: ConeSurface, pg: PiecewiseGeodesic) -> SaddleConnection:
    """Merge an open chain whose junctions all pass straight through
    large-angle classes into one generalized connection.

    Straight passage keeps the developed image collinear, so the merged
    holonomy norm equals the total length. Junctions at small or marked
    classes, bent junctions, and closed chains are rejected.
    """
    if pg.closed:
        raise DomainError("closed chains do not merge into a single connection")
    for j in pg.junctions:
        if j["kind"] != KIND_LARGE:
            raise DomainError(
                f"junction at class {j['class']!r} has kind {j['kind']!r}; "
                "only large-angle passages can sit inside a connection")
        if not j["straight"]:
            raise DomainError(
                f"junction at class {j['class']!r} bends by {j['deviation']:.3g}; "
                "generalized connections require straight passage")
    first = pg.links[0]
    total = pg.total_length
    return SaddleConnection(
        start=first.start, end=pg.links[-1].end, length=total,
        holonomy=(total * first.direction[0], total * first.direction[1]),
        start_corner=first.start_corner, direction=first.direction,
        path=None, pieces=tuple(p for l in pg.links for p in l.pieces),
        interior_hits=tuple(j["class"] for j in pg.junctions))
