"""Geodesic tracing by straight-line flow across chart gluings.

A trajectory is advanced inside its current chart until it meets the polygon
boundary; crossing an edge applies the gluing isometry, meeting a corner is
classified against the corner's vertex class. Singular classes stop the trace
(reporting the admissible continuation sector); non-singular flat corners are
passed straight through using the class's angular coordinate system.

The module also provides the developing map for a traced path (the unfolded
straight segment), closed-form self-intersection parameters for passage near a
small cone point, distance-to-singularities telemetry, and the exponentially
weighted compact-open distance between two traced paths.

Arclength. A trace's arclength is the running sum from 0.0, in order, of its
segments' lengths ``math.hypot(b - a)``, the floats that ``trace`` and the
lockstep add as they step. ``TraceResult.arclength_table`` holds the lengths
and the n + 1 sums as read-only float64 views, built once on first read, and
every reader of a trace's arclength reads it, so a crossing, a corner
passage or a recurrence's ``matched_at`` is one of its sums.

Path protocol. Every path that ``geodesic_distance`` compares -- a
``TraceResult``, a ``TwoSidedPath`` here, a ``PeriodicPath`` or ``ChainPath``
in ``cylinders`` -- is a ``_TracedPath``. It runs through the traces
``traces`` and offers ``param_range()``, the (lo, hi) parameter interval it
covers, and ``arclengths(ts)``, which maps an array of parameters to
arclengths along its traces and the int64 index into ``traces`` of each.
``positions(ts)`` then returns ``(codes, xy)``: an int64 array of chart codes
and an (n, 2) array of points in those charts' frames. A chart code indexes
``surface.chart_names``, the sorted chart ids of the surface the path was
traced on (``surface.chart_index`` maps back), so samples are grouped by chart
pair with integer arithmetic. The samples of many paths are located in one
pass over their traces' segments.

Fleets. ``_trace_fleet`` traces many independent rays at once, for the
certification traces of ``saddles.enumerate_saddles`` and the recurrence and
one-period traces of the density experiment; a single trace (``trace``,
``find_closed_geodesic``, ``lift_trace``, the CLI) keeps the scalar stepper.
Each step of the lockstep takes every active ray across one edge: the exits
against a surface-wide table of edges and gluings, the corner prefilter and
the gluing maps are numpy passes that make ``trace``'s elementwise
operations in ``trace``'s order, which round as Python floats do, and the
arclengths are ``math.hypot`` over lists, since ``np.hypot`` rounds
differently. A ray that meets a corner gets ``trace``'s own check; a
terminal cone hit, the max-length end and the earliest recurrence match,
taken over the ray's crossing history, end it as they end ``trace``. A ray
that meets any other branch leaves the lockstep and is traced again from its
start by ``trace``: no exit or an edge hop, an edge within 1e-15 of
parallel, a flat-corner passage, a value that is not finite. So every
result is ``trace``'s, bit for bit. A fleet of fewer than
``_FLEET_MIN_RAYS`` rays is traced by ``trace`` one ray at a time.
A result made in lockstep holds its slice of the fleet's segment arrays
(``_FleetRows``): its ``segments``, ``transitions`` and ``event_records``
are built from them on first read, and its ``arclength_table`` and
positions read them directly; its end state, termination, recurrence,
total length and ``last_event`` are set when it ends.
"""

from __future__ import annotations

import array
import bisect
import itertools
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz
_rotation_bits = struct.Struct("2d").pack   # a bitwise key: 0.0 and -0.0 differ

from .errors import (
    AngleOutOfRange,
    DomainError,
    IncomparableTraces,
    InsufficientPath,
    StartOutsideSurface,
    TraceNumericalError,
    ZeroDirection,
)
from .geometry import (
    Isometry,
    angle_of,
    norm,
    normalize,
    point_in_polygon,
    point_segment_distance,
)
from .surface import KIND_MARKED, ConeSurface

EVENT_EDGE_CROSS = "EdgeCross"
EVENT_CONE_HIT = "ConeHit"
EVENT_VERTEX_PASS = "VertexPass"
EVENT_MAX_LENGTH = "MaxLengthReached"
EVENT_SELF_RECURRENCE = "SelfRecurrence"


@dataclass(frozen=True)
class GeodesicState:
    chart: str
    point: tuple[float, float]
    direction: tuple[float, float]
    arclength: float = 0.0


@dataclass(slots=True)
class TraceEvent:
    kind: str
    arclength: float
    detail: dict


@dataclass(frozen=True)
class ContinuationSector:
    """Admissible outgoing directions after hitting a cone point.

    Directions are angular coordinates around the vertex class. Any coordinate
    in [start, start + width] (mod angle) leaves at least pi on both sides of
    the incoming ray; the interval is centered opposite the incoming direction.
    Empty whenever the cone angle is at most 2*pi.
    """

    class_id: str
    angle: float            # total cone angle at the class
    incoming_coordinate: float
    start: float            # (incoming_coordinate + pi) mod angle
    width: float            # max(0, angle - 2*pi)


@dataclass(frozen=True)
class TraceOptions:
    """What ``trace`` stops at and records.

    With ``detect_recurrence`` the state after each chart crossing is matched
    against the earlier ones: a match differs by less than ``tau_rec`` in each
    component of point and direction and lies more than 1e-9 of arclength
    earlier; the earliest matching crossing wins. Each check costs O(1) on
    average. ``stop_on_recurrence`` ends the trace there and requires
    ``detect_recurrence``. With ``record_min_distance`` the trace keeps a
    record per segment, and ``min_distance_series`` is built from them on its
    first read, by one vectorized pass of the distance kernel over the segments.
    """

    stop_on_cone: bool = True          # False: pass through marked (2*pi) points
    detect_recurrence: bool = True
    stop_on_recurrence: bool = False
    record_min_distance: bool = True


DEFAULT_TRACE_OPTIONS = TraceOptions()
# no recurrence scan, no m(T) series: for callers that read neither
PLAIN_TRACE_OPTIONS = TraceOptions(detect_recurrence=False, record_min_distance=False)


class _Segments:
    """The segments of one or more traces, in order: each segment's start
    arclength along its own trace (its ``arclength_table``), start point,
    unit direction and chart code, with each trace's first segment
    (``first``, ending in the count) and its total length.

    ``locate`` finds every sample's segment by one ``searchsorted``. Over
    several traces it searches (trace, arclength) keys as complex numbers,
    which numpy orders lexicographically, so within a trace the search makes
    the comparisons of a search in that trace alone, and each sample's point
    is bit for bit the one its own trace gives. Searching the starts alone,
    clipped to the trace's last segment, finds the segment that a search that
    also holds the trace's end finds.
    """

    def __init__(self, traces):
        rows = [tr._segment_rows() for tr in traces]
        tables = [tr.arclength_table for tr in traces]
        lengths = np.concatenate([own for own, _ in tables])
        self.first = np.cumsum([0] + [len(codes) for codes, _, _ in rows])
        self.starts = np.concatenate([sums[:-1] for _, sums in tables])
        self.codes, self.p0, p1 = (np.concatenate(column) for column in zip(*rows))
        with np.errstate(invalid="ignore", divide="ignore"):
            self.dirs = (p1 - self.p0) / np.maximum(lengths[:, None], 1e-300)
        self.totals = np.array([tr.total_length for tr in traces])
        self.keys = np.empty(len(self.codes), dtype=complex)
        self.keys.real = np.repeat(np.arange(len(traces)), np.diff(self.first))
        self.keys.imag = self.starts

    def locate(self, s: np.ndarray, which: np.ndarray):
        """Chart codes and points at arclengths ``s``, sample i along trace
        ``which[i]``. Arclengths must lie in [0, total_length] up to a small
        slack."""
        s = np.asarray(s, dtype=float)
        keys = np.empty(len(s), dtype=complex)
        keys.real, keys.imag = which, s
        total = self.totals[which]
        out = (s < -1e-9) | (s > total + 1e-9)
        if out.any():
            k = int(np.argmax(out))
            own = s[which == which[k]]
            raise InsufficientPath(
                f"arclength range [{own.min():.6g}, {own.max():.6g}] outside "
                f"[0, {total[k]:.6g}]")
        idx = np.clip(np.searchsorted(self.keys, keys, side="right") - 1,
                      self.first[which], self.first[which + 1] - 1)
        rel = np.clip(s - self.starts[idx], 0.0, None)
        return self.codes[idx], self.p0[idx] + rel[:, None] * self.dirs[idx]


class _TracedPath:
    """The path protocol for a path that runs through the traces ``traces``:
    ``arclengths(ts)`` maps parameters to arclengths along them, with the
    int64 index into ``traces`` of each, and
    ``positions`` locates them all in one pass over the traces' segments.
    Distances locate the samples of many such paths in one pass."""

    @cached_property
    def _segments(self) -> _Segments:
        return _Segments(self.traces)

    def positions(self, ts):
        """Chart codes and coordinates at the given parameters (path protocol).

        Returns (codes, xy): an int64 array of codes into the traced surface's
        ``chart_names``, one per sample, and an (n, 2) array. A non-finite
        parameter raises ``DomainError`` before any search.
        """
        ts = np.asarray(ts, dtype=float)
        if not np.isfinite(ts).all():
            raise DomainError(f"path parameters must be finite, got {ts[~np.isfinite(ts)][0]}")
        return self._segments.locate(*self.arclengths(ts))


class _FleetBuilt:
    """A list field of ``TraceResult`` that a fleet's result, made with None
    for it, builds from the fleet's rows on first read (``_FleetRows``)."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)     # so the dataclass field has no default
        value = obj.__dict__[self.name]
        if value is None:
            rows, a, b, event = obj.fleet
            value = obj.__dict__[self.name] = getattr(rows, self.name)(a, b, event)
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass
class TraceResult(_TracedPath):
    """A traced geodesic. Its ``events`` and ``min_distance_series`` are
    built from compact records on first read, and a fleet's result builds
    ``segments``, ``transitions`` and ``event_records`` from the fleet's
    rows on first read (module docstring, Fleets)."""

    start: GeodesicState
    segments: list = _FleetBuilt()        # (chart_id, (x0, y0), (x1, y1))
    # per boundary: Isometry mapping next chart -> previous chart frame
    transitions: list = _FleetBuilt()
    # events in order; a crossing is (s, chart, edge, nb) until read
    event_records: list = _FleetBuilt()
    total_length: float
    end_state: GeodesicState
    termination: str
    recurrence: dict | None
    chart_index: dict = field(repr=False)  # chart id -> code: the traced surface's
    # (chart, p0, p1, s0, s1) per segment, the m(T) input until the series is
    # read; None without record_min_distance
    distance_records: list | None = field(default=None, repr=False, compare=False)
    surface: ConeSurface | None = field(default=None, repr=False, compare=False)
    # a fleet's result: (its fleet's _FleetRows, its rows a:b, its terminal event)
    fleet: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def events(self) -> list[TraceEvent]:
        """The events in order of arclength, crossings built on first read."""
        self.event_records[:] = [_edge_cross_event(*r) if type(r) is tuple else r
                                 for r in self.event_records]
        return self.event_records

    def _segment_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(codes, p0, p1): the segments' chart codes, an int64 array, and
        their start and end points, (n, 2) arrays; a fleet's result hands
        over its rows, which are read-only."""
        if self.fleet is not None:
            rows, a, b, _ = self.fleet
            return rows.codes[a:b], rows.p0[a:b], rows.p1[a:b]
        return (np.array([self.chart_index[c] for c, _, _ in self.segments], dtype=np.int64),
                np.array([a for _, a, _ in self.segments], dtype=float),
                np.array([b for _, _, b in self.segments], dtype=float))

    @cached_property
    def arclength_table(self) -> tuple[memoryview, memoryview]:
        """(lengths, sums), read-only float64 views built on first read
        (module docstring, Arclength): segment k has length ``lengths[k]``
        and starts at ``sums[k]``."""
        if self.fleet is None:
            lengths = [math.hypot(b[0] - a[0], b[1] - a[1]) for _, a, b in self.segments]
        else:
            _, p0, p1 = self._segment_rows()
            lengths = list(itertools.starmap(math.hypot, (p1 - p0).tolist()))
        sums = itertools.accumulate(lengths, initial=0.0)
        return tuple(memoryview(array.array("d", v)).toreadonly() for v in (lengths, sums))

    @cached_property
    def min_distance_series(self) -> list:
        """(arclength, running min distance to the singular set) at arclength 0
        and at each segment end, built on first read, which frees
        ``distance_records``; [] for a trace without them."""
        records, self.distance_records = self.distance_records, None
        return [] if records is None else _min_distance_series(self.surface, records)

    @property
    def last_event(self) -> TraceEvent:
        """``events[-1]`` without the crossings: a trace ends with its terminal event."""
        return self.event_records[-1] if self.fleet is None else self.fleet[3]

    def param_range(self) -> tuple[float, float]:
        return (0.0, self.total_length)

    @property
    def traces(self) -> tuple:
        return (self,)

    def arclengths(self, ts):
        ts = np.asarray(ts, dtype=float)
        return ts, np.zeros(len(ts), dtype=np.int64)

    def state_at(self, t: float) -> GeodesicState:
        """The state at arclength t, which must be finite (else ``DomainError``)
        and lie in [0, total_length] up to ``locate``'s slack (else
        ``InsufficientPath``)."""
        if not math.isfinite(t):
            raise DomainError(f"path parameters must be finite, got {t}")
        if not -1e-9 <= t <= self.total_length + 1e-9:
            raise InsufficientPath(f"arclength {t:.6g} outside [0, {self.total_length:.6g}]")
        # the last segment that starts at or before t (the first for t < 0),
        # and its direction (b - a) / |b - a|, as _Segments.locate has them
        lengths, sums = self.arclength_table
        k = bisect.bisect_right(sums, t, 1, len(lengths)) - 1
        cid, a, b = self.segments[k]
        length = max(lengths[k], 1e-300)
        u = ((b[0] - a[0]) / length, (b[1] - a[1]) / length)
        rel = t - sums[k]
        return GeodesicState(cid, (a[0] + rel * u[0], a[1] + rel * u[1]), u, t)

    def min_distance_at(self, T: float) -> float:
        """m(T): the running minimum at the last sample at or before T.

        The series holds one sample per segment end, so this is a bisection;
        inf when nothing was recorded up to T. Raises ``DomainError`` for a
        NaN T and for a trace made without ``record_min_distance``.
        """
        if math.isnan(T):
            raise DomainError(f"T must not be NaN, got {T}")
        series = self.min_distance_series
        if not series:
            raise DomainError("no m(T) series: trace with record_min_distance=True")
        k = bisect.bisect_right(series, T + 1e-12, key=lambda row: row[0])
        return series[k - 1][1] if k else math.inf


# -- stepping -------------------------------------------------------------------


def _ray_exit(rows, px, py, dx, dy, tau_exit, tau_hit):
    """First boundary intersection of the ray p + s d, s > tau_exit, against
    a chart's ``scalar_edges`` rows.

    Returns (edge index, s, u) or None. u is the fraction along the edge,
    tolerantly clamped near endpoints (vertex hits are resolved by the caller).
    """
    best = None
    best_s = math.inf
    for i, (vx, vy, ex, ey, inv_len) in enumerate(rows):
        denom = dx * ey - dy * ex
        relx = vx - px
        rely = vy - py
        if -1e-15 < denom < 1e-15:
            # a ray running along the edge leaves it at the far endpoint, which
            # may be a corner between collinear edges
            if abs(relx * dy - rely * dx) <= tau_hit:
                a, b = relx * dx + rely * dy, (relx + ex) * dx + (rely + ey) * dy
                s, u = (b, 1.0) if b >= a else (a, 0.0)
                if tau_exit < s < best_s:
                    best_s = s
                    best = (i, s, u)
            continue
        s = (relx * ey - rely * ex) / denom
        if s <= tau_exit or s >= best_s:
            continue
        u = (relx * dy - rely * dx) / denom
        eps_u = 2.0 * tau_hit * inv_len
        if u < -eps_u or u > 1.0 + eps_u:
            continue
        best_s = s
        best = (i, s, u)
    return best


class _CrossingIndex:
    """The crossing states of a trace, hashed by chart and cell of the point.

    Cells are squares of side h = 64 * tau (at least 1e-12), and a state at
    (x, y) is stored in cell (floor(x / h), floor(y / h)). A query at p
    probes the cells from floor((px - tau) / h) to floor((px + tau) / h),
    likewise in y: one cell with probability (1 - 2 * tau / h)**2, about
    0.94, and never more than 2 x 2, as h >= 2 * tau. No rounding margin is
    needed: a stored state that matches has |x - px| < tau as computed, so
    exactly, since rounding is monotone and tau is a float; then x lies
    between the rounded px - tau and px + tau, rounded division by h and
    floor keep that order, and x's cell is probed. A cell's rows are in
    insertion order, so its first match is its earliest; across cells the
    least arclength wins, which is the earliest match, since arclength never
    decreases along a trace and equal arclengths report the same match.
    """

    def __init__(self, tau_rec: float):
        self.tau = tau_rec
        # the floor keeps h positive when tau_rec <= 0 (which never matches)
        # and p / h finite when it is tiny
        self.h = max(1e-12, 64.0 * tau_rec)
        self.cells: dict[tuple, list] = {}

    def add(self, chart, p, d, s: float) -> None:
        key = (chart, math.floor(p[0] / self.h), math.floor(p[1] / self.h))
        self.cells.setdefault(key, []).append((p[0], p[1], d[0], d[1], s))

    def match(self, chart, p, d, s: float) -> dict | None:
        """{period, detected_at, matched_at} for the earliest stored match.

        The period is the arclength elapsed since the matched state, i.e. the
        first-return time of the recurring state.
        """
        tau, h = self.tau, self.h
        px, py, dx, dy = p[0], p[1], d[0], d[1]
        i0, i1 = math.floor((px - tau) / h), math.floor((px + tau) / h)
        j0, j1 = math.floor((py - tau) / h), math.floor((py + tau) / h)
        best = None
        for i in (i0,) if i0 == i1 else range(i0, i1 + 1):
            for j in (j0,) if j0 == j1 else range(j0, j1 + 1):
                for x, y, ex, ey, sr in self.cells.get((chart, i, j), ()):
                    if (abs(x - px) < tau and abs(y - py) < tau and abs(ex - dx) < tau
                            and abs(ey - dy) < tau and s - sr > 1e-9):
                        if best is None or sr < best:
                            best = sr
                        break
        if best is None:
            return None
        return {"period": s - best, "detected_at": s, "matched_at": best}


def _outward_edge(geo, p, d, tau_hit: float):
    """Edge within tau of p whose exterior side the direction points into.

    A point on a gluing edge is the same surface point in either chart; when
    the direction leaves the current chart expression the trace continues in
    the partner chart. Returns the most decisively outward edge, or None.
    """
    best, arg = 1e-12, None
    for e in range(geo.n):
        v0, v1 = geo.vertices[e], geo.vertices[(e + 1) % geo.n]
        if point_segment_distance(p, v0, v1) > tau_hit:
            continue
        ex, ey = v1[0] - v0[0], v1[1] - v0[1]
        out = (ey * d[0] - ex * d[1]) / math.hypot(ex, ey)
        if out > best:
            best, arg = out, e
    return arg


def _segment_distance(cands: np.ndarray, p0, p1, length: float, reach: float) -> float:
    """Distance from the candidate singular images to a piece of a segment.

    The piece is [0, reach] along the segment p0 -> p1 of arclength ``length``.
    In closed form, with u = (p1 - p0) / length, a candidate at along-track
    offset t and squared perpendicular distance h2 lies at
    sqrt(h2 + (t - clip(t, 0, reach))^2). A segment of length 0 is its start
    point. Returns inf when there are no candidates. The reference kernel of
    the CLI self-test and the tests' oracles; the library calls
    ``_segment_distances``.

    h2 = |w - p0|^2 - t^2 cancels for a candidate near the line, so a result
    m carries an absolute error of order eps * |w - p0|^2 / m; the exported
    m(T) digits depend on it, including on the exact ``length`` passed.
    """
    if len(cands) == 0:
        return math.inf
    p0a = np.asarray(p0, dtype=float)
    if length <= 0.0:
        return float(np.sqrt(((cands - p0a) ** 2).sum(axis=1)).min())
    u = (np.asarray(p1, dtype=float) - p0a) / length
    rel = cands - p0a
    t_w = rel @ u
    perp2 = np.maximum((rel * rel).sum(axis=1) - t_w * t_w, 0.0)
    gap = t_w - np.clip(t_w, 0.0, reach)
    return float(np.sqrt(perp2 + gap ** 2).min())


# Segment-candidate pairs per chunk of ``_segment_distances``: its float
# temporaries then take about 0.5 MB on any trace length; 2048 and 16384
# measured slower.
_CHUNK_PAIRS = 8192


def _segment_distances(surface: ConeSurface, segments, lengths, reaches) -> np.ndarray:
    """``_segment_distance`` of many segments at once, bit for bit.

    Segment k starts with (chart, p0, p1) and is measured against its chart's
    singular images with ``length`` = lengths[k] and ``reach`` = reaches[k].
    Segments are grouped by chart and evaluated in chunks, by the kernel's
    operations on the same inputs.
    """
    charts = np.asarray([seg[0] for seg in segments])
    p0 = np.array([seg[1] for seg in segments], dtype=float).reshape(-1, 2)
    p1 = np.array([seg[2] for seg in segments], dtype=float).reshape(-1, 2)
    lengths = np.asarray(lengths, dtype=float)
    reaches = np.asarray(reaches, dtype=float)
    out = np.full(len(lengths), np.inf)
    for chart in set(charts.tolist()):
        cands = surface.singular_images(chart)
        if len(cands) == 0:
            continue
        idx = np.flatnonzero(charts == chart)
        step = max(1, _CHUNK_PAIRS // len(cands))
        for lo in range(0, len(idx), step):
            sel = idx[lo:lo + step]
            # rel = cands - p0 per segment, written one coordinate plane at a
            # time: a broadcast over the length-2 last axis is several times slower
            rel = np.empty((len(sel), len(cands), 2))
            rx, ry = rel[:, :, 0], rel[:, :, 1]
            np.subtract(cands[:, 0], p0[sel, 0:1], out=rx)
            np.subtract(cands[:, 1], p0[sel, 1:2], out=ry)
            rr = rx * rx + ry * ry
            with np.errstate(divide="ignore", invalid="ignore"):
                u = (p1[sel] - p0[sel]) / lengths[sel, None]
                # np.matmul makes the kernel's own call, rel @ u, per segment;
                # the elementwise rx * ux + ry * uy rounds about 30 % of the dot
                # products differently (octagon, L = 500) and moves the
                # exported m(T) digits
                t = np.matmul(rel, u[:, :, None])[:, :, 0]
                perp2 = np.maximum(rr - t * t, 0.0)
                gap = t - np.clip(t, 0.0, reaches[sel, None])
                d = np.sqrt(perp2 + gap ** 2)
            flat = lengths[sel] <= 0.0      # a segment of length 0 is its start point
            d[flat] = np.sqrt(rr[flat])
            out[sel] = d.min(axis=1)
    return out


def _min_distance_series(surface: ConeSurface, records: list) -> list:
    """The m(T) series of a trace: (arclength, running minimum) rows.

    ``records`` holds (chart, p0, p1, s0, s1) per traced segment, in order;
    the kernel sees the segment with length s1 - s0. The series has a row at
    each s1 and, for a segment of positive length starting at arclength 0,
    one at 0 first, with reach 0. Each row is the ``_running_minima`` value
    of its piece.
    """
    pieces = []
    for rec in records:
        s0, s1 = rec[3], rec[4]
        length = s1 - s0
        ends = ((0.0, 0.0), (s1, length)) if s0 == 0.0 and length > 0.0 else ((s1, length),)
        pieces += [(rec, length, reach, s) for s, reach in ends]
    segs, lengths, reaches, at = zip(*pieces)
    return list(zip(at, _running_minima(surface, segs, lengths, reaches).tolist()))


def _running_minima(surface: ConeSurface, segments, lengths, reaches) -> np.ndarray:
    """Every m(T) the library reports: the running minimum of the pieces'
    ``_segment_distances``, capped at the max chart diameter, the radius of
    the one-ring candidates (own chart corners plus one unfolded ring)."""
    # a NaN kernel value never lowers the minimum: fmin skips it
    best = np.fmin.accumulate(_segment_distances(surface, segments, lengths, reaches))
    return np.where(best < np.inf, np.minimum(best, surface.max_diameter), np.inf)


def _arrives_at_corner(surface: ConeSurface, chart: str, vertex: int, d) -> bool:
    """Whether a ray along d meets the corner from inside its wedge: the
    reversed direction lies in the wedge, up to the clamp of ``cone_coordinate``.

    A ray that cuts across a corner within tau_hit of it, entering and
    leaving through the two edges at the corner, has no incoming coordinate
    there; it crosses the edge like any other ray.
    """
    try:
        surface.corner_class[(chart, vertex)].cone_coordinate(chart, vertex, (-d[0], -d[1]))
    except ValueError:
        return False
    return True


def _edge_cross_event(s: float, chart: str, edge: int, nb) -> TraceEvent:
    return TraceEvent(EVENT_EDGE_CROSS, s, {
        "gluing": nb.gluing_index, "side": nb.side,
        "from_chart": chart, "from_edge": edge,
        "to_chart": nb.chart, "to_edge": nb.edge})


def _vertex_alignment(v_cur, v_next, d_cur, d_next) -> Isometry:
    """Isometry mapping the next chart's frame onto the current one so the
    straight passage through a flat corner develops without a kink."""
    phi = angle_of(d_cur) - angle_of(d_next)
    c, s = math.cos(phi), math.sin(phi)
    tx = v_cur[0] - (c * v_next[0] - s * v_next[1])
    ty = v_cur[1] - (s * v_next[0] + c * v_next[1])
    return Isometry(c, s, tx, ty)


def continuation_sector(surface: ConeSurface, class_id: str, incoming, *,
                        corner: tuple[str, int]) -> ContinuationSector:
    """Admissible outgoing sector after arriving at a vertex class.

    ``incoming`` is the arrival direction in chart coordinates, and ``corner``
    the (chart, vertex) whose wedge the arrival used; a direction outside
    that wedge raises ValueError.
    """
    vc = surface.vertex_class(class_id)
    t_in = vc.cone_coordinate(corner[0], corner[1], (-incoming[0], -incoming[1]))
    width = max(0.0, vc.angle - 2.0 * math.pi)
    return ContinuationSector(
        class_id=vc.id, angle=vc.angle, incoming_coordinate=t_in,
        start=(t_in + math.pi) % vc.angle, width=width)


def _unit(direction) -> tuple[float, float]:
    """``normalize``, raising ``trace``'s ZeroDirection for a zero or non-finite vector."""
    try:
        return normalize(direction)
    except ValueError:
        raise ZeroDirection(f"direction {direction} has no usable length") from None


def _launch(surface: ConeSurface, start: GeodesicState, max_length: float,
            options: TraceOptions) -> GeodesicState:
    """``trace``'s checks of its arguments, in its order, and the state it
    steps from: the point as floats, the direction divided by its norm."""
    tol = surface.tolerances
    if max_length <= 0.0 or not math.isfinite(max_length):
        raise DomainError(f"max_length must be positive and finite, got {max_length}")
    if options.stop_on_recurrence and not options.detect_recurrence:
        raise DomainError("stop_on_recurrence requires detect_recurrence")
    cid = start.chart
    if cid not in surface.charts:
        raise StartOutsideSurface(f"unknown chart {cid!r}")
    dn = norm(start.direction)
    if dn < tol.tau_len or not math.isfinite(dn):
        raise ZeroDirection(f"direction {start.direction} has no usable length")
    d = (float(start.direction[0]) / dn, float(start.direction[1]) / dn)
    p = (float(start.point[0]), float(start.point[1]))
    if not point_in_polygon(surface.charts[cid], p, tol=tol.tau_hit):
        raise StartOutsideSurface(f"point {p} is outside chart {cid!r}")
    return GeodesicState(cid, p, d, 0.0)


def _corner_at(surface: ConeSurface, cid: str, rows, edge: int, x, d, tau_hit: float):
    """The corner of the exit edge ``edge`` that a ray along d meets at its
    exit point x: within tau_hit of x and arrived at from inside its wedge,
    the edge's start corner first; None when there is none."""
    for cand in (edge, (edge + 1) % len(rows)):
        vx, vy = rows[cand][0], rows[cand][1]
        if math.hypot(x[0] - vx, x[1] - vy) <= tau_hit and _arrives_at_corner(surface, cid,
                                                                             cand, d):
            return cand
    return None


def _corner_event(surface: ConeSurface, cid: str, vtx: int, d, s: float,
                  options: TraceOptions) -> TraceEvent:
    """The ConeHit or VertexPass event of a ray along d that meets corner
    ``vtx`` of chart ``cid`` at arclength s; ``detail["terminal"]`` says
    whether the trace ends there."""
    vc = surface.corner_class[(cid, vtx)]
    sector = continuation_sector(surface, vc.id, d, corner=(cid, vtx))
    terminal = vc.singular and (options.stop_on_cone or vc.kind != KIND_MARKED)
    return TraceEvent(EVENT_CONE_HIT if vc.singular else EVENT_VERTEX_PASS, s, {
        "vertex_class": vc.id, "chart": cid, "vertex": vtx,
        "incoming": d, "terminal": terminal, "sector": sector})


# A guard, not a knob: each pass ends at a chart boundary, so a trace of
# length L makes about L / (chart width) passes (0.7 per unit length on the
# octagon); only a stalled state gets near 10**7.
_MAX_STEPS = 10_000_000


def trace(surface: ConeSurface, start: GeodesicState, max_length: float, *,
          options: TraceOptions = DEFAULT_TRACE_OPTIONS) -> TraceResult:
    """Trace the geodesic from ``start`` for at most ``max_length``.

    Stops at singular cone hits (unless the class is marked and
    ``options.stop_on_cone`` is false), at ``max_length``, or -- when
    ``options.stop_on_recurrence`` -- at the first state recurrence
    (``TraceOptions``; ``recurrence`` holds {period, detected_at, matched_at}).
    Events are in order of arclength, the recurrence's at ``detected_at``; an
    edge crossing is kept as a record until ``events`` is read.
    """
    norm_start = _launch(surface, start, max_length, options)
    cid, p, d = norm_start.chart, norm_start.point, norm_start.direction
    tol = surface.tolerances
    tau_hit, tau_exit = tol.tau_hit, tol.tau_exit
    geometry, edge_lookup = surface.geometry, surface.edge_lookup
    segments: list = []
    transitions: list = []
    events: list = []               # TraceEvents and crossing records
    records = [] if options.record_min_distance else None  # m(T) input, per segment
    crossings = _CrossingIndex(tol.tau_rec)
    recurrence = None
    s = 0.0
    termination = None
    end_state = None

    hops = 0
    for _ in range(_MAX_STEPS):
        geo = geometry[cid]
        rows = geo.scalar_edges
        px, py = p
        dx, dy = d
        hit = _ray_exit(rows, px, py, dx, dy, tau_exit, tau_hit)
        remaining = max_length - s
        if hit is None:
            # a state on a gluing edge pointing out of this chart expression
            # continues in the partner chart (zero-length crossing). A guard,
            # not a knob: a point on an edge needs one hop and a corner a few,
            # so the cap of 8 only stops ping-pong between partner charts
            # when rounding makes the direction look outward on both sides.
            oe = _outward_edge(geo, p, d, tau_hit)
            if oe is not None and hops < 8:
                hops += 1
                nb = edge_lookup[(cid, oe)]
                segments.append((cid, p, p))
                events.append((s, cid, oe, nb))
                transitions.append(nb.inv)
                cid, p, d = nb.chart, nb.iso.apply(p), nb.iso.rotate(d)
                continue
            if remaining > geo.diameter + 1.0:
                raise TraceNumericalError(
                    f"no chart exit from {p} along {d} in chart {cid!r}")

        # the next stop: a chart corner (vtx), an edge crossing, or max_length;
        # a corner's floats are the first two of its scalar_edges row
        vtx = None
        done = hit is None or hit[1] >= remaining
        if not done:
            edge, step, _ = hit
            x = (px + step * dx, py + step * dy)
            vtx = _corner_at(surface, cid, rows, edge, x, d, tau_hit)
            if vtx is not None:
                x = rows[vtx][:2]
                step = math.hypot(x[0] - px, x[1] - py)
                done = step >= remaining
        if done:
            x = (px + remaining * dx, py + remaining * dy)
            if hit is None and not point_in_polygon(geo.vertices, x, tau_hit):
                raise TraceNumericalError(
                    f"no chart exit from {p} along {d} in chart {cid!r}, "
                    f"yet the endpoint {x} leaves the chart")
        segments.append((cid, p, x))
        if records is not None:
            records.append((cid, p, x, s, max_length if done else s + step))
        if done:
            s = max_length
            events.append(TraceEvent(EVENT_MAX_LENGTH, s, {}))
            termination = EVENT_MAX_LENGTH
            end_state = GeodesicState(cid, x, d, s)
            break
        s += math.hypot(x[0] - px, x[1] - py)
        hops = 0

        if vtx is not None:
            events.append(_corner_event(surface, cid, vtx, d, s, options))
            if events[-1].detail["terminal"]:
                termination = EVENT_CONE_HIT
                end_state = GeodesicState(cid, x, d, s)
                break
            # flat passage through a 2*pi corner: straight on, at the sector's start
            sector = events[-1].detail["sector"]
            ncid, nvtx, nd = surface.corner_class[(cid, vtx)].direction_at(sector.start)
            nv = geometry[ncid].scalar_edges[nvtx][:2]
            transitions.append(_vertex_alignment(x, nv, d, nd))
            cid, p, d = ncid, nv, nd
        else:
            # the neighbour's iso applied to x and rotating d, written out
            # with the operations of Isometry.apply and Isometry.rotate
            nb = edge_lookup[(cid, edge)]
            events.append((s, cid, edge, nb))
            transitions.append(nb.inv)
            iso = nb.iso
            c, sn = iso.c, iso.s
            cid = nb.chart
            p = (c * x[0] - sn * x[1] + iso.tx, sn * x[0] + c * x[1] + iso.ty)
            d = (c * dx - sn * dy, sn * dx + c * dy)

        if options.detect_recurrence and recurrence is None:
            hit_rec = crossings.match(cid, p, d, s)
            if hit_rec is not None:
                recurrence = hit_rec
                events.append(TraceEvent(EVENT_SELF_RECURRENCE, s, dict(recurrence)))
                if options.stop_on_recurrence:
                    termination = EVENT_SELF_RECURRENCE
                    end_state = GeodesicState(cid, p, d, s)
                    break
            else:
                crossings.add(cid, p, d, s)
    else:
        raise TraceNumericalError("step budget exceeded; degenerate trajectory")

    return TraceResult(
        start=norm_start, segments=segments, transitions=transitions,
        event_records=events, total_length=s, end_state=end_state,
        termination=termination, recurrence=recurrence, chart_index=surface.chart_index,
        distance_records=records, surface=surface)


# -- fleets ---------------------------------------------------------------------------


# Fewer rays than this are traced one by one: the lockstep's per-step numpy
# calls outweigh what they save. Certifying the marked torus's connections
# from v0 took 10.9 ms in lockstep and 8.7 ms one by one at 48 rays, the same
# at 72 and 120, and 65.9 against 77.1 ms at 312.
_FLEET_MIN_RAYS = 64


class _EdgeTable:
    """Every chart's ``scalar_edges`` columns and gluings as (charts, width)
    arrays indexed by chart code and edge, for ``_trace_fleet``; built on a
    surface's first fleet.

    A chart with fewer edges than the widest is padded with copies of its
    edge 0, which give edge 0's exit and so lose the tie to it by index.
    ``nbs[code * width + edge]`` is the edge's ``EdgeNeighbor`` (None at a
    pad); ``to``, ``c``, ``s``, ``tx`` and ``ty`` hold its chart code and
    its isometry's floats.
    """

    def __init__(self, surface: ConeSurface):
        names = surface.chart_names.tolist()
        self.width = max(surface.geometry[c].n for c in names)
        rows, self.nbs = [], []
        for c in names:
            geo = surface.geometry[c]
            pad = self.width - geo.n
            rows += list(geo.scalar_edges) + [geo.scalar_edges[0]] * pad
            self.nbs += [surface.edge_lookup[(c, e)] for e in range(geo.n)] + [None] * pad
        shape = (len(names), self.width)
        self.vx, self.vy, self.ex, self.ey, self.inv = (
            np.array(col, dtype=float).reshape(shape) for col in zip(*rows))
        self.n = np.array([surface.geometry[c].n for c in names])
        glue = [nb or self.nbs[0] for nb in self.nbs]
        self.to = np.array([surface.chart_index[nb.chart] for nb in glue]).reshape(shape)
        self.c, self.s, self.tx, self.ty = (
            np.array([getattr(nb.iso, a) for nb in glue]).reshape(shape)
            for a in ("c", "s", "tx", "ty"))


def _fleet_exits(table: _EdgeTable, code, px, py, dx, dy, tau_exit: float, tau_hit: float):
    """``_ray_exit`` of every ray at once, by its operations on the same
    floats: per ray the exit edge, the first of least ray parameter on a
    tie, that parameter, and whether the ray leaves the lockstep. It leaves
    when it has no exit, when an edge lies within 1e-15 of parallel to it
    (``_ray_exit``'s own branch) and when a value is not finite."""
    vx, vy, ex, ey, inv = (a[code] for a in (table.vx, table.vy, table.ex, table.ey,
                                             table.inv))
    dxc, dyc = dx[:, None], dy[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = dxc * ey - dyc * ex
        relx = vx - px[:, None]
        rely = vy - py[:, None]
        s = (relx * ey - rely * ex) / denom
        u = (relx * dyc - rely * dxc) / denom
        eps = (2.0 * tau_hit) * inv
        cand = np.where((s > tau_exit) & ~(u < -eps) & ~(u > 1.0 + eps), s, np.inf)
        edge = cand.argmin(axis=1)
        step = cand[np.arange(len(edge)), edge]
        off = (~(step < np.inf) | (np.abs(denom) < 1e-15).any(axis=1)
               | ~np.isfinite(s + u).all(axis=1))
    return edge, step, off


def _trace_fleet(surface: ConeSurface, starts: list, max_lengths: list,
                 options: TraceOptions = PLAIN_TRACE_OPTIONS) -> list:
    """``trace(surface, start, max_length, options=options)`` of each pair of
    ``starts`` and ``max_lengths``, the rays stepped in lockstep (module
    docstring, Fleets): per pair, in order, its ``TraceResult`` or the
    exception that its trace raises, for the caller to raise where its own
    loop would meet it. A fleet of fewer than ``_FLEET_MIN_RAYS`` rays, one
    whose options record the m(T) input, and one that detects recurrences
    without stopping at them are traced ray by ray."""
    out: list = [None] * len(starts)
    rays = []       # (index, launch state, max_length) per ray that launches
    for i, (start, max_length) in enumerate(zip(starts, max_lengths)):
        try:
            rays.append((i, _launch(surface, start, max_length, options), max_length))
        except Exception as err:
            out[i] = err
    lockstep = (len(rays) >= _FLEET_MIN_RAYS and not options.record_min_distance
                and options.detect_recurrence == options.stop_on_recurrence)
    retrace = _Lockstep(surface, rays, options).run(out) if lockstep else range(len(rays))
    for k in retrace:
        i = rays[k][0]
        try:
            out[i] = trace(surface, starts[i], max_lengths[i], options=options)
        except Exception as err:
            out[i] = err
    return out


class _Lockstep:
    """The launched rays of one ``_trace_fleet``, stepped together. Each
    step takes every active ray across one edge; the arrays hold the active
    rays' positions in ``rays`` and their states, in ``trace``'s floats."""

    def __init__(self, surface: ConeSurface, rays: list, options: TraceOptions):
        if surface._edge_table is None:
            surface._edge_table = _EdgeTable(surface)
        self.surface, self.rays, self.options = surface, rays, options
        self.table = surface._edge_table
        n = len(rays)
        self.ray = np.arange(n)
        self.code = np.array([surface.chart_index[st.chart] for _, st, _ in rays],
                             dtype=np.int64)
        self.px, self.py, self.dx, self.dy = np.array(
            [st.point + st.direction for _, st, _ in rays], dtype=float).reshape(n, 4).T.copy()
        self.s = np.zeros(n)
        self.limit = np.array([float(max_length) for _, _, max_length in rays])
        self.crossings = []  # per step: rays, codes, start and exit points, edges, arclengths
        self.tails = []      # per last segment: position, code, start and end point
        self.ends = {}       # position -> (terminal event, end state)
        self.recurrences = {}  # position -> recurrence
        # per position, the states after its crossings: code, x, y, dx, dy, s
        self.history = np.empty((6, n, 16)) if options.detect_recurrence else None

    def run(self, out: list) -> list:
        """Steps every ray to its end, puts the results into ``out`` and
        returns the positions of the rays that left the lockstep."""
        retrace = []
        for k in range(_MAX_STEPS):
            if not len(self.ray):
                break
            retrace += self._step(k)
        else:
            retrace += self.ray.tolist()
        self._results(out)
        return retrace

    def _keep(self, sel) -> None:
        for name in ("ray", "code", "px", "py", "dx", "dy", "s", "limit"):
            setattr(self, name, getattr(self, name)[sel])

    def _step(self, k: int) -> list:
        surface, table, tau_hit = self.surface, self.table, self.surface.tolerances.tau_hit
        names = surface.chart_names
        ray, code, px, py, dx, dy = self.ray, self.code, self.px, self.py, self.dx, self.dy
        edge, step, off = _fleet_exits(table, code, px, py, dx, dy,
                                       surface.tolerances.tau_exit, tau_hit)
        remaining = self.limit - self.s
        with np.errstate(invalid="ignore", over="ignore"):
            done = step >= remaining
            x0, x1 = px + step * dx, py + step * dy
            # a corner within tau_hit of the exit point is within it in each
            # coordinate: trace's own check then runs for these rays alone
            near = np.zeros(len(ray), dtype=bool)
            following = edge + 1
            following[following == table.n[code]] = 0
            for corner in (edge, following):
                near |= ((np.abs(x0 - table.vx[code, corner]) <= tau_hit)
                         & (np.abs(x1 - table.vy[code, corner]) <= tau_hit))
        hit = np.zeros(len(ray), dtype=bool)
        for j in np.flatnonzero(near & ~done & ~off).tolist():
            cid = names[code[j]]
            rows = surface.geometry[cid].scalar_edges
            p, d = (float(px[j]), float(py[j])), (float(dx[j]), float(dy[j]))
            vtx = _corner_at(surface, cid, rows, int(edge[j]), (float(x0[j]), float(x1[j])),
                             d, tau_hit)
            if vtx is None:
                continue
            x = rows[vtx][:2]
            length = math.hypot(x[0] - p[0], x[1] - p[1])
            if length >= remaining[j]:
                done[j] = True
                continue
            event = _corner_event(surface, cid, vtx, d, float(self.s[j]) + length, self.options)
            if event.detail["terminal"]:
                hit[j] = True
                self.ends[int(ray[j])] = (event, GeodesicState(cid, x, d, event.arclength))
                self.tails.append((int(ray[j]), int(code[j]), p, x))
            else:
                off[j] = True       # a flat passage
        last = np.flatnonzero(done & ~off)
        if len(last):
            self._max_length_ends(last, remaining[last])
        go = np.flatnonzero(~(off | done | hit))
        retrace = ray[off].tolist()
        self._keep(go)
        if len(go):
            self._cross(k, edge[go], x0[go], x1[go])
        return retrace

    def _max_length_ends(self, sel, remaining) -> None:
        names = self.surface.chart_names
        ray, code = self.ray[sel].tolist(), self.code[sel]
        px, py, dx, dy = self.px[sel], self.py[sel], self.dx[sel], self.dy[sel]
        ends = zip(ray, code.tolist(), names[code].tolist(), zip(px.tolist(), py.tolist()),
                   zip((px + remaining * dx).tolist(), (py + remaining * dy).tolist()),
                   zip(dx.tolist(), dy.tolist()))
        for r, k, cid, p, x, d in ends:
            length = self.rays[r][2]
            self.ends[r] = (TraceEvent(EVENT_MAX_LENGTH, length, {}),
                            GeodesicState(cid, x, d, length))
            self.tails.append((r, k, p, x))

    def _cross(self, k: int, edge, x0, x1) -> None:
        """Takes the remaining rays across their exit edges, as ``trace``
        does, and checks each new state for a recurrence."""
        table, code, px, py, dx, dy = self.table, self.code, self.px, self.py, self.dx, self.dy
        self.s = self.s + np.array(list(map(math.hypot, (x0 - px).tolist(),
                                            (x1 - py).tolist())))
        self.crossings.append((self.ray, code, px, py, x0, x1, edge, self.s))
        # the neighbour's iso applied to the exit point and rotating d, with
        # trace's operations
        c, sn = table.c[code, edge], table.s[code, edge]
        self.code = table.to[code, edge]
        self.px = c * x0 - sn * x1 + table.tx[code, edge]
        self.py = sn * x0 + c * x1 + table.ty[code, edge]
        self.dx, self.dy = c * dx - sn * dy, sn * dx + c * dy
        if self.history is not None:
            self._recur(k)

    def _recur(self, k: int) -> None:
        """Ends each ray whose new state recurs, at its earliest earlier
        crossing state that matches, as ``_CrossingIndex.match`` finds it:
        the index has no false negatives, so its match is the least
        arclength among the stored states that pass the test, the first in
        crossing order. A ray's states are stored until it recurs."""
        tau, names = self.surface.tolerances.tau_rec, self.surface.chart_names
        ray, code, px, py, dx, dy, s = (self.ray, self.code, self.px, self.py, self.dx,
                                        self.dy, self.s)
        hist = self.history
        stop = np.zeros(len(ray), dtype=bool)
        if k:
            i, col = np.nonzero(np.abs(hist[1][ray, :k] - px[:, None]) < tau)
            r = ray[i]
            ok = ((hist[0][r, col] == code[i]) & (np.abs(hist[2][r, col] - py[i]) < tau)
                  & (np.abs(hist[3][r, col] - dx[i]) < tau)
                  & (np.abs(hist[4][r, col] - dy[i]) < tau) & (s[i] - hist[5][r, col] > 1e-9))
            first, at = np.unique(i[ok], return_index=True)
            for j, c in zip(first.tolist(), col[ok][at].tolist()):
                best, now = float(hist[5][ray[j], c]), float(s[j])
                rec = {"period": now - best, "detected_at": now, "matched_at": best}
                self.recurrences[int(ray[j])] = rec
                self.ends[int(ray[j])] = (
                    TraceEvent(EVENT_SELF_RECURRENCE, now, dict(rec)),
                    GeodesicState(names[code[j]], (float(px[j]), float(py[j])),
                                  (float(dx[j]), float(dy[j])), now))
            stop[first] = True
        if k == hist.shape[2]:
            self.history = hist = np.concatenate((hist, np.empty_like(hist)), axis=2)
        for column, values in zip(hist, (code, px, py, dx, dy, s)):
            column[ray, k] = values
        if stop.any():
            self._keep(np.flatnonzero(~stop))

    def _results(self, out: list) -> None:
        """A ``TraceResult`` per ray that ended in the lockstep, into ``out``,
        over the fleet's rows (``_FleetRows``): each ray's crossings, then
        its last segment, which crosses no edge (-1)."""
        if self.tails:
            ray, code, p, x = zip(*self.tails)
            (px, py), (x0, x1) = np.array(p).T, np.array(x).T
            self.crossings.append((np.array(ray), np.array(code, dtype=np.int64), px, py, x0, x1,
                                   np.full(len(ray), -1), np.full(len(ray), np.nan)))
        if not self.crossings:
            return      # no ray ended in the lockstep: each that did has a row
        ray, code, px, py, x0, x1, edge, s = (np.concatenate(c) for c in zip(*self.crossings))
        order = np.argsort(ray, kind="stable")
        first = [0] + np.cumsum(np.bincount(ray, minlength=len(self.rays))).tolist()
        rows = _FleetRows(self.surface, self.table, code[order], np.stack((px, py), 1)[order],
                          np.stack((x0, x1), 1)[order], edge[order], s[order])
        for pos, (i, start, _) in enumerate(self.rays):
            if pos in self.ends:
                event, end_state = self.ends[pos]
                out[i] = TraceResult(
                    start=start, segments=None, transitions=None, event_records=None,
                    total_length=end_state.arclength, end_state=end_state,
                    termination=event.kind, recurrence=self.recurrences.get(pos),
                    chart_index=self.surface.chart_index, distance_records=None,
                    surface=self.surface, fleet=(rows, first[pos], first[pos + 1], event))


class _FleetRows:
    """A fleet's segments sorted by ray, as read-only arrays: chart codes,
    start and end points, and the edge crossed and the arclength after it
    (-1 and NaN at a ray's last segment, which crosses no edge). A ray's
    ``TraceResult`` builds its lists from its rows a:b and its terminal
    event on first read, the lists that ``trace`` returns, bit for bit."""

    def __init__(self, surface: ConeSurface, table: _EdgeTable, codes, p0, p1, edges, s):
        self.names, self.table = surface.chart_names, table
        self.codes, self.p0, self.p1, self.edges, self.s = codes, p0, p1, edges, s
        for a in (codes, p0, p1, edges, s):
            a.flags.writeable = False

    def _crossed(self, b: int) -> int:
        """The end of the crossings of the ray whose rows end at b."""
        return b - 1 if self.edges[b - 1] < 0 else b

    def _neighbors(self, a: int, c: int) -> list:
        table = self.table
        return [table.nbs[g] for g in (self.codes[a:c] * table.width + self.edges[a:c]).tolist()]

    def segments(self, a: int, b: int, event) -> list:
        return list(zip(self.names[self.codes[a:b]].tolist(), map(tuple, self.p0[a:b].tolist()),
                        map(tuple, self.p1[a:b].tolist())))

    def transitions(self, a: int, b: int, event) -> list:
        return [nb.inv for nb in self._neighbors(a, self._crossed(b))]

    def event_records(self, a: int, b: int, event) -> list:
        c = self._crossed(b)
        return list(zip(self.s[a:c].tolist(), self.names[self.codes[a:c]].tolist(),
                        self.edges[a:c].tolist(), self._neighbors(a, c))) + [event]


# -- developing map ---------------------------------------------------------------


@dataclass
class DevelopedPath:
    points: list                  # developed segment endpoints, start chart frame
    frames: list                  # per segment: (c, s, tx, ty), chart frame -> developed frame
    total_length: float
    collinearity_residual: float  # max perpendicular deviation per unit length
    length_residual: float        # | |endpoint - start| - total_length |

    @cached_property
    def isometries(self) -> list:
        """Per segment: the ``Isometry`` of its frame, built on first read."""
        return [Isometry(*f) for f in self.frames]


def develop(trace_result: TraceResult) -> DevelopedPath:
    """Unfold a traced path into the plane of its starting chart.

    For a geodesic the developed polyline is a single straight segment; the
    reported residuals measure how far numerical transport strayed from that.
    The transitions are composed on floats with the operations of
    ``Isometry.compose`` and ``Isometry.apply``; ``isometries`` is built from
    the frames on its first read.
    """
    frames = [(1.0, 0.0, 0.0, 0.0)]
    for t in trace_result.transitions:
        c, s, tx, ty = frames[-1]
        frames.append((c * t.c - s * t.s, s * t.c + c * t.s,
                       c * t.tx - s * t.ty + tx, s * t.tx + c * t.ty + ty))
    pts = [trace_result.segments[0][1]]
    pts += [(c * b[0] - s * b[1] + tx, s * b[0] + c * b[1] + ty)
            for (c, s, tx, ty), (_, _, b) in zip(frames, trace_result.segments)]
    p0, p1 = pts[0], pts[-1]
    total = trace_result.total_length
    chord = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
    if chord > 0.0 and total > 0.0:
        ux, uy = (p1[0] - p0[0]) / chord, (p1[1] - p0[1]) / chord
        dev = max(abs((q[0] - p0[0]) * uy - (q[1] - p0[1]) * ux) for q in pts)
        resid = dev / total
    else:
        resid = 0.0
    return DevelopedPath(points=pts, frames=frames, total_length=total,
                         collinearity_residual=resid,
                         length_residual=abs(chord - total))


# -- closed forms ------------------------------------------------------------------


def predict_self_intersection(closest_approach: float, angle: float) -> dict:
    """Self-intersection of a geodesic passing a cone point of angle < pi.

    A trajectory whose closest approach to the apex is ``closest_approach``
    crosses itself at parameter offsets +-closest_approach*tan(angle/2) around
    the foot, at distance closest_approach/cos(angle/2) from the apex.
    """
    if not 0.0 < angle < math.pi:
        raise AngleOutOfRange(
            f"self-intersection formulas hold for cone angles in (0, pi); got {angle}")
    if closest_approach <= 0.0 or not math.isfinite(closest_approach):
        raise DomainError(f"closest approach must be positive, got {closest_approach}")
    half = 0.5 * angle
    return {
        "parameter_offset": closest_approach * math.tan(half),
        "intersection_distance": closest_approach / math.cos(half),
    }


# -- distances ----------------------------------------------------------------------


def surface_point_distance(surface: ConeSurface, a, b) -> float:
    """Approximate surface distance between (chart, point) pairs via unfolding.

    Minimum straight-line distance over all developed copies of b's chart
    within two gluing crossings of a's chart; inf when no copy exists.
    """
    (ca, pa), (cb, pb) = a, b
    best = math.inf
    for iso in surface.alignment_isos(ca, cb):
        q = iso.apply(pb)
        dist = math.hypot(pa[0] - q[0], pa[1] - q[1])
        if dist < best:
            best = dist
    return best


@dataclass
class TwoSidedPath(_TracedPath):
    """A trajectory extended both ways from an anchor state (parameter 0):
    t >= 0 on the forward trace, t < 0 at arclength -t on the backward one."""

    forward: TraceResult
    backward: TraceResult

    def param_range(self) -> tuple[float, float]:
        return (-self.backward.total_length, self.forward.total_length)

    @property
    def traces(self) -> tuple:
        return (self.forward, self.backward)

    def arclengths(self, ts):
        ts = np.asarray(ts, dtype=float)
        back = ~(ts >= 0.0)
        return np.where(back, -ts, ts), back.astype(np.int64)


def two_sided_trace(surface: ConeSurface, state: GeodesicState,
                    half_length: float) -> TwoSidedPath:
    """Both traces of ``half_length`` from ``state``, with ``PLAIN_TRACE_OPTIONS``."""
    fwd = trace(surface, state, half_length, options=PLAIN_TRACE_OPTIONS)
    back_state = GeodesicState(state.chart, state.point,
                               (-state.direction[0], -state.direction[1]))
    bwd = trace(surface, back_state, half_length, options=PLAIN_TRACE_OPTIONS)
    return TwoSidedPath(fwd, bwd)


def _sample_distances(surface: ConeSurface, k1: np.ndarray, xy1: np.ndarray,
                      k2: np.ndarray, xy2: np.ndarray, cap: float) -> np.ndarray:
    """Per sample, the min over the aligned copies of the second chart of
    |xy1 - iso(xy2)|, capped; the cap (inf for no cap) where the two charts
    have no alignment. Samples are grouped by chart pair, and each sample's
    value depends on that sample alone. A pair's copies are grouped by the
    bits of their rotation (c, s), and each class rotates the samples once.
    Exact: rx = c*x2 - s*y2, then ``rx + tx``, are ``iso.apply``'s own
    operations in their order, and ``np.minimum`` returns one of its
    operands, so the order of copies does not matter. Torus gluings are
    translations, one class; the octagon's 41 copies are 41 classes.

    Copies go least bound first: the distance from 0 to the box of
    x1 - (rx + tx), y1 - (ry + ty) that the kernel's operations give on the
    samples' min and max (xy2's box rotated as a box). Rounding is monotone, so only the hypots
    round apart, far below ``_COPY_MARGIN``: a copy whose bound exceeds the
    largest value so far by that relative margin lowers none, even at a tie
    or under the cap, and is skipped with the rest of its class (a class all
    skipped is not rotated). Non-finite samples skip nothing."""
    names, n = surface.chart_names, len(surface.chart_names)
    keys, group = ([0], None) if n == 1 else np.unique(k1 * n + k2, return_inverse=True)
    dists = np.empty(len(k1))
    for j, key in enumerate(keys if len(k1) else ()):
        sel = slice(None) if len(keys) == 1 else group == j
        isos = surface.alignment_isos(names[key // n], names[key % n])
        # contiguous columns: reductions and ufuncs on strided views are slower
        x1, y1, x2, y2 = (np.ascontiguousarray(xy[sel, i]) for xy in (xy1, xy2) for i in (0, 1))
        best = np.full(len(x1), np.inf if isos else cap)
        qx, qy = np.empty(len(x1)), np.empty(len(x1))
        ends = [float(f()) for a in (x1, y1, x2, y2) for f in (a.min, a.max)]
        x1lo, x1hi, y1lo, y1hi, x2lo, x2hi, y2lo, y2hi = ends
        over = 1.0 + _COPY_MARGIN if math.isfinite(sum(ends)) else math.nan
        classes = {}
        for iso in isos:
            classes.setdefault(_rotation_bits(iso.c, iso.s), []).append(iso)
        order = []
        for copies in classes.values():
            c, s = copies[0].c, copies[0].s
            cx, sy = sorted((x2lo * c, x2hi * c)), sorted((y2lo * s, y2hi * s))
            sx, cy = sorted((x2lo * s, x2hi * s)), sorted((y2lo * c, y2hi * c))
            rlo, rhi = (cx[0] - sy[1], sx[0] + cy[0]), (cx[1] - sy[0], sx[1] + cy[1])
            order.append((sorted((math.hypot(
                max(x1lo - (rhi[0] + iso.tx), (rlo[0] + iso.tx) - x1hi, 0.0),
                max(y1lo - (rhi[1] + iso.ty), (rlo[1] + iso.ty) - y1hi, 0.0)), k)
                for k, iso in enumerate(copies)), c, s, copies))
        top = math.inf      # the largest value so far
        for bounds, c, s, copies in sorted(order, key=lambda o: o[0][0]):
            if bounds[0][0] > top * over:
                break
            rx = np.multiply(x2, c)
            rx -= np.multiply(y2, s, out=qx)
            ry = np.multiply(x2, s)
            ry += np.multiply(y2, c, out=qx)
            for bound, k in bounds:
                if bound > top * over:
                    break
                np.subtract(x1, np.add(rx, copies[k].tx, out=qx), out=qx)
                np.subtract(y1, np.add(ry, copies[k].ty, out=qy), out=qy)
                np.minimum(best, np.hypot(qx, qy, out=qx), out=best)
                top = best.max()
        dists[sel] = np.minimum(best, cap, out=best)
    return dists


@dataclass
class DistanceResult:
    value: float
    truncation_bound: float
    window: tuple[float, float]
    step: float
    diameter_bound: float


# the relative margin by which a copy's bound rules it out (``_sample_distances``)
_COPY_MARGIN = 1e-12
# the first ring's half-width; each further ring doubles it (``_DistanceGrid``)
_FIRST_RING = 0.1
# covers the rounding of a ring sum against the whole grid's (about 1e-15)
_PRUNE_MARGIN = 1e-12
# pairs whose early rings share one positions pass and kernel call per ring
# (``_DistanceGrid.least``)
_RING_BLOCK = 32
# the rings that a block computes ahead for every pair that may need them;
# more is wasted on the pairs that a lower least value within the block
# rules out at these rings (batching every ring doubled the samples)
_EARLY_RINGS = 3


class _Walk:
    """One (path, anchor) pair's walk over a grid's rings: the segments that
    hold its traces, its first trace there, its chart code at t = 0, the
    weighted terms of the rings walked so far and their sums."""

    def __init__(self, path, anchor: float, segments: _Segments, base: int = 0):
        self.path, self.anchor, self.segments, self.base = path, anchor, segments, base
        self.k0, self.terms, self.sums = None, None, []


class _DistanceGrid:
    """The quadrature of ``geodesic_distance`` for one first path.

    Holds the trapezoid nodes over the window, their weights exp(-|t|) and
    the first path's samples, so any number of second paths are compared on
    the same grid without rebuilding it. The constructor checks the window
    and the first path's coverage; ``least`` checks each second path's
    coverage and its chart alignment at t = 0.

    ``rings`` are the node slices |t| <= h, with the node nearest t = 0,
    for h = 0.1, 0.2, 0.4, ..., the last one the whole grid. Every weighted
    term is non-negative and depends on its node alone, so the trapezoid
    over a ring is a lower bound on the distance up to the rounding of the
    order of summation (relative 1e-15 for 10^4 terms), its terms are
    bitwise those of the whole grid, whichever nodes share a kernel call,
    and the last ring's sum is the distance.
    """

    def __init__(self, surface: ConeSurface, path1, window, anchor1: float = 0.0):
        step = surface.tolerances.distance_step
        if not step > 0.0:
            raise DomainError(f"distance_step must be positive, got {step}")
        w0, w1 = ((-float(window), float(window)) if np.isscalar(window)
                  else (float(window[0]), float(window[1])))
        if not (math.isfinite(w0) and math.isfinite(w1)):
            raise DomainError(f"window ({w0}, {w1}) must be finite")
        if not w0 < w1:
            raise DomainError(f"empty window ({w0}, {w1})")
        self.surface, self.window, self.step = surface, (w0, w1), step
        self.diameter_bound = sum(g.diameter for g in surface.geometry.values())
        if err := self._uncovered(path1, anchor1, "path1"):
            raise err
        count = max(2, int(round((w1 - w0) / step)) + 1)
        self.ts = np.linspace(w0, w1, count)
        self.weights = np.exp(-np.abs(self.ts))
        self.i0 = int(np.argmin(np.abs(self.ts)))
        self.k1, self.xy1 = path1.positions(self.ts + anchor1)
        self.rings = []
        h = _FIRST_RING
        while self.rings[-1:] != [(0, count)]:
            ring = (min(int(np.searchsorted(self.ts, -h, side="left")), self.i0),
                    max(int(np.searchsorted(self.ts, h, side="right")), self.i0 + 1))
            if ring not in self.rings[-1:]:
                self.rings.append(ring)
            h *= 2.0
        # per ring, the nodes it adds to the ring before: left ones, then right
        self.new_nodes = [np.arange(*self.rings[0])]
        for (lo, hi), (new_lo, new_hi) in zip(self.rings, self.rings[1:]):
            self.new_nodes.append(np.r_[new_lo:lo, hi:new_hi])

    def _uncovered(self, path, anchor: float, name: str = "path2") -> InsufficientPath | None:
        (w0, w1), (lo, hi) = self.window, path.param_range()
        if anchor + w0 < lo - 1e-9 or anchor + w1 > hi + 1e-9:
            return InsufficientPath(
                f"{name} covers [{lo:.6g}, {hi:.6g}] but the window needs "
                f"[{anchor + w0:.6g}, {anchor + w1:.6g}]")
        return None

    def _check_aligned(self, code2) -> None:
        names = self.surface.chart_names
        c1, c2 = names[self.k1[self.i0]], names[code2]
        if not self.surface.alignment_isos(c1, c2):
            raise IncomparableTraces(
                f"no chart alignment between {c1!r} and {c2!r} at time 0")

    def _extend(self, walks: list) -> None:
        """Adds the next ring, the same for every walk, to each of ``walks``,
        which share their segments, from one positions pass, one kernel call
        and one trapezoid call."""
        r, segments = len(walks[0].sums), walks[0].segments
        nodes, (lo, hi) = self.new_nodes[r], self.rings[r]
        m, n, ts = len(walks), len(nodes), self.ts[nodes]
        located = [w.path.arclengths(ts + w.anchor) for w in walks]
        codes, xy = segments.locate(np.concatenate([s for s, _ in located]),
                                    np.concatenate([own + w.base
                                                    for w, (_, own) in zip(walks, located)]))
        dists = _sample_distances(self.surface, np.tile(self.k1[nodes], m),
                                  np.tile(self.xy1[nodes], (m, 1)), codes, xy,
                                  self.diameter_bound)
        terms = dists.reshape(m, n) * self.weights[nodes]
        if r == 0:
            for w, k0 in zip(walks, codes.reshape(m, n)[:, self.i0 - lo]):
                w.k0 = k0
        else:
            cut = self.rings[r - 1][0] - lo
            terms = np.concatenate((terms[:, :cut], [w.terms for w in walks], terms[:, cut:]),
                                   axis=1)
        # a sum along the rows is each row's own sum, bit for bit
        for w, row, total in zip(walks, terms, _trapezoid(terms, self.ts[lo:hi]).tolist()):
            w.terms = row
            w.sums.append(total)

    def early_rings(self, pairs: list, least: float) -> list:
        """Per (path, anchor) pair, its walk over the first ``_EARLY_RINGS``
        rings, or None for an uncovered pair. The pairs' traces
        share one ``_Segments``, and each ring is computed in one pass for
        the pairs whose sums so far stay within ``least`` by the margin: the
        least value at any later pair is at most ``least``, so a pair left
        out is one that its walk rules out at an earlier ring."""
        covered = [not self._uncovered(path, anchor) for path, anchor in pairs]
        paths = [path for (path, _), ok in zip(pairs, covered) if ok]
        if not paths:
            return [None] * len(pairs)
        segments = _Segments([tr for path in paths for tr in path.traces])
        bases = iter(np.cumsum([0] + [len(path.traces) for path in paths]).tolist())
        walks = [_Walk(path, anchor, segments, next(bases)) if ok else None
                 for (path, anchor), ok in zip(pairs, covered)]
        live = [w for w in walks if w]
        limit = least * (1.0 + _PRUNE_MARGIN)
        for _ in self.rings[:_EARLY_RINGS]:
            if not live:
                break
            self._extend(live)
            live = [w for w in live if w.sums[-1] <= limit]
        return walks

    def least(self, pairs: list, least: float = math.inf) -> list[float]:
        """Per (path, anchor) pair, in order, its distance, or the first ring
        sum above the least value before it (``least`` at the first pair) by
        a relative ``_PRUNE_MARGIN``, which rules the pair out. The early
        rings of ``_RING_BLOCK`` pairs at a time are computed together, the
        later ones pair by pair; each pair's checks run in pair order."""
        out = []
        for b in range(0, len(pairs), _RING_BLOCK):
            walks = self.early_rings(pairs[b:b + _RING_BLOCK], least)
            for path, anchor in pairs[b:b + _RING_BLOCK]:
                walk = walks.pop(0)     # popped: its terms are freed when its pair is done
                if err := self._uncovered(path, anchor):
                    raise err
                self._check_aligned(walk.k0)
                limit = least * (1.0 + _PRUNE_MARGIN)
                for r in range(len(self.rings)):
                    if r == len(walk.sums):
                        self._extend([walk])
                    if walk.sums[r] > limit:
                        break
                out.append(walk.sums[r])
                least = min(least, out[-1])
        return out


def geodesic_distance(surface: ConeSurface, path1, path2,
                      window=5.0, anchor1: float = 0.0,
                      anchor2: float = 0.0) -> DistanceResult:
    """Exponentially weighted compact-open distance between two paths.

    Numerically integrates dist(path1(t), path2(t)) * exp(-|t|) over the
    window, which must be finite and non-empty, with t measured from
    per-path anchors (arclengths; default the path starts), by the trapezoid
    rule with the surface's ``distance_step``, which must be positive.
    Pointwise distances minimize over the copies of the second chart within
    two gluing crossings of the first and are capped at the diameter bound
    D, the summed chart diameters, whose tail contribution 2*D*exp(-W) is
    reported. The value is the last ring sum of the walk of this one pair
    (``_DistanceGrid.least``). Both anchors must be finite, and both paths
    are ``_TracedPath``s (module docstring).
    """
    for name, anchor in (("anchor1", anchor1), ("anchor2", anchor2)):
        if not math.isfinite(anchor):
            raise DomainError(f"{name} must be finite, got {anchor}")
    grid = _DistanceGrid(surface, path1, window, anchor1)
    value = grid.least([(path2, anchor2)])[0]
    w0, w1 = grid.window
    bound = 2.0 * grid.diameter_bound * math.exp(-min(-w0, w1))
    return DistanceResult(value, bound, grid.window, grid.step, grid.diameter_bound)


def _least_distances(surface: ConeSurface, target, window, pairs: list) -> list[float]:
    """``_DistanceGrid.least`` of the pairs from ``target`` over ``window``; the
    first pair, with nothing to beat, is measured by ``geodesic_distance``."""
    out = [geodesic_distance(surface, target, path, window, anchor2=anchor).value
           for path, anchor in pairs[:1]]
    if len(pairs) > 1:
        out += _DistanceGrid(surface, target, window).least(pairs[1:], out[0])
    return out


# -- min-distance experiment ----------------------------------------------------------


def min_singular_distance_up_to(surface: ConeSurface, trace_result: TraceResult,
                                T: float) -> float:
    """Exact distance from the path restricted to [0, T] to the singular set,
    within the one-ring candidate radius; at T = 0, the start point's.
    Raises ``DomainError`` unless T >= 0."""
    if not T >= 0.0:
        raise DomainError(f"T must be non-negative, got {T}")
    return _distances_up_to(surface, trace_result, [T])[0]


def _distances_up_to(surface: ConeSurface, trace_result: TraceResult, Ts: list) -> list:
    """``min_singular_distance_up_to`` at each T of the ascending ``Ts``, in
    one ``_running_minima`` pass.

    Segment k, of length |b - a|, starts at s0 (``arclength_table``) and
    counts for T when s0 < T (every segment starting at 0 counts for T = 0),
    cut to the piece of length min(T - s0, |b - a|).
    Each T adds the pieces of its counting segments not wholly before an
    earlier T and reads the running minimum at its last piece. A piece cut
    at an earlier T is never below the segment's later piece (T - s0, the
    clip, the square and the sqrt round monotonically), so the values are
    those of a rescan from 0 for each T, bit for bit.
    """
    segments = trace_result.segments
    lengths, starts = trace_result.arclength_table
    ks, reaches, last = [], [], []
    cut, count = 0, 0   # the segments wholly before the previous T, and counting for T
    for T in Ts:
        while count < len(segments) and (starts[count] < T or starts[count] == 0.0):
            count += 1
        ks += range(cut, count)
        reaches += [min(T - starts[k], lengths[k]) for k in range(cut, count)]
        last.append(len(ks) - 1)
        while cut < count and T - starts[cut] >= lengths[cut]:
            cut += 1
    return _running_minima(surface, [segments[k] for k in ks], [lengths[k] for k in ks],
                           reaches)[last].tolist()


@dataclass
class MinDistanceReport:
    rows: list                # (length, min distance up to that length)
    threshold: float | None
    passed: bool
    trace: TraceResult


def min_distance_experiment(surface: ConeSurface, start: GeodesicState, lengths,
                            threshold: float | None = None) -> MinDistanceReport:
    """Trace once, with ``PLAIN_TRACE_OPTIONS``, and tabulate m(T) = min
    distance to the singular set up to T.

    All rows come from one pass over the segments (``_distances_up_to``),
    equal to ``min_singular_distance_up_to`` at each length. Lengths and a
    given threshold must be finite. The tabulated sequence is non-increasing
    by construction.
    """
    lengths = [float(L) for L in lengths]
    if not all(math.isfinite(L) for L in lengths):
        raise DomainError(f"lengths must be finite, got {lengths}")
    if threshold is not None and not math.isfinite(threshold):
        raise DomainError(f"threshold must be finite, got {threshold}")
    lengths.sort()
    if not lengths or lengths[0] <= 0.0:
        raise DomainError("lengths must be positive")
    tr = trace(surface, start, lengths[-1], options=PLAIN_TRACE_OPTIONS)
    values = _distances_up_to(surface, tr, [min(L, tr.total_length) for L in lengths])
    rows = list(zip(lengths, values))
    monotone = all(rows[i + 1][1] <= rows[i][1] + 1e-15 for i in range(len(rows) - 1))
    passed = monotone and (threshold is None or rows[-1][1] < threshold)
    return MinDistanceReport(rows=rows, threshold=threshold, passed=passed, trace=tr)
