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

Path protocol. Every path that ``geodesic_distance`` compares -- a
``TraceResult``, a ``TwoSidedPath`` here, a ``PeriodicPath`` or ``ChainPath``
in ``cylinders`` -- offers ``param_range()``, the (lo, hi) arclength interval
it covers, and ``positions(ts)``, which returns ``(codes, xy)`` for an array
of arclengths: an int64 array of chart codes and an (n, 2) array of points in
those charts' frames. A chart code indexes ``surface.chart_names``, the sorted
chart ids of the surface the path was traced on (``surface.chart_index`` maps
back), so samples are grouped by chart pair with integer arithmetic.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

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


@dataclass
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
    ``detect_recurrence``. With ``record_min_distance`` the trace fills
    ``min_distance_series`` once its stepping ends, from one vectorized pass
    of the distance kernel over its segments.
    """

    stop_on_cone: bool = True          # False: pass through marked (2*pi) points
    detect_recurrence: bool = True
    stop_on_recurrence: bool = False
    record_min_distance: bool = True


DEFAULT_TRACE_OPTIONS = TraceOptions()
# no recurrence scan, no m(T) series: for callers that read neither
PLAIN_TRACE_OPTIONS = TraceOptions(detect_recurrence=False, record_min_distance=False)


@dataclass
class TraceResult:
    start: GeodesicState
    segments: list            # (chart_id, (x0, y0), (x1, y1))
    transitions: list         # per boundary: Isometry mapping next chart -> previous chart frame
    events: list
    total_length: float
    end_state: GeodesicState
    termination: str
    recurrence: dict | None
    min_distance_series: list  # (arclength, running min distance to singular set)
                               # at arclength 0 and at each segment end
    chart_index: dict = field(repr=False)  # chart id -> code: the traced surface's

    _bounds: np.ndarray | None = field(default=None, repr=False)
    _p0: np.ndarray | None = field(default=None, repr=False)
    _dirs: np.ndarray | None = field(default=None, repr=False)
    _chart_codes: np.ndarray | None = field(default=None, repr=False)

    def param_range(self) -> tuple[float, float]:
        return (0.0, self.total_length)

    def _ensure_arrays(self):
        if self._bounds is not None:
            return
        lengths = [math.hypot(b[0] - a[0], b[1] - a[1]) for _, a, b in self.segments]
        bounds = np.concatenate([[0.0], np.cumsum(lengths)])
        p0 = np.array([a for _, a, _ in self.segments], dtype=float)
        p1 = np.array([b for _, _, b in self.segments], dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            dirs = (p1 - p0) / np.maximum(np.array(lengths)[:, None], 1e-300)
        self._bounds = bounds
        self._p0 = p0
        self._dirs = dirs
        self._chart_codes = np.array([self.chart_index[c] for c, _, _ in self.segments],
                                     dtype=np.int64)

    def positions(self, ts: np.ndarray):
        """Chart codes and coordinates at the given arclengths (path protocol).

        Returns (codes, xy): an int64 array of codes into the traced surface's
        ``chart_names``, one per sample, and an (n, 2) array. Arclengths must
        lie in [0, total_length] up to a small slack.
        """
        self._ensure_arrays()
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < -1e-9 or ts.max() > self.total_length + 1e-9):
            raise InsufficientPath(
                f"arclength range [{ts.min():.6g}, {ts.max():.6g}] outside "
                f"[0, {self.total_length:.6g}]")
        idx = np.clip(np.searchsorted(self._bounds, ts, side="right") - 1,
                      0, len(self.segments) - 1)
        rel = np.clip(ts - self._bounds[idx], 0.0, None)
        xy = self._p0[idx] + rel[:, None] * self._dirs[idx]
        return self._chart_codes[idx], xy

    def state_at(self, t: float) -> GeodesicState:
        self._ensure_arrays()
        idx = int(np.clip(np.searchsorted(self._bounds, t, side="right") - 1,
                          0, len(self.segments) - 1))
        rel = t - self._bounds[idx]
        cid, a, b = self.segments[idx]
        u = self._dirs[idx]
        return GeodesicState(cid, (a[0] + rel * u[0], a[1] + rel * u[1]),
                             (float(u[0]), float(u[1])), t)

    def min_distance_at(self, T: float) -> float:
        """m(T): the running minimum at the last sample at or before T.

        The series holds one sample per segment end, so this is a bisection;
        inf when nothing was recorded up to T.
        """
        k = bisect.bisect_right(self.min_distance_series, T + 1e-12, key=lambda row: row[0])
        return self.min_distance_series[k - 1][1] if k else math.inf


# -- stepping -------------------------------------------------------------------


def _ray_exit(geo, p, d, tau_exit, tau_hit):
    """First boundary intersection of the ray p + s d, s > tau_exit.

    Returns (edge index, s, u) or None. u is the fraction along the edge,
    tolerantly clamped near endpoints (vertex hits are resolved by the caller).
    """
    px, py = float(p[0]), float(p[1])
    dx, dy = float(d[0]), float(d[1])
    best = None
    best_s = math.inf
    for i, (vx, vy, ex, ey, inv_len) in enumerate(geo.scalar_edges):
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

    Cells are squares of side h >= 2 * tau_rec, so a state that matches (by
    the rule in ``trace``) lies in the 3 x 3 cells around the query point.
    """

    def __init__(self, tau_rec: float):
        self.tau = tau_rec
        # any h >= 2 * tau_rec is exact; the floor keeps h positive when
        # tau_rec <= 0 (which never matches) and p / h finite when it is tiny
        self.h = max(1e-12, 2.0 * tau_rec)
        self.cells: dict[tuple, list] = {}
        self.count = 0

    def add(self, chart, p, d, s: float) -> None:
        key = (chart, math.floor(p[0] / self.h), math.floor(p[1] / self.h))
        self.cells.setdefault(key, []).append((self.count, p[0], p[1], d[0], d[1], s))
        self.count += 1

    def match(self, chart, p, d, s: float) -> dict | None:
        """{period, detected_at, matched_at} for the earliest stored match.

        The period is the arclength elapsed since the matched state, i.e. the
        first-return time of the recurring state.
        """
        tau = self.tau
        px, py, dx, dy = p[0], p[1], d[0], d[1]
        i, j = math.floor(px / self.h), math.floor(py / self.h)
        best = None
        for a in (i - 1, i, i + 1):
            for b in (j - 1, j, j + 1):
                for row in self.cells.get((chart, a, b), ()):
                    k, x, y, ex, ey, sr = row
                    if (abs(x - px) < tau and abs(y - py) < tau and abs(ex - dx) < tau
                            and abs(ey - dy) < tau and s - sr > 1e-9):
                        if best is None or k < best[0]:
                            best = row
                        break  # a cell's rows are in insertion order
        if best is None:
            return None
        return {"period": s - best[5], "detected_at": s, "matched_at": best[5]}


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
    point. Returns inf when there are no candidates.

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
    one at 0 first, with reach 0. Each row is the minimum of the kernel values
    so far, all from one ``_segment_distances`` pass, capped at the max chart
    diameter, the radius within which the one-ring candidate set (own chart
    corners plus one unfolded ring) is meaningful.
    """
    segs, lengths, reaches, at = [], [], [], []
    for rec in records:
        s0, s1 = rec[3], rec[4]
        length = s1 - s0
        ends = ((0.0, 0.0), (s1, length)) if s0 == 0.0 and length > 0.0 else ((s1, length),)
        for s, reach in ends:
            segs.append(rec)
            lengths.append(length)
            reaches.append(reach)
            at.append(s)
    # a NaN kernel value never lowers the minimum: fmin skips it
    best = np.fmin.accumulate(_segment_distances(surface, segs, lengths, reaches))
    best = np.where(best < np.inf, np.minimum(best, surface.max_diameter), np.inf)
    return list(zip(at, best.tolist()))


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


def trace(surface: ConeSurface, start: GeodesicState, max_length: float, *,
          options: TraceOptions = DEFAULT_TRACE_OPTIONS) -> TraceResult:
    """Trace the geodesic from ``start`` for at most ``max_length``.

    Stops at singular cone hits (unless the class is marked and
    ``options.stop_on_cone`` is false), at ``max_length``, or -- when
    ``options.stop_on_recurrence`` -- at the first detected state recurrence.

    A recurrence is a chart crossing whose point and direction each lie
    within ``tau_rec`` per component of an earlier crossing's in the same
    chart, more than 1e-9 of arclength later; the earliest such crossing is
    matched, and ``recurrence`` reports {period, detected_at, matched_at}.
    Each check costs O(1) on average, so detection keeps the trace linear in
    its crossings. The m(T) series is built from the recorded segments after
    the loop (``_min_distance_series``).
    """
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
    d = (start.direction[0] / dn, start.direction[1] / dn)
    p = (float(start.point[0]), float(start.point[1]))
    if not point_in_polygon(surface.charts[cid], p, tol=tol.tau_hit):
        raise StartOutsideSurface(f"point {p} is outside chart {cid!r}")
    norm_start = GeodesicState(cid, p, d, 0.0)

    segments: list = []
    transitions: list = []
    events: list[TraceEvent] = []
    records = [] if options.record_min_distance else None  # m(T) input, per segment
    crossings = _CrossingIndex(tol.tau_rec)
    recurrence = None
    s = 0.0
    termination = None
    end_state = None
    # A guard, not a knob: each pass ends at a chart boundary, so a trace of
    # length L makes about L / (chart width) passes (0.7 per unit length on
    # the octagon); only a stalled state gets near 10**7.
    max_iter = 10_000_000

    hops = 0
    for _ in range(max_iter):
        geo = surface.geometry[cid]
        hit = _ray_exit(geo, p, d, tol.tau_exit, tol.tau_hit)
        remaining = max_length - s
        if hit is None:
            # a state on a gluing edge pointing out of this chart expression
            # continues in the partner chart (zero-length crossing). A guard,
            # not a knob: a point on an edge needs one hop and a corner a few,
            # so the cap of 8 only stops ping-pong between partner charts
            # when rounding makes the direction look outward on both sides.
            oe = _outward_edge(geo, p, d, tol.tau_hit)
            if oe is not None and hops < 8:
                hops += 1
                nb = surface.edge_lookup[(cid, oe)]
                segments.append((cid, p, p))
                events.append(_edge_cross_event(s, cid, oe, nb))
                transitions.append(nb.inv)
                cid, p, d = nb.chart, nb.iso.apply(p), nb.iso.rotate(d)
                continue
            if remaining > geo.diameter + 1.0:
                raise TraceNumericalError(
                    f"no chart exit from {p} along {d} in chart {cid!r}")

        # the next stop: a chart corner (vtx), an edge crossing, or max_length
        vtx = None
        done = hit is None or hit[1] >= remaining
        if not done:
            edge, step, _ = hit
            x = (p[0] + step * d[0], p[1] + step * d[1])
            for cand in (edge, (edge + 1) % geo.n):
                v = geo.vertices[cand]
                if (math.hypot(x[0] - v[0], x[1] - v[1]) <= tol.tau_hit
                        and _arrives_at_corner(surface, cid, cand, d)):
                    vtx = cand
                    x = (float(v[0]), float(v[1]))
                    step = math.hypot(x[0] - p[0], x[1] - p[1])
                    done = step >= remaining
                    break
        if done:
            x = (p[0] + remaining * d[0], p[1] + remaining * d[1])
            if hit is None and not point_in_polygon(geo.vertices, x, tol.tau_hit):
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
        s += math.hypot(x[0] - p[0], x[1] - p[1])
        hops = 0

        if vtx is not None:
            vc = surface.corner_class[(cid, vtx)]
            sector = continuation_sector(surface, vc.id, d, corner=(cid, vtx))
            terminal = vc.singular and (options.stop_on_cone or vc.kind != KIND_MARKED)
            kind = EVENT_CONE_HIT if vc.singular else EVENT_VERTEX_PASS
            events.append(TraceEvent(kind, s, {
                "vertex_class": vc.id, "chart": cid, "vertex": vtx,
                "incoming": d, "terminal": terminal, "sector": sector}))
            if terminal:
                termination = EVENT_CONE_HIT
                end_state = GeodesicState(cid, x, d, s)
                break
            # flat passage: unique straight continuation through a 2*pi corner
            t_in = vc.cone_coordinate(cid, vtx, (-d[0], -d[1]))
            t_out = (t_in + math.pi) % vc.angle
            ncid, nvtx, nd = vc.direction_at(t_out)
            nv = surface.geometry[ncid].vertices[nvtx]
            nv = (float(nv[0]), float(nv[1]))
            transitions.append(_vertex_alignment(x, nv, d, nd))
            cid, p, d = ncid, nv, nd
        else:
            nb = surface.edge_lookup[(cid, edge)]
            events.append(_edge_cross_event(s, cid, edge, nb))
            transitions.append(nb.inv)
            cid, p, d = nb.chart, nb.iso.apply(x), nb.iso.rotate(d)

        if options.detect_recurrence and recurrence is None:
            hit_rec = crossings.match(cid, p, d, s)
            if hit_rec is not None:
                recurrence = hit_rec
                events.append(TraceEvent(EVENT_SELF_RECURRENCE,
                                         recurrence["period"], dict(recurrence)))
                if options.stop_on_recurrence:
                    termination = EVENT_SELF_RECURRENCE
                    end_state = GeodesicState(cid, p, d, s)
                    break
            else:
                crossings.add(cid, p, d, s)
    else:
        raise TraceNumericalError("step budget exceeded; degenerate trajectory")

    events.sort(key=lambda e: e.arclength)
    series = []
    if records is not None:
        series = _min_distance_series(surface, records or [
            (norm_start.chart, norm_start.point, norm_start.point, 0.0, 0.0)])
    return TraceResult(
        start=norm_start, segments=segments, transitions=transitions,
        events=events, total_length=s, end_state=end_state,
        termination=termination, recurrence=recurrence,
        min_distance_series=series,
        chart_index=surface.chart_index)


# -- developing map ---------------------------------------------------------------


@dataclass
class DevelopedPath:
    points: list                  # developed segment endpoints, start chart frame
    isometries: list              # per segment: Isometry chart frame -> developed frame
    total_length: float
    collinearity_residual: float  # max perpendicular deviation per unit length
    length_residual: float        # | |endpoint - start| - total_length |


def develop(trace_result: TraceResult) -> DevelopedPath:
    """Unfold a traced path into the plane of its starting chart.

    For a geodesic the developed polyline is a single straight segment; the
    reported residuals measure how far numerical transport strayed from that.
    """
    G = Isometry.identity()
    isos = [G]
    pts = [trace_result.segments[0][1]]
    for k, (cid, a, b) in enumerate(trace_result.segments):
        pts.append(G.apply(b))
        if k < len(trace_result.transitions):
            G = G.compose(trace_result.transitions[k])
            isos.append(G)
    p0, p1 = pts[0], pts[-1]
    total = trace_result.total_length
    chord = math.hypot(p1[0] - p0[0], p1[1] - p0[1])
    if chord > 0.0 and total > 0.0:
        ux, uy = (p1[0] - p0[0]) / chord, (p1[1] - p0[1]) / chord
        dev = max(abs((q[0] - p0[0]) * uy - (q[1] - p0[1]) * ux) for q in pts)
        resid = dev / total
    else:
        resid = 0.0
    return DevelopedPath(points=pts, isometries=isos, total_length=total,
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
class TwoSidedPath:
    """A trajectory extended both ways from an anchor state (parameter 0).

    ``positions`` keeps its last grid and result: the density experiment
    compares one target against every candidate on the same grid.
    """

    forward: TraceResult
    backward: TraceResult
    _last: tuple | None = field(default=None, repr=False, compare=False)

    def param_range(self) -> tuple[float, float]:
        return (-self.backward.total_length, self.forward.total_length)

    def positions(self, ts: np.ndarray):
        """Chart codes and coordinates at signed parameters (path protocol):
        t >= 0 on the forward trace, t < 0 at arclength -t on the backward one.
        The returned arrays are read-only; a repeated grid returns them again."""
        ts = np.array(ts, dtype=float)
        if self._last is not None and np.array_equal(self._last[0], ts):
            return self._last[1], self._last[2]
        codes = np.empty(len(ts), dtype=np.int64)
        xy = np.empty((len(ts), 2))
        pos = ts >= 0.0
        if pos.any():
            codes[pos], xy[pos] = self.forward.positions(ts[pos])
        neg = ~pos
        if neg.any():
            codes[neg], xy[neg] = self.backward.positions(-ts[neg])
        codes.flags.writeable = False
        xy.flags.writeable = False
        self._last = (ts, codes, xy)
        return codes, xy


def two_sided_trace(surface: ConeSurface, state: GeodesicState, half_length: float, *,
                    options: TraceOptions = DEFAULT_TRACE_OPTIONS) -> TwoSidedPath:
    fwd = trace(surface, state, half_length, options=options)
    back_state = GeodesicState(state.chart, state.point,
                               (-state.direction[0], -state.direction[1]))
    bwd = trace(surface, back_state, half_length, options=options)
    return TwoSidedPath(fwd, bwd)


def _sample_distances(surface: ConeSurface, k1: np.ndarray, xy1: np.ndarray,
                      k2: np.ndarray, xy2: np.ndarray, cap: float) -> np.ndarray:
    """Per sample, the min over the aligned copies of the second chart of
    |xy1 - iso(xy2)|, capped; the cap (inf for no cap) where the two charts
    have no alignment. Samples are grouped by chart pair, and each sample's
    value depends on that sample alone."""
    names = surface.chart_names
    keys, group = np.unique(k1 * len(names) + k2, return_inverse=True)
    dists = np.empty(len(k1))
    for j, key in enumerate(keys):
        sel = slice(None) if len(keys) == 1 else group == j
        isos = surface.alignment_isos(names[key // len(names)], names[key % len(names)])
        x1, y1, x2, y2 = xy1[sel, 0], xy1[sel, 1], xy2[sel, 0], xy2[sel, 1]
        best = np.full(len(x1), np.inf if isos else cap)
        for iso in isos:
            qx = iso.c * x2 - iso.s * y2 + iso.tx
            qy = iso.s * x2 + iso.c * y2 + iso.ty
            np.minimum(best, np.hypot(x1 - qx, y1 - qy), out=best)
        dists[sel] = np.minimum(best, cap, out=best)
    return dists


@dataclass
class DistanceResult:
    value: float
    truncation_bound: float
    window: tuple[float, float]
    step: float
    diameter_bound: float


class _DistanceGrid:
    """The quadrature of ``geodesic_distance`` for one first path.

    Holds the trapezoid nodes over the window, their weights exp(-|t|) and
    the first path's samples, so any number of second paths are compared on
    the same grid without rebuilding it. The constructor checks the window
    and the first path's coverage; ``partial`` checks the second path's.
    """

    def __init__(self, surface: ConeSurface, path1, window, anchor1: float = 0.0):
        step = surface.tolerances.distance_step
        if not step > 0.0:
            raise DomainError(f"distance_step must be positive, got {step}")
        w0, w1 = ((-float(window), float(window)) if np.isscalar(window)
                  else (float(window[0]), float(window[1])))
        if not w0 < w1:
            raise DomainError(f"empty window ({w0}, {w1})")
        self.surface, self.window, self.step = surface, (w0, w1), step
        self.diameter_bound = sum(g.diameter for g in surface.geometry.values())
        self._check_covers(path1, anchor1, "path1")
        count = max(2, int(round((w1 - w0) / step)) + 1)
        self.ts = np.linspace(w0, w1, count)
        self.weights = np.exp(-np.abs(self.ts))
        self.i0 = int(np.argmin(np.abs(self.ts)))
        self.k1, self.xy1 = path1.positions(self.ts + anchor1)

    def _check_covers(self, path, anchor: float, name: str) -> None:
        (w0, w1), (lo, hi) = self.window, path.param_range()
        if anchor + w0 < lo - 1e-9 or anchor + w1 > hi + 1e-9:
            raise InsufficientPath(
                f"{name} covers [{lo:.6g}, {hi:.6g}] but the window needs "
                f"[{anchor + w0:.6g}, {anchor + w1:.6g}]")

    def partial(self, path2, anchor2: float = 0.0, half_width: float = math.inf) -> float:
        """The trapezoid sum over the contiguous nodes with |t| <= half_width
        and the node nearest t = 0, whose charts must have an alignment.

        With the default it is the distance itself. Every term of the sum is
        non-negative and bitwise the term of the whole grid, so a narrower
        sum is a lower bound on the distance up to the rounding of the order
        of summation (relative 1e-15 for 10^4 terms).
        """
        self._check_covers(path2, anchor2, "path2")
        lo = min(int(np.searchsorted(self.ts, -half_width, side="left")), self.i0)
        hi = max(int(np.searchsorted(self.ts, half_width, side="right")), self.i0 + 1)
        ts = self.ts[lo:hi]
        k2, xy2 = path2.positions(ts + anchor2)
        names = self.surface.chart_names
        c1, c2 = names[self.k1[self.i0]], names[k2[self.i0 - lo]]
        if not self.surface.alignment_isos(c1, c2):
            raise IncomparableTraces(
                f"no chart alignment between {c1!r} and {c2!r} at time 0")
        dists = _sample_distances(self.surface, self.k1[lo:hi], self.xy1[lo:hi], k2, xy2,
                                  self.diameter_bound)
        return float(_trapezoid(dists * self.weights[lo:hi], ts))


def geodesic_distance(surface: ConeSurface, path1, path2,
                      window=5.0, anchor1: float = 0.0,
                      anchor2: float = 0.0) -> DistanceResult:
    """Exponentially weighted compact-open distance between two paths.

    Numerically integrates dist(path1(t), path2(t)) * exp(-|t|) over the
    window, with t measured from per-path anchors (arclengths; default the
    path starts), by the trapezoid rule with the surface's ``distance_step``,
    which must be positive. Pointwise distances minimize over the copies of
    the second chart within two gluing crossings of the first and are capped
    at the diameter bound D, the summed chart diameters, whose tail
    contribution 2*D*exp(-W) is reported.
    """
    grid = _DistanceGrid(surface, path1, window, anchor1)
    value = grid.partial(path2, anchor2)
    w0, w1 = grid.window
    bound = 2.0 * grid.diameter_bound * math.exp(-min(-w0, w1))
    return DistanceResult(value, bound, grid.window, grid.step, grid.diameter_bound)


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
    one pass over the segments.

    Segment k starts at s0, the sum of the earlier segments' lengths
    |b - a| in order, and counts for T when s0 < T (every segment starting
    at 0 counts for T = 0); for T it is cut to the piece of length
    min(T - s0, |b - a|), and the minimum of the kernel values is capped as
    in the series. One ``_segment_distances`` pass gives every whole
    segment's value, and their prefix minima cover the leading segments that
    lie wholly before T; the scalar kernel runs only on the counting segments
    after them, usually the one that T cuts short. The values are those of a
    rescan from 0 for each T, bit for bit.
    """
    segments = trace_result.segments
    starts, lengths = [], []
    s0 = 0.0
    for _, a, b in segments:
        if s0 >= Ts[-1] and s0 > 0.0:
            break
        seg_len = math.hypot(b[0] - a[0], b[1] - a[1])
        starts.append(s0)
        lengths.append(seg_len)
        s0 += seg_len
    whole = _segment_distances(surface, segments[:len(starts)], lengths, lengths)
    # prefix[k]: the least whole value before segment k; fmin skips a NaN one
    prefix = np.fmin.accumulate(np.concatenate([[math.inf], whole])).tolist()
    cap = surface.max_diameter
    rows = []
    cut = end = 0     # leading segments wholly before T; those counting for T
    for T in Ts:
        while end < len(starts) and (starts[end] < T or starts[end] == 0.0):
            end += 1
        while cut < end and T - starts[cut] >= lengths[cut]:
            cut += 1
        best = prefix[cut]
        for k in range(cut, end):
            cid, a, b = segments[k]
            best = min(best, _segment_distance(surface.singular_images(cid), a, b,
                                               lengths[k], min(T - starts[k], lengths[k])))
        rows.append(min(best, cap) if best < math.inf else math.inf)
    return rows


@dataclass
class MinDistanceReport:
    rows: list                # (length, min distance up to that length)
    threshold: float | None
    passed: bool
    trace: TraceResult


def min_distance_experiment(surface: ConeSurface, start: GeodesicState, lengths,
                            threshold: float | None = None, *,
                            options: TraceOptions = DEFAULT_TRACE_OPTIONS) -> MinDistanceReport:
    """Trace once and tabulate m(T) = min distance to the singular set up to T.

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
    tr = trace(surface, start, lengths[-1], options=options)
    values = _distances_up_to(surface, tr, [min(L, tr.total_length) for L in lengths])
    rows = list(zip(lengths, values))
    monotone = all(rows[i + 1][1] <= rows[i][1] + 1e-15 for i in range(len(rows) - 1))
    passed = monotone and (threshold is None or rows[-1][1] < threshold)
    return MinDistanceReport(rows=rows, threshold=threshold, passed=passed, trace=tr)
