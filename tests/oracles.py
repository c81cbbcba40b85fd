"""Independent reference computations the tests check the library against.

Everything here is deliberately written from scratch with elementary methods
(lattice brute force, closed-form trigonometry, a translation-only stepper,
high-precision recomposition, a per-pair breadth-first unfolding) and shares no stepping or unfolding code with
the package. The one exception is ``passes_trace_audit``, which audits the
window sweep's saddle connections with the package's tracer.
``first_recurrence`` scans every earlier crossing linearly, as the reference
for the tracer's hashed recurrence index, and ``anchor_on_chain`` measures
one chain sample at a time with the package's ``surface_point_distance``, as
the reference for the density experiment's vectorized chain anchors.
``min_distance_series`` and ``min_singular_distance_up_to`` call the package's
distance kernel on every segment, one call each, as the reference for the
tracer's vectorized pass over the segments. ``find_closed_geodesic_eager``
builds every offset launch state before the first launch and traces the
bounding saddles within the search, with the package's closing, width and
boundary steps, as the reference for the search that builds launch states on
demand and bounding saddles on first read. ``enumerate_saddles_one_by_one`` certifies each saddle hit with its own trace
as the sweep finds it, the reference for the order in which the errors of the
certification fleet raise. ``density_cores_three_traces`` closes each density direction
with the package's tracer in three traces (recurrence, a re-trace from the
matched state, a re-trace from the target's point), as the reference for the
two that the density experiment makes. ``WindowSweep`` is the window sweep
with one window per part: each window is one ray interval, parts entering the
same chart copy are never joined, and it shares only the ray offset helper
with the package. ``HoleCastSweep`` is the package's sweep with its cut as
it was before holes were kept uncast: a cast on each side of every hole.
``reference_trace``, with its ``_ray_exit`` and
``_CrossingIndex``, is the package's stepper as it was before its
per-crossing rewrite (the corner, event and m(T) helpers it calls are the
package's), and ``reference_develop`` composes the developing map on plain
floats: the references that the stepper and ``develop`` must equal bit for
bit. ``reference_sample_distances`` is the compact-open distance's
per-sample kernel as it was before its copies were grouped by rotation: it
maps the samples through every copy in full, the reference that the kernel
must equal bit for bit. ``reference_positions`` locates a path's samples
trace by trace, each trace searching its own segment arrays, and
``reference_least_distances`` walks each density candidate's rings on its
own, one kernel call per ring (the package's kernel, so that its calls can
be counted): the references that the positions pass over many paths' traces
and the block walk of ``tracer._least_distances`` must equal bit for bit.
``subdivide_torus`` cuts the marked torus into strips with the package's
``build_surface``: the same flat surface in other charts, whose metric
quantities must equal the uncut torus's. ``apply_linear`` maps every chart of
a surface by a linear map, also with ``build_surface``: its holonomies and
cylinders must be those of the surface, mapped.
"""

from __future__ import annotations

import heapq
import math

import mpmath
import numpy as np

from conesurf import tracer
from conesurf.errors import (
    DomainError,
    IncomparableTraces,
    InsufficientPath,
    StartOutsideSurface,
    TraceNumericalError,
    UnfoldingBudgetExceeded,
    ZeroDirection,
)
from conesurf.geometry import Isometry, norm, point_in_polygon
from conesurf.surface import KIND_MARKED, ConeSurface, _offset, build_surface
from conesurf.surface import WindowSweep as _PackageWindowSweep
from conesurf.tracer import (
    DEFAULT_TRACE_OPTIONS,
    EVENT_CONE_HIT,
    EVENT_MAX_LENGTH,
    EVENT_SELF_RECURRENCE,
    EVENT_VERTEX_PASS,
    GeodesicState,
    TraceEvent,
    TraceOptions,
    TraceResult,
    _arrives_at_corner,
    _edge_cross_event,
    _outward_edge,
    _vertex_alignment,
    continuation_sector,
)

TWO_PI = 2.0 * math.pi


# -- lattice (torus) oracles --------------------------------------------------------


def primitive_vectors(L: float) -> list[tuple[int, int]]:
    """All primitive integer vectors (p, q) != 0 with p^2 + q^2 <= L^2."""
    out = []
    r = int(math.floor(L)) + 1
    L2 = L * L
    for p in range(-r, r + 1):
        for q in range(-r, r + 1):
            if (p, q) == (0, 0) or p * p + q * q > L2:
                continue
            if math.gcd(abs(p), abs(q)) == 1:
                out.append((p, q))
    return out


def point_segment_distance(pt, a, b) -> float:
    ax, ay = a
    bx, by = b
    px, py = pt
    ex, ey = bx - ax, by - ay
    L2 = ex * ex + ey * ey
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * ex + (py - ay) * ey) / L2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * ex), py - (ay + t * ey))


def lattice_segment_min_distance(start, direction, T: float) -> float:
    """Exact min distance from the straight segment of length T on the plane
    to the integer lattice: the unfolded picture of a torus trajectory whose
    singular set is the lattice of marked corners."""
    n = math.hypot(*direction)
    u = (direction[0] / n, direction[1] / n)
    a = (float(start[0]), float(start[1]))
    b = (a[0] + T * u[0], a[1] + T * u[1])
    lo_x = int(math.floor(min(a[0], b[0]))) - 1
    hi_x = int(math.ceil(max(a[0], b[0]))) + 1
    lo_y = int(math.floor(min(a[1], b[1]))) - 1
    hi_y = int(math.ceil(max(a[1], b[1]))) + 1
    best = math.inf
    for p in range(lo_x, hi_x + 1):
        for q in range(lo_y, hi_y + 1):
            d = point_segment_distance((p, q), a, b)
            if d < best:
                best = d
    return best


def torus_cylinder_width(p: int, q: int) -> float:
    """Full width of the (p, q) lattice cylinder: the gap between consecutive
    lattice lines of direction (p, q) is 1/|(p, q)| for primitive (p, q)."""
    if math.gcd(abs(p), abs(q)) != 1:
        raise ValueError(f"({p}, {q}) is not primitive")
    return 1.0 / math.hypot(p, q)


def golden_convergents() -> list[tuple[int, int]]:
    """Continued-fraction convergents p/q of the golden ratio as direction
    vectors (q, p) with slope p/q: consecutive Fibonacci pairs."""
    fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    return [(fib[i], fib[i + 1]) for i in range(len(fib) - 1)]


# -- octagon translation-stepper oracle ----------------------------------------------


def octagon_vertices(circumradius: float = 1.0) -> list[tuple[float, float]]:
    return [(circumradius * math.cos(math.pi / 8 + k * math.pi / 4),
             circumradius * math.sin(math.pi / 8 + k * math.pi / 4))
            for k in range(8)]


def octagon_min_distance(start, direction, T: float,
                         circumradius: float = 1.0) -> float:
    """Min distance to the cone point along an octagon trajectory of length T.

    Independent stepper: gluings of opposite octagon sides are pure
    translations, so the direction never changes and crossing edge k is the
    translation by -2 * (midpoint of edge k).  The singular set is the single
    vertex class, whose images in the chart are the 8 polygon corners.
    """
    verts = octagon_vertices(circumradius)
    mids = [((verts[k][0] + verts[(k + 1) % 8][0]) / 2.0,
             (verts[k][1] + verts[(k + 1) % 8][1]) / 2.0) for k in range(8)]
    n = math.hypot(*direction)
    d = (direction[0] / n, direction[1] / n)
    p = (float(start[0]), float(start[1]))
    remaining = float(T)
    best = math.inf
    guard = 0
    while remaining > 1e-12:
        guard += 1
        if guard > 10_000_000:
            raise RuntimeError("oracle stepper exceeded its iteration budget")
        # first exit through any edge, by ray-line intersection
        exit_s, exit_edge = math.inf, None
        for k in range(8):
            ax, ay = verts[k]
            bx, by = verts[(k + 1) % 8]
            ex, ey = bx - ax, by - ay
            denom = d[0] * ey - d[1] * ex
            if abs(denom) < 1e-15:
                continue
            s = ((ax - p[0]) * ey - (ay - p[1]) * ex) / denom
            u = ((ax - p[0]) * d[1] - (ay - p[1]) * d[0]) / denom
            if s > 1e-12 and -1e-12 <= u <= 1.0 + 1e-12 and s < exit_s:
                exit_s, exit_edge = s, k
        if exit_edge is None:
            raise RuntimeError(f"oracle stepper found no exit from {p}")
        step = min(exit_s, remaining)
        q = (p[0] + step * d[0], p[1] + step * d[1])
        for v in verts:
            dist = point_segment_distance(v, p, q)
            if dist < best:
                best = dist
        remaining -= step
        if remaining <= 1e-12:
            break
        p = (q[0] - 2.0 * mids[exit_edge][0], q[1] - 2.0 * mids[exit_edge][1])
    return best


# -- closed-form quadrangle (high precision) -----------------------------------------


def quadrangle_expected(eps: float, delta: float, theta: float) -> tuple[float, float]:
    """Width and length of the widened-strip quadrangle, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        e, dl, th = mpmath.mpf(eps), mpmath.mpf(delta), mpmath.mpf(theta)
        width = dl + e / (2 * mpmath.cos(th))
        length = e / (2 * mpmath.sin(th))
        return float(width), float(length)


# -- high-precision development recomposition ----------------------------------------


def recompose_development(trace_result) -> float:
    """Length residual of the developed chord, recomputed at 50 digits.

    Re-accumulates the trace's chart-to-chart isometries with mpmath and
    compares the developed endpoint chord against the traced arclength; for a
    geodesic both should agree to full float precision.
    """
    with mpmath.workdps(50):
        c, s, tx, ty = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0)

        def apply(pt):
            x, y = mpmath.mpf(pt[0]), mpmath.mpf(pt[1])
            return (c * x - s * y + tx, s * x + c * y + ty)

        start = trace_result.segments[0][1]
        p0 = apply(start)
        end = p0
        for k, (_, _, b) in enumerate(trace_result.segments):
            end = apply(b)
            if k < len(trace_result.transitions):
                iso = trace_result.transitions[k]
                ic, isn = mpmath.mpf(iso.c), mpmath.mpf(iso.s)
                itx, ity = mpmath.mpf(iso.tx), mpmath.mpf(iso.ty)
                # compose: current then iso (chart_{k+1} -> chart_k -> frame)
                c, s, tx, ty = (c * ic - s * isn,
                                s * ic + c * isn,
                                c * itx - s * ity + tx,
                                s * itx + c * ity + ty)
        chord = mpmath.sqrt((end[0] - p0[0]) ** 2 + (end[1] - p0[1]) ** 2)
        return float(abs(chord - mpmath.mpf(trace_result.total_length)))


# -- direction spectrum oracle --------------------------------------------------------


def torus_direction_gaps(L: float) -> tuple[list[float], float]:
    """Sorted saddle direction angles on the marked torus and their largest
    circular gap, from the primitive-vector brute force."""
    angles = sorted({math.atan2(q, p) for p, q in primitive_vectors(L)})
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(angles[0] + TWO_PI - angles[-1])
    return angles, max(gaps)


# -- segment intersection (self-intersection finder) ---------------------------------


def segment_intersection(a0, a1, b0, b1):
    """Proper intersection of open segments; returns (t, u, point) with t, u
    the fractional parameters along each segment, or None."""
    ex, ey = a1[0] - a0[0], a1[1] - a0[1]
    fx, fy = b1[0] - b0[0], b1[1] - b0[1]
    denom = ex * fy - ey * fx
    if abs(denom) < 1e-15:
        return None
    rx, ry = b0[0] - a0[0], b0[1] - a0[1]
    t = (rx * fy - ry * fx) / denom
    u = (rx * ey - ry * ex) / denom
    if -1e-12 < t < 1.0 + 1e-12 and -1e-12 < u < 1.0 + 1e-12:
        px = a0[0] + t * ex
        py = a0[1] + t * ey
        return t, u, (px, py)
    return None


# -- compact-open distance, one sample at a time ----------------------------------------


def trace_sample(trace_result, t: float):
    """(chart id, (x, y)) at arclength t of a traced path, by walking its
    segments: the last segment starting at or before t, clamped to the path."""
    starts, s = [], 0.0
    for _, a, b in trace_result.segments:
        starts.append(s)
        s += math.hypot(b[0] - a[0], b[1] - a[1])
    k = 0
    for j, s0 in enumerate(starts):
        if s0 <= t:
            k = j
    cid, a, b = trace_result.segments[k]
    length = max(math.hypot(b[0] - a[0], b[1] - a[1]), 1e-300)
    rel = max(t - starts[k], 0.0)
    return cid, (a[0] + rel * (b[0] - a[0]) / length, a[1] + rel * (b[1] - a[1]) / length)


def path_sample(path, t: float):
    """(chart id, (x, y)) at parameter t of a traced, two-sided, periodic or
    chain path, following each path type's parametrization."""
    if hasattr(path, "forward"):            # two-sided: t < 0 runs backward
        return trace_sample(path.forward, t) if t >= 0.0 else trace_sample(path.backward, -t)
    if hasattr(path, "core"):               # closed geodesic, periodic
        return trace_sample(path.core, t % path.core.total_length)
    if hasattr(path, "pg"):                 # closed chain, periodic, piece by piece
        t = t % path.pg.total_length
        pieces = [p for link in path.pg.links for p in link.pieces]
        start, j = 0.0, 0
        offsets = []
        for piece in pieces:
            offsets.append(start)
            start += piece.total_length
        for i, off in enumerate(offsets):
            if off <= t:
                j = i
        return trace_sample(pieces[j], min(t - offsets[j], pieces[j].total_length))
    return trace_sample(path, t)


def alignment_isos(surface, c_from: str, c_to: str) -> list:
    """The copies of c_to within two gluing crossings of c_from, as isometries
    into c_from's frame: one breadth-first search per chart pair, deduplicated
    by rounded (chart, isometry), in visiting order."""
    ident = Isometry.identity()
    seen = {(c_from, ident.rounded_key())}
    out = []
    frontier = [(c_from, ident)]
    for _ in range(3):                      # the root and two rings of neighbors
        nxt = []
        for chart, iso in frontier:
            if chart == c_to:
                out.append(iso)
            for e in range(len(surface.charts[chart])):
                nb = surface.edge_lookup[(chart, e)]
                niso = iso.compose(nb.iso.inverse())
                key = (nb.chart, niso.rounded_key())
                if key not in seen:
                    seen.add(key)
                    nxt.append((nb.chart, niso))
        frontier = nxt
    return out


def compact_open_distance(surface, path1, path2, window: float, *, anchor1: float = 0.0,
                          anchor2: float = 0.0, step: float) -> float:
    """The weighted distance of ``geodesic_distance``, sample by sample.

    Each sample's distance is the minimum of math.hypot over the chart
    alignments of its two charts (``alignment_isos`` above), capped at the
    summed chart diameters; the weighted samples are summed by the trapezoid
    rule with math.fsum.
    """
    cap = sum(g.diameter for g in surface.geometry.values())
    count = max(2, int(round(2.0 * window / step)) + 1)
    ts = [-window + 2.0 * window * i / (count - 1) for i in range(count)]
    aligned: dict = {}
    values = []
    for t in ts:
        c1, (x1, y1) = path_sample(path1, t + anchor1)
        c2, (x2, y2) = path_sample(path2, t + anchor2)
        if (c1, c2) not in aligned:
            aligned[c1, c2] = alignment_isos(surface, c1, c2)
        best = cap
        for iso in aligned[c1, c2]:
            qx = iso.c * x2 - iso.s * y2 + iso.tx
            qy = iso.s * x2 + iso.c * y2 + iso.ty
            best = min(best, math.hypot(x1 - qx, y1 - qy))
        values.append(best * math.exp(-abs(t)))
    return math.fsum(0.5 * (values[i] + values[i + 1]) * (ts[i + 1] - ts[i])
                     for i in range(count - 1))


def anchor_on_chain(surface, path, point, samples: int = 128) -> float:
    """The chain anchor of the density experiment, one sample at a time.

    The first of ``samples`` equally spaced chain parameters whose position
    has the least ``surface_point_distance`` to the (chart, xy) point; 0.0
    when no sample's chart aligns with the point's.
    """
    from conesurf import surface_point_distance

    ts = np.linspace(0.0, path.length, samples, endpoint=False)
    codes, xy = path.positions(ts)
    best_t, best_d = 0.0, math.inf
    for t, c, p in zip(ts, surface.chart_names[codes], xy):
        dist = surface_point_distance(surface, point, (c, (p[0], p[1])))
        if dist < best_d:
            best_d, best_t = dist, float(t)
    return best_t


def passes_trace_audit(surface, connection) -> bool:
    """A trace from the connection's start corner along its direction ends at
    its end class at its length; the window sweep that found it does not
    trace, so this checks the sweep against the stepper."""
    from conesurf import trace_connection

    again = trace_connection(surface, connection.start_corner, connection.direction,
                             connection.length, expected_end=connection.end)
    return again is not None and again.start == connection.start


# -- recurrence oracle ----------------------------------------------------------------


def first_recurrence(crossings, chart, p, d, s, tau_rec):
    """Linear scan of every earlier crossing in the chart for a recurrence.

    ``crossings`` maps a chart to its earlier states as [x, y, dx, dy, s]
    rows in insertion order. A row matches when each component differs by
    less than ``tau_rec`` and ``s`` is more than 1e-9 past it; the first
    matching row wins. Returns {period, detected_at, matched_at} or None.
    """
    rows = crossings.get(chart)
    if not rows:
        return None
    arr = np.array(rows)
    close = (np.abs(arr[:, 0] - p[0]) < tau_rec) & \
            (np.abs(arr[:, 1] - p[1]) < tau_rec) & \
            (np.abs(arr[:, 2] - d[0]) < tau_rec) & \
            (np.abs(arr[:, 3] - d[1]) < tau_rec) & \
            (s - arr[:, 4] > 1e-9)
    if not close.any():
        return None
    matched = float(arr[int(np.argmax(close)), 4])
    return {"period": s - matched, "detected_at": s, "matched_at": matched}


# -- the reference stepper: the package's tracer before its per-crossing rewrite ----------


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


def reference_trace(surface: ConeSurface, start: GeodesicState, max_length: float, *,
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
    its crossings. The m(T) series is built from the recorded segments on its
    first read (``TraceResult.min_distance_series``).
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
                events.append(TraceEvent(EVENT_SELF_RECURRENCE, s, dict(recurrence)))
                if options.stop_on_recurrence:
                    termination = EVENT_SELF_RECURRENCE
                    end_state = GeodesicState(cid, p, d, s)
                    break
            else:
                crossings.add(cid, p, d, s)
    else:
        raise TraceNumericalError("step budget exceeded; degenerate trajectory")

    if records == []:
        records.append((norm_start.chart, norm_start.point, norm_start.point, 0.0, 0.0))
    return TraceResult(
        start=norm_start, segments=segments, transitions=transitions,
        event_records=events, total_length=s, end_state=end_state,
        termination=termination, recurrence=recurrence, chart_index=surface.chart_index,
        distance_records=records, surface=surface)


def reference_develop(trace_result) -> tuple[list, list]:
    """The developed segment endpoints and the per-segment (c, s, tx, ty) of
    ``develop``, composing the transitions with the arithmetic of
    ``Isometry.compose`` and ``Isometry.apply`` written out on floats."""
    c, s, tx, ty = 1.0, 0.0, 0.0, 0.0
    isos = [(c, s, tx, ty)]
    pts = [trace_result.segments[0][1]]
    for k, (_, _, b) in enumerate(trace_result.segments):
        pts.append((c * b[0] - s * b[1] + tx, s * b[0] + c * b[1] + ty))
        if k < len(trace_result.transitions):
            t = trace_result.transitions[k]
            c, s, tx, ty = (c * t.c - s * t.s, s * t.c + c * t.s,
                            c * t.tx - s * t.ty + tx, s * t.tx + c * t.ty + ty)
            isos.append((c, s, tx, ty))
    return pts, isos


# -- m(T), every segment through the kernel ---------------------------------------------


def min_distance_series(surface, records) -> list:
    """The m(T) series of ``trace`` from its per-segment records, calling the
    package's kernel on every segment.

    ``records`` holds (chart, p0, p1, s0, s1) per recorded segment, as
    ``trace`` hands them to ``tracer._min_distance_series``. Each row is the
    minimum of the previous row and the kernel on the segment, with length
    s1 - s0, capped at the max chart diameter; a segment of positive length
    starting at 0 first adds the row at 0.
    """
    from conesurf.tracer import _segment_distance

    cap = surface.max_diameter
    series = []
    for chart, p0, p1, s0, s1 in records:
        cands = surface.singular_images(chart)
        best = series[-1][1] if series else math.inf
        length = s1 - s0
        ends = [(0.0, 0.0), (s1, length)] if s0 == 0.0 and length > 0.0 else [(s1, length)]
        for s, reach in ends:
            best = min(best, _segment_distance(cands, p0, p1, length, reach))
            series.append((s, min(best, cap) if best < math.inf else math.inf))
    return series


def min_singular_distance_up_to(surface, trace_result, T: float) -> float:
    """m(T) of a traced path for T > 0, rescanning its segments from 0:
    every segment starting before T, cut at T, through the package's kernel."""
    from conesurf.tracer import _segment_distance

    best = math.inf
    s0 = 0.0
    for cid, a, b in trace_result.segments:
        seg_len = math.hypot(b[0] - a[0], b[1] - a[1])
        if s0 >= T:
            break
        dist = _segment_distance(surface.singular_images(cid), a, b, seg_len,
                                 min(T - s0, seg_len))
        if dist < best:
            best = dist
        s0 += seg_len
    return min(best, surface.max_diameter) if best < math.inf else math.inf


# -- closed geodesics, every launch state built first ------------------------------------


def find_closed_geodesic_eager(surface, direction, start=None, max_circumference=None):
    """``find_closed_geodesic`` with all offset launch states built before the
    first launch is tried and the bounding saddles traced before it returns,
    through the package's closing, width and boundary steps."""
    from conesurf.cylinders import (_JIGGLE_FRACTIONS, Cylinder, _boundary_saddles,
                                    _one_period, _recurrence, offset_state, strip_width)
    from conesurf.geometry import interior_point, normalize

    diam = surface.max_diameter
    if max_circumference is None:
        max_circumference = 128.0 * diam
    if start is None:
        cid = min(surface.charts)
        start = (cid, interior_point(surface.charts[cid]))
    chart, point = start
    base_state = GeodesicState(chart, point, normalize(direction))

    attempts = [base_state]
    for f in _JIGGLE_FRACTIONS:
        try:
            attempts.append(offset_state(surface, base_state, f * diam))
        except DomainError:
            continue

    for state in attempts:
        rec = _recurrence(surface, state, max_circumference)
        if rec is None:
            continue
        period, tr = rec
        matched = tr.state_at(tr.recurrence["matched_at"])
        closed = _one_period(surface, matched, period)
        if closed is None:
            continue
        core, gap = closed
        cyl = Cylinder(core=core, circumference=core.total_length, start=matched,
                       direction=matched.direction, closure_error=gap)
        cyl.width_left, cyl.width_right, cyl.witnesses = strip_width(surface, cyl.core)
        cyl.bounding = {
            side: _boundary_saddles(surface, cyl.witnesses[side], cyl.circumference, sign)
            for side, sign in (("left", 1.0), ("right", -1.0))}
        return cyl
    return None


# -- density cores, three traces per direction ------------------------------------------


def enumerate_saddles_one_by_one(surface, base, L):
    """``enumerate_saddles`` as it was before its certifications ran as one
    fleet: the package's window sweep, and ``saddles.trace_connection`` on
    each new hit as the sweep finds it, raising as soon as one does not
    certify. The reference for the order in which the fleet's errors raise."""
    from conesurf import saddles
    from conesurf.geometry import Isometry
    from conesurf.surface import FanPencil, WindowSweep

    vc = surface.vertex_class(base)
    found = {}
    for m_idx, corner in enumerate(vc.members):
        b = surface.charts[corner[0]][corner[1]]
        pencil = FanPencil(b, vc.start_rays[m_idx], vc.angles[m_idx])
        wedge = [(corner[0], Isometry.identity(), ((0.0, False), (vc.angles[m_idx], True)))]
        for w, dist, c, i, _ in WindowSweep(surface, pencil, wedge, L):
            end = surface.corner_class[(c, i)].id
            hx, hy = w[0] - b[0], w[1] - b[1]
            key = (vc.id, end, round(hx, 9), round(hy, 9), round(dist, 9))
            if key in found:
                continue
            sc = saddles.trace_connection(surface, corner, (hx, hy), dist, expected_end=end)
            if sc is None:
                raise TraceNumericalError(f"tracing from corner {corner} toward the sweep's hit "
                                          f"on {end} at ({hx:.12g}, {hy:.12g}) ends elsewhere")
            found[key] = sc
    return sorted(found.values(), key=lambda s: (s.length, s.angle))


def density_cores_three_traces(surface, target, directions, max_circumference):
    """The density experiment's closed cores, one per direction (None when the
    direction does not close), made with three traces each: trace to
    recurrence, re-trace one period from the matched state and check that it
    closes, then trace one circumference from the target's point and check
    that it closes too. Only that last trace is returned."""
    from conesurf.cylinders import _CORE_OPTIONS, Cylinder, _state_gap
    from conesurf.geometry import normalize
    from conesurf.tracer import (EVENT_CONE_HIT, EVENT_MAX_LENGTH, EVENT_SELF_RECURRENCE,
                                 PLAIN_TRACE_OPTIONS, GeodesicState, trace)

    def close(state, max_circumference):
        tol = surface.tolerances
        budget = 2.0 * max_circumference + 4.0 * surface.max_diameter
        tr = trace(surface, state, budget, options=_CORE_OPTIONS)
        if tr.termination != EVENT_SELF_RECURRENCE or tr.recurrence is None:
            return None
        period = tr.recurrence["period"]
        if period > max_circumference + tol.tau_len:
            return None
        s0 = tr.state_at(tr.recurrence["matched_at"])
        core = trace(surface, s0, period, options=PLAIN_TRACE_OPTIONS)
        if core.termination == EVENT_CONE_HIT:
            return None
        gap = _state_gap(surface, s0, core.end_state)
        if gap > 100.0 * tol.tau_rec:
            return None
        return Cylinder(core=core, circumference=core.total_length, start=s0,
                        direction=s0.direction, closure_error=gap)

    tol = surface.tolerances
    cores = []
    for d in directions:
        cyl = close(GeodesicState(target.chart, target.point, normalize(d)), max_circumference)
        if cyl is None:
            cores.append(None)
            continue
        anchored = trace(surface, GeodesicState(target.chart, target.point, d),
                         cyl.circumference, options=PLAIN_TRACE_OPTIONS)
        if (anchored.termination != EVENT_MAX_LENGTH
                or _state_gap(surface, anchored.start, anchored.end_state)
                > 100.0 * tol.tau_rec):
            cores.append(None)
            continue
        cores.append(anchored)
    return cores


# -- the window sweep, one window per part ----------------------------------------------


def _ray_edge(o, u, edge):
    """(t, s) with o + t*u == a + s*e for edge (ax, ay, ex, ey), or None if parallel."""
    ax, ay, ex, ey = edge
    den = u[0] * ey - u[1] * ex
    if abs(den) <= 1e-15 * (abs(ex) + abs(ey)):
        return None
    rx, ry = ax - o[0], ay - o[1]
    return (rx * ey - ry * ex) / den, (rx * u[1] - ry * u[0]) / den


class WindowSweep:
    """Exact sweep of a pencil of rays through the developed surface.

    ``roots`` are (chart, iso, ((lo, lo_open), (hi, hi_open))): iso maps the
    chart into the pencil's frame, and the rays with coordinates between the
    bounds start in that chart copy. A window is cut at the corners it sees,
    and each part leaves through one edge with just the rays crossing it, on
    convex and non-convex charts alike. Rays pass through non-singular corners
    and end at the first singular one, within ``tau_hit`` as the tracer snaps;
    iterating yields each as (point in the pencil's frame, depth, chart,
    vertex, iso of the chart copy). No edge beyond ``reach`` is crossed and no
    deeper corner yielded; the caller may lower it while iterating. Windows are
    visited nearest first, and more than the surface's ``unfolding_budget``
    raise UnfoldingBudgetExceeded.
    """

    def __init__(self, surface: ConeSurface, pencil, roots, reach: float):
        self.surface, self.pencil, self.roots, self.reach = surface, pencil, roots, reach
        self.windows = 0

    def __iter__(self):
        surface, tol = self.surface, self.surface.tolerances
        # ties in depth go by visit, then by part: the order the windows were made in
        heap = [(0.0, 0, k, c, iso, None, w) for k, (c, iso, w) in enumerate(self.roots)]
        while heap:
            depth, _, _, chart, iso, e_in, window = heapq.heappop(heap)
            if depth > self.reach + tol.tau_len:
                break
            self.windows += 1
            if self.windows > tol.unfolding_budget:
                raise UnfoldingBudgetExceeded(
                    f"window sweep exceeded {tol.unfolding_budget} windows "
                    f"at depth {depth:.6g} of reach {self.reach:.6g}")
            pts = [iso.apply(v) for v in surface.charts[chart]]
            hits, parts = self._cut(chart, pts, e_in, window)
            for d, i in hits:
                if d <= self.reach + tol.tau_len:
                    yield pts[i], d, chart, i, iso
            for k, (e, part) in enumerate(parts):
                depth = self.pencil.nearest(pts[e], pts[(e + 1) % len(pts)])
                if depth <= self.reach + tol.tau_len:
                    nb = surface.edge_lookup[(chart, e)]
                    heapq.heappush(heap, (depth, self.windows, k, nb.chart, iso.compose(nb.inv),
                                          nb.edge, part))

    def _cut(self, chart, pts, e_in, window):
        """The singular corners where the window's rays end in one chart copy,
        as (depth, vertex) in corner order, and its parts leaving through each
        edge, as (edge, window)."""
        surface, pencil, tol = self.surface, self.pencil, self.surface.tolerances
        tau, tau_exit = tol.tau_hit, tol.tau_exit
        inv_len = [row[4] for row in surface.geometry[chart].scalar_edges]
        edges = [(a[0], a[1], b[0] - a[0], b[1] - a[1]) for a, b in zip(pts, pts[1:] + pts[:1])]

        def cast(c, margin):
            # the ray at coordinate c, its entry depth, and the depth and edge of its
            # first crossing after that at least `margin` from the edge's ends
            o, u = pencil.ray(c)
            t0 = 0.0 if e_in is None else _ray_edge(o, u, edges[e_in])[0]
            after, t, edge = t0 + margin + tau_exit, math.inf, None
            for j, e in enumerate(edges):
                h = None if j == e_in else _ray_edge(o, u, e)
                if h and after < h[0] < t and margin * inv_len[j] <= h[1] <= 1 - margin * inv_len[j]:
                    t, edge = h[0], j
            return o, u, t0, t, edge

        def follow(group, bound):
            # the singular corner ending the ray through the group here, if any; a
            # ray on a window bound may run outside this copy, so that is checked too
            o, u, t0, block, _ = cast(group[0][0], tau)
            for _, d, i in sorted(group, key=lambda g: g[1]):
                if d <= t0 + tau:
                    continue
                mid = 0.5 * (t0 + d)
                if block < d - tau or bound and not point_in_polygon(
                        pts, (o[0] + mid * u[0], o[1] + mid * u[1]), tau):
                    return None
                if surface.corner_class[(chart, i)].singular:
                    return d, i
                t0 = d
            return None

        # the corners on each bound, and the clusters of corners strictly inside
        (lo, lo_open), (hi, hi_open) = window
        lo_ray, hi_ray = pencil.ray(lo), pencil.ray(hi)
        on_lo, on_hi, inside = [], [], []
        for i, p in enumerate(pts):
            c, d = pencil.locate(p)
            if d <= tau or e_in is not None and i in (e_in, (e_in + 1) % len(pts)):
                continue
            if _offset(lo_ray, p) <= tau:
                on_lo.append((c, d, i))
            elif _offset(hi_ray, p) <= tau:
                on_hi.append((c, d, i))
            elif lo < c < hi:
                inside.append((c, d, i))
        stops: list[list] = []
        for v in sorted(inside):
            if stops and _offset(pencil.ray(stops[-1][-1][0]), pts[v[2]]) <= tau:
                stops[-1].append(v)
            else:
                stops.append([v])

        lo_hit = not lo_open and on_lo and follow(on_lo, True)
        hi_hit = not hi_open and on_hi and follow(on_hi, True)
        hits = [h for h in (lo_hit, hi_hit) if h]
        lo_open, hi_open = lo_open or bool(lo_hit), hi_open or bool(hi_hit)
        cuts = [lo] + [g[0][0] for g in stops] + [hi]
        exits = [cast(0.5 * (a + b), 0.0)[4] for a, b in zip(cuts, cuts[1:])]
        parts, start = [], (lo, lo_open)
        for k, group in enumerate(stops):
            c = group[0][0]
            if h := follow(group, False):
                hits.append(h)
                parts.append((exits[k], (start, (c, True))))
                start = (c, True)
            elif exits[k] != exits[k + 1]:
                # the ray through a flat corner goes on with the lower part; where
                # that part's copies miss it, follow's inside check skips them
                parts.append((exits[k], (start, (c, False))))
                start = (c, True)
        parts.append((exits[-1], (start, (hi, hi_open))))
        # corner order keeps ties between images of one point stable
        hits.sort(key=lambda h: h[1])
        return hits, [(e, part) for e, part in parts if e is not None]


# -- the window sweep, a cast on each side of every hole ---------------------------------


class HoleCastSweep(_PackageWindowSweep):
    """The package's window sweep, joins included, whose cut casts an exit ray
    on each side of every hole: the sweep that keeps a hole without casts
    where no corner of the copy lies on its ray must yield the same hits and
    visit the same windows."""

    def _cut(self, chart, pts, e_in, window):
        """The package's ``WindowSweep._cut`` with a cast on each side of every
        hole, as before holes whose ray carries no corner were kept uncast."""
        surface, pencil, tol = self.surface, self.pencil, self.surface.tolerances
        tau, tau_exit = tol.tau_hit, tol.tau_exit
        # per edge: start, vector, the |u x e| below which a ray is parallel, 1/length
        edges = []
        for a, b, row in zip(pts, pts[1:] + pts[:1], surface.geometry[chart].scalar_edges):
            ex, ey = b[0] - a[0], b[1] - a[1]
            edges.append((a[0], a[1], ex, ey, 1e-15 * (abs(ex) + abs(ey)), row[4]))

        def cast(c, margin):
            # the ray at coordinate c, its entry depth, and the depth and edge of its
            # first crossing after that at least `margin` from the edge's ends; the
            # crossing o + t*u == a + s*e solved by Cramer's rule
            o, u = pencil.ray(c)
            (ox, oy), (ux, uy) = o, u
            if e_in is None:
                t0 = 0.0
            else:
                ax, ay, ex, ey, _, _ = edges[e_in]
                t0 = ((ax - ox) * ey - (ay - oy) * ex) / (ux * ey - uy * ex)
            after, t, edge = t0 + margin + tau_exit, math.inf, None
            for j, (ax, ay, ex, ey, flat, inv_len) in enumerate(edges):
                den = ux * ey - uy * ex
                if j == e_in or abs(den) <= flat:
                    continue
                rx, ry = ax - ox, ay - oy
                tj = (rx * ey - ry * ex) / den
                if after < tj < t and (margin * inv_len <= (rx * uy - ry * ux) / den
                                       <= 1 - margin * inv_len):
                    t, edge = tj, j
            return o, u, t0, t, edge

        def follow(group, bound):
            # the singular corner ending the ray through the group here, if any; a
            # ray on a window bound may run outside this copy, so that is checked too
            o, u, t0, block, _ = cast(group[0][0], tau)
            for _, d, i in sorted(group, key=lambda g: g[1]):
                if d <= t0 + tau:
                    continue
                mid = 0.5 * (t0 + d)
                if block < d - tau or bound and not point_in_polygon(
                        pts, (o[0] + mid * u[0], o[1] + mid * u[1]), tau):
                    return None
                if surface.corner_class[(chart, i)].singular:
                    return d, i
                t0 = d
            return None

        # the corners on each bound, and the clusters of corners strictly inside;
        # corners on a hole are ignored, like those on an open bound
        (lo, lo_open), (hi, hi_open), holes = window
        lo_ray, hi_ray = pencil.ray(lo), pencil.ray(hi)
        on_lo, on_hi, inside = [], [], []
        for i, p in enumerate(pts):
            c, d = pencil.locate(p)
            if d <= tau or e_in is not None and i in (e_in, (e_in + 1) % len(pts)):
                continue
            if _offset(lo_ray, p) <= tau:
                on_lo.append((c, d, i))
            elif _offset(hi_ray, p) <= tau:
                on_hi.append((c, d, i))
            elif lo < c < hi and not any(_offset(pencil.ray(h), p) <= tau for h in holes):
                inside.append((c, d, i))
        stops: list[list] = []
        for v in sorted(inside):
            if stops and _offset(pencil.ray(stops[-1][-1][0]), pts[v[2]]) <= tau:
                stops[-1].append(v)
            else:
                stops.append([v])

        lo_hit = not lo_open and on_lo and follow(on_lo, True)
        hi_hit = not hi_open and on_hi and follow(on_hi, True)
        hits = [h for h in (lo_hit, hi_hit) if h]
        lo_open, hi_open = lo_open or bool(lo_hit), hi_open or bool(hi_hit)
        # each hole and stop cuts the window; a hole is a stop whose ray has ended
        stops = [(g[0][0], g) for g in stops]
        if holes:
            stops = sorted(stops + [(h, None) for h in holes], key=lambda s: s[0])
        cuts = [lo] + [c for c, _ in stops] + [hi]
        exits = [cast(0.5 * (a + b), 0.0)[4] for a, b in zip(cuts, cuts[1:])]
        parts, start, kept = [], (lo, lo_open), []
        for k, (c, group) in enumerate(stops):
            hit = group and follow(group, False)
            if hit:
                hits.append(hit)
            ended = group is None or bool(hit)
            if exits[k] == exits[k + 1]:
                if ended:
                    kept.append(c)
            else:
                # the ray through a flat corner goes on with the lower part; where
                # that part's copies miss it, follow's inside check skips them
                parts.append((exits[k], [start, (c, ended), tuple(kept)]))
                start, kept = (c, True), []
        parts.append((exits[-1], [start, (hi, hi_open), tuple(kept)]))
        # corner order keeps ties between images of one point stable
        hits.sort(key=lambda h: h[1])
        return hits, [(e, part) for e, part in parts if e is not None]


def reference_sample_distances(surface: ConeSurface, k1: np.ndarray, xy1: np.ndarray,
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


def _reference_trace_positions(trace_result, ts: np.ndarray):
    """(codes, xy) at arclengths ``ts`` of one trace, from that trace's own
    segment arrays: start arclengths with the total, searched on their own."""
    segments = trace_result.segments
    lengths = [math.hypot(b[0] - a[0], b[1] - a[1]) for _, a, b in segments]
    bounds = np.concatenate([[0.0], np.cumsum(lengths)])
    p0 = np.array([a for _, a, _ in segments], dtype=float)
    p1 = np.array([b for _, _, b in segments], dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        dirs = (p1 - p0) / np.maximum(np.array(lengths)[:, None], 1e-300)
    codes = np.array([trace_result.chart_index[c] for c, _, _ in segments], dtype=np.int64)
    ts = np.asarray(ts, dtype=float)
    if ts.size and (ts.min() < -1e-9 or ts.max() > trace_result.total_length + 1e-9):
        raise InsufficientPath(
            f"arclength range [{ts.min():.6g}, {ts.max():.6g}] outside "
            f"[0, {trace_result.total_length:.6g}]")
    idx = np.clip(np.searchsorted(bounds, ts, side="right") - 1, 0, len(segments) - 1)
    rel = np.clip(ts - bounds[idx], 0.0, None)
    return codes[idx], p0[idx] + rel[:, None] * dirs[idx]


def reference_positions(path, ts):
    """(codes, xy) at parameters ``ts`` of a traced, two-sided, periodic or
    chain path, each trace located on its own: a two-sided path splits the
    samples between its forward and backward traces, and a chain locates
    each piece's samples in turn."""
    ts = np.asarray(ts, dtype=float)
    if hasattr(path, "forward"):
        codes, xy = np.empty(len(ts), dtype=np.int64), np.empty((len(ts), 2))
        pos = ts >= 0.0
        if pos.any():
            codes[pos], xy[pos] = _reference_trace_positions(path.forward, ts[pos])
        neg = ~pos
        if neg.any():
            codes[neg], xy[neg] = _reference_trace_positions(path.backward, -ts[neg])
        return codes, xy
    if hasattr(path, "core"):
        return _reference_trace_positions(path.core, np.mod(ts, path.core.total_length))
    if hasattr(path, "pg"):
        pieces = [p for link in path.pg.links for p in link.pieces]
        offsets = np.cumsum([0.0] + [p.total_length for p in pieces])
        ts = np.mod(ts, path.pg.total_length)
        idx = np.clip(np.searchsorted(offsets, ts, side="right") - 1, 0, len(pieces) - 1)
        codes, xy = np.empty(len(ts), dtype=np.int64), np.empty((len(ts), 2))
        for j, piece in enumerate(pieces):
            sel = idx == j
            if sel.any():
                local = np.minimum(ts[sel] - offsets[j], piece.total_length)
                codes[sel], xy[sel] = _reference_trace_positions(piece, local)
        return codes, xy
    return _reference_trace_positions(path, ts)


def reference_least_distances(surface: ConeSurface, target, window: float,
                              pairs: list) -> list[float]:
    """Per (path, anchor) pair, in order, its distance from ``target`` over
    (-window, window), or the first ring sum above the least value before it
    by a relative 1e-12. Each pair walks the doubling rings |t| <= 0.1, 0.2,
    ..., up to the whole grid, on its own: one ``reference_positions`` call
    and one kernel call per ring, its sum the trapezoid over the ring. The
    first pair, with nothing to beat, walks every ring. Raises the errors of
    ``geodesic_distance`` in pair order."""
    w0, w1 = -float(window), float(window)
    count = max(2, int(round((w1 - w0) / surface.tolerances.distance_step)) + 1)
    ts = np.linspace(w0, w1, count)
    weights = np.exp(-np.abs(ts))
    i0 = int(np.argmin(np.abs(ts)))
    k1, xy1 = reference_positions(target, ts + 0.0)
    diameter = sum(g.diameter for g in surface.geometry.values())
    rings, h = [], 0.1
    while rings[-1:] != [(0, count)]:
        ring = (min(int(np.searchsorted(ts, -h, side="left")), i0),
                max(int(np.searchsorted(ts, h, side="right")), i0 + 1))
        if ring not in rings[-1:]:
            rings.append(ring)
        h *= 2.0
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    out, least = [], math.inf
    for path, anchor in pairs:
        first, last = path.param_range()
        if anchor + w0 < first - 1e-9 or anchor + w1 > last + 1e-9:
            raise InsufficientPath(f"path2 covers [{first:.6g}, {last:.6g}] but the window "
                                   f"needs [{anchor + w0:.6g}, {anchor + w1:.6g}]")
        limit = least * (1.0 + 1e-12)
        for r, (lo, hi) in enumerate(rings):
            nodes = np.arange(lo, hi) if r == 0 else np.r_[lo:rings[r - 1][0],
                                                         rings[r - 1][1]:hi]
            k2, xy2 = reference_positions(path, ts[nodes] + anchor)
            new = tracer._sample_distances(surface, k1[nodes], xy1[nodes], k2, xy2,
                                           diameter) * weights[nodes]
            if r == 0:
                c1, c2 = surface.chart_names[k1[i0]], surface.chart_names[k2[i0 - lo]]
                if not surface.alignment_isos(c1, c2):
                    raise IncomparableTraces(
                        f"no chart alignment between {c1!r} and {c2!r} at time 0")
                terms = new
            else:
                cut = rings[r - 1][0] - lo
                terms = np.concatenate((new[:cut], terms, new[cut:]))
            value = float(trapezoid(terms, ts[lo:hi]))
            if value > limit:
                break
        least = min(least, value)
        out.append(value)
    return out


def subdivide_torus(k: int) -> ConeSurface:
    """The marked unit torus cut into k horizontal strips "r0".."r{k-1}" of
    height 1/k, in torus coordinates: strip i is [0, 1] x [i/k, (i+1)/k],
    glued to itself left to right and by its top to the bottom of the next
    strip (the last to "r0"). Only "r0"'s corner 0, the point (0, 0), is
    marked; the other strip corners are flat vertices."""
    polys = [(f"r{i}", [(0.0, i / k), (1.0, i / k), (1.0, (i + 1) / k), (0.0, (i + 1) / k)])
             for i in range(k)]
    gluings = [((f"r{i}", 1), (f"r{i}", 3)) for i in range(k)]
    gluings += [((f"r{i}", 2), (f"r{(i + 1) % k}", 0)) for i in range(k)]
    return build_surface(polys, gluings, marked=[("r0", 0)])


def apply_linear(surface: ConeSurface, g) -> ConeSurface:
    """The surface g.S for a 2 x 2 matrix g = ((a, b), (c, d)) of positive
    determinant: every chart's vertices mapped by g, with the same gluings,
    marked corners and tolerances, built by the package's ``build_surface``
    (chart names with '@', a cover's, allowed). On a translation or
    half-translation surface g.S is the affine image of S for every such g,
    and on any surface for a similarity c.R: saddle holonomies and cylinder
    circumference vectors map by g, and an element of S's Veech group gives
    a surface isometric to S."""
    (a, b), (c, d) = g
    polys = [(cid, [(a * x + b * y, c * x + d * y) for x, y in verts])
             for cid, verts in surface.charts.items()]
    return build_surface(polys, [(gl.a, gl.b) for gl in surface.gluings],
                         marked=surface.marked_corners, tolerances=surface.tolerances,
                         allow_sheet_ids=any("@" in cid for cid in surface.charts),
                         allow_disconnected=len(surface.components) > 1)
