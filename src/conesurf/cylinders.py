"""Flat cylinders: closed geodesics, strip widths, and density approximation.

A closed regular geodesic sits inside a maximal flat cylinder. Closing a
direction takes two traces and one check on each: trace until the trajectory
revisits its own state, and ``_period`` reads the period off it; then trace
one period from a chosen state, and ``_closure`` checks that it returns
there. The cylinder search makes the two traces of one ray and certifies
from the matched state; the density experiment makes each kind as one fleet
over its directions and certifies from the target's point. Both run the
same two checks. Widths come from sweeping vertical rays out of the core
with the window sweep, on convex and non-convex charts, to the nearest
singular images. Each boundary is a chain of saddle connections joining
consecutive boundary witnesses: the sweep records the corner and chart copy
of every witness, so each connection is one trace from its starting
witness, made when ``Cylinder.bounding`` is first read. The density
experiment approximates a target geodesic by closed geodesics and closed
saddle-connection chains of bounded length.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, NotClosed, TraceNumericalError
from .geometry import Isometry, angle_of, interior_point, normalize
from .saddles import (
    PiecewiseGeodesic,
    SaddleConnection,
    chain,
    enumerate_saddles,
    trace_connection,
)
from .surface import ConeSurface, VerticalPencil, WindowSweep
from .tracer import (
    EVENT_MAX_LENGTH,
    EVENT_SELF_RECURRENCE,
    PLAIN_TRACE_OPTIONS,
    GeodesicState,
    TraceOptions,
    TraceResult,
    _least_distances,
    _sample_distances,
    _trace_fleet,
    _TracedPath,
    _unit,
    develop,
    trace,
    two_sided_trace,
)

_CORE_OPTIONS = TraceOptions(detect_recurrence=True, stop_on_recurrence=True,
                             record_min_distance=False)

# lateral launch offsets (fractions of the max chart diameter) tried when the
# initial trace runs into a cone point; irrational-ish values avoid re-hitting
# the same singular lines
_JIGGLE_FRACTIONS = (0.231, -0.231, 0.377, -0.377, 0.113, -0.113, 0.057, -0.057)


@dataclass(frozen=True)
class Quadrangle:
    """Isosceles strip neighborhood of a segment crossing a cylinder."""

    eps: float
    delta: float
    theta: float
    width: float
    length: float


def strip_quadrangle(eps: float, delta: float, theta: float) -> Quadrangle:
    """Dimensions of the strip capturing an eps-close crossing at angle theta.

    Requires 0 < eps <= delta and 0 < theta < pi/2. The width always exceeds
    delta + eps/2, so the strip strictly contains the comparison band.
    """
    if not (0.0 < eps <= delta) or not math.isfinite(delta):
        raise DomainError(f"need 0 < eps <= delta, got eps={eps}, delta={delta}")
    if not (0.0 < theta < math.pi / 2.0):
        raise DomainError(f"need 0 < theta < pi/2, got theta={theta}")
    return Quadrangle(eps=eps, delta=delta, theta=theta,
                      width=delta + eps / (2.0 * math.cos(theta)),
                      length=eps / (2.0 * math.sin(theta)))


@dataclass
class StripWitness:
    """A nearest singular image in the developed strip frame.

    x is the core arclength of the foot of the perpendicular, y the signed
    height (positive on the left of the core, negative on the right).
    ``inward`` is the unit vector, in the frame of ``chart``, pointing from the
    corner back down the perpendicular into the strip.
    """

    x: float
    y: float
    class_id: str
    chart: str
    vertex: int
    inward: tuple[float, float]


@dataclass
class Cylinder:
    core: TraceResult
    circumference: float
    start: GeodesicState            # canonical core start (on the core)
    direction: tuple[float, float]
    closure_error: float            # position+direction mismatch of the re-traced loop
    width_left: float | None = None   # math.inf when unbounded on that side
    width_right: float | None = None
    witnesses: dict = field(default_factory=dict)          # side -> [StripWitness]
    surface: ConeSurface | None = field(default=None, repr=False, compare=False)

    @cached_property
    def bounding(self) -> dict:
        """side -> [SaddleConnection]: the saddle connections joining each
        side's consecutive witnesses, traced on first read. A pair that does
        not certify raises TraceNumericalError on that read, and the next
        read traces again."""
        if self.surface is None and any(self.witnesses.values()):
            raise DomainError("a Cylinder with witnesses needs surface= to trace its bounding")
        return {side: _boundary_saddles(self.surface, self.witnesses[side],
                                        self.circumference, sign)
                for side, sign in (("left", 1.0), ("right", -1.0)) if side in self.witnesses}

    @property
    def unbounded(self) -> bool:
        return self.width_left == math.inf and self.width_right == math.inf

    @property
    def total_width(self) -> float | None:
        if self.width_left is None or self.width_right is None:
            return None
        return self.width_left + self.width_right


def _state_gap(surface: ConeSurface, a: GeodesicState, b: GeodesicState) -> float:
    """Position-plus-direction mismatch between states, minimized over chart
    alignments (a boundary point is the same surface point in either chart)."""
    best = math.inf
    for iso in surface.alignment_isos(a.chart, b.chart):
        q = iso.apply(b.point)
        u = iso.rotate(b.direction)
        gap = (math.hypot(a.point[0] - q[0], a.point[1] - q[1])
               + math.hypot(a.direction[0] - u[0], a.direction[1] - u[1]))
        best = min(best, gap)
    return best


def offset_state(surface: ConeSurface, state: GeodesicState, u: float) -> GeodesicState:
    """Translate a state perpendicular to its direction (u > 0 moves left),
    parallel-transporting the direction along the perpendicular geodesic."""
    d = _unit(state.direction)
    if u == 0.0:
        return GeodesicState(state.chart, state.point, d)
    n = (-d[1], d[0]) if u > 0.0 else (d[1], -d[0])
    tr = trace(surface, GeodesicState(state.chart, state.point, n), abs(u),
               options=PLAIN_TRACE_OPTIONS)
    if tr.termination != EVENT_MAX_LENGTH:
        raise DomainError(
            f"perpendicular offset by {u} blocked at arclength {tr.total_length:.6g} "
            f"({tr.termination})")
    e = tr.end_state
    if u > 0.0:
        d2 = (e.direction[1], -e.direction[0])
    else:
        d2 = (-e.direction[1], e.direction[0])
    return GeodesicState(e.chart, e.point, d2)


def strip_width(surface: ConeSurface, core: TraceResult):
    """Distances from a closed geodesic to the nearest singular image on each
    side of its flat strip, with the witnesses realizing them.

    In the frame where the core runs along the x axis, a WindowSweep sends
    vertical rays up from the core's developed segments, so only singular
    images genuinely inside the strip count, on convex and non-convex charts
    alike; the surface's ``unfolding_budget`` bounds each side's sweep.
    Returns (d_left, d_right, witnesses); a distance is math.inf when no
    singular image lies within ``w_max_factor`` times the max chart diameter.
    """
    tol = surface.tolerances
    seg0 = core.segments[0]
    d0 = normalize((seg0[2][0] - seg0[1][0], seg0[2][1] - seg0[1][1]))
    gap = _state_gap(surface, GeodesicState(seg0[0], seg0[1], d0), core.end_state)
    if gap > 100.0 * tol.tau_rec:
        raise NotClosed(f"trace does not return to its start state (gap {gap:.3g})")
    circ = core.total_length
    w_max = tol.w_max_factor * surface.max_diameter
    if not surface.singular_classes:
        return math.inf, math.inf, {"left": [], "right": []}

    p0 = seg0[1]
    phi = angle_of((seg0[2][0] - seg0[1][0], seg0[2][1] - seg0[1][1]))
    frame = Isometry(math.cos(phi), -math.sin(phi), 0.0, 0.0).compose(
        Isometry(1.0, 0.0, -p0[0], -p0[1]))
    flip = Isometry(-1.0, 0.0, 0.0, 0.0)   # rotation by pi: right side -> left

    dev = develop(core)
    _, s = core.arclength_table
    left_roots, right_roots = [], []
    for j, (cid, _, _) in enumerate(core.segments):
        if s[j + 1] - s[j] <= 1e-12:
            continue
        iso = frame.compose(dev.isometries[j])
        for i, (x, y) in enumerate(map(iso.apply, surface.charts[cid])):
            if (abs(y) <= 1e-12 and s[j] - 1e-9 <= x <= s[j + 1] + 1e-9
                    and surface.corner_class[(cid, i)].singular):
                raise NotClosed(f"singular point on the core line at arclength {x:.6g}; "
                                "not a regular closed geodesic")
        left_roots.append((cid, iso, ((s[j], False), (s[j + 1], False))))
        right_roots.append((cid, flip.compose(iso), ((-s[j + 1], False), (-s[j], False))))

    widths, witnesses = [], {}
    for side, sign, roots in (("left", 1.0, left_roots), ("right", -1.0, right_roots)):
        sweep = WindowSweep(surface, VerticalPencil(), roots, w_max)
        blockers = []
        for (x, y), _, chart, vertex, iso in sweep:
            blockers.append((x, y, chart, vertex, iso))
            sweep.reach = min(sweep.reach, y + 1e-9 * max(1.0, y))
        best = min((b[1] for b in blockers), default=math.inf)
        widths.append(best if best <= w_max else math.inf)
        byx: dict = {}
        for x, y, chart, vertex, iso in blockers:
            if y > min(best + 1e-9 * max(1.0, best), w_max):
                continue
            cls = surface.corner_class[(chart, vertex)].id
            xr = (sign * x) % circ
            if xr > circ - 1e-9:
                xr -= circ
            # the sweep ray runs up (0, 1) in the copy's frame; inward is its reverse
            byx.setdefault((round(xr, 7), cls), StripWitness(
                xr, sign * y, cls, chart, vertex, (-iso.s, -iso.c)))
        witnesses[side] = sorted(byx.values(), key=lambda w: w.x)
    return widths[0], widths[1], witnesses


def _boundary_saddles(surface: ConeSurface, witnesses: list[StripWitness], circ: float,
                      sign: float) -> list[SaddleConnection]:
    """The saddle connections joining consecutive boundary witnesses of one side
    (sign +1 on the left of the core, -1 on the right).

    The strip between a witness's inward ray and the straight segment to the
    next witness is flat, so the segment leaves the witness's cone coordinate
    turned from the inward one by pi/2 + atan2(dy, dx): counterclockwise on the
    left, clockwise on the right. One trace certifies each connection, and a
    pair that does not certify raises TraceNumericalError.
    """
    out = []
    n = len(witnesses)
    for i, wi in enumerate(witnesses):
        wn = witnesses[(i + 1) % n]
        dx = (wn.x - wi.x) if i + 1 < n else (wn.x + circ - wi.x)
        dy = abs(wn.y) - abs(wi.y)
        vc = surface.corner_class[(wi.chart, wi.vertex)]
        t = (vc.cone_coordinate(wi.chart, wi.vertex, wi.inward)
             + sign * (0.5 * math.pi + math.atan2(dy, dx)))
        chart, vertex, u = vc.direction_at(t)
        sc = trace_connection(surface, (chart, vertex), u, math.hypot(dx, dy),
                              expected_end=wn.class_id)
        if sc is None:
            raise TraceNumericalError(
                f"the boundary segment from {wi.class_id} at x={wi.x:.12g} to "
                f"{wn.class_id} at x={wn.x:.12g} does not trace as a saddle connection")
        out.append(sc)
    return out


def _recurrence_budget(surface: ConeSurface, max_circumference: float) -> float:
    return 2.0 * max_circumference + 4.0 * surface.max_diameter


def _period(surface: ConeSurface, tr: TraceResult, max_circumference: float) -> float | None:
    """The first closing check: the period of a trace to recurrence, or None
    when it does not recur or its period exceeds the bound."""
    if tr.termination != EVENT_SELF_RECURRENCE or tr.recurrence is None:
        return None
    period = tr.recurrence["period"]
    if period > max_circumference + surface.tolerances.tau_len:
        return None
    return period


def _closure(surface: ConeSurface, state: GeodesicState,
             core: TraceResult) -> tuple[TraceResult, float] | None:
    """The second closing check: the core traced one period from ``state``
    and its gap back to the state, or None when it meets a cone point or
    does not return there."""
    if core.termination != EVENT_MAX_LENGTH:
        return None
    gap = _state_gap(surface, state, core.end_state)
    if gap > 100.0 * surface.tolerances.tau_rec:
        return None
    return core, gap


def _closed_cores(surface: ConeSurface, chart: str, point, directions: list,
                  max_circumference: float) -> list:
    """Per direction, the core of one period from (chart, point), or None
    where the direction does not close: the checks of
    ``find_closed_geodesic``, ``_period`` on a trace to recurrence along the
    normalized direction, then ``_closure`` on one period along the
    direction itself, each kind of trace one fleet (``tracer._trace_fleet``).
    An error raises where a loop over the directions would meet it first."""
    launches = [GeodesicState(chart, point, normalize(d)) for d in directions]
    budget = _recurrence_budget(surface, max_circumference)
    periods = []
    for tr in _trace_fleet(surface, launches, [budget] * len(launches), _CORE_OPTIONS):
        if isinstance(tr, Exception):
            error = tr
            break
        periods.append(_period(surface, tr, max_circumference))
    else:
        error = None
    states = [GeodesicState(chart, point, d) for d in directions]
    closing = [(state, period) for state, period in zip(states, periods) if period is not None]
    cores = iter(_trace_fleet(surface, [state for state, _ in closing],
                              [period for _, period in closing]))
    out = []
    for state, period in zip(states, periods):
        core = None if period is None else next(cores)
        if isinstance(core, Exception):
            raise core
        closed = None if core is None else _closure(surface, state, core)
        out.append(None if closed is None else closed[0])
    if error is not None:
        raise error
    return out


def find_closed_geodesic(surface: ConeSurface, direction, start=None, *,
                         max_circumference: float | None = None) -> Cylinder | None:
    """Search for a closed regular geodesic in a given direction, with its
    strip widths and boundary witnesses; its bounding saddle connections are
    traced from the witnesses when ``Cylinder.bounding`` is first read.

    The circumference bound must be positive and finite, or DomainError is
    raised before any trace, and a zero or non-finite direction raises
    ZeroDirection there. Traces from the start point (default: a point
    inside the first chart) until self-recurrence (``_period``), then
    certifies one period by re-tracing it from the matched state, which
    becomes the core's start (``_closure``); ``closure_error`` is the gap
    between that state and the re-trace's end.
    When the launch runs into a cone point, retries from points moved
    perpendicular to the direction, each built only when the launch before it
    failed, so an offset trace that raises an error other than DomainError
    raises only when its launch is needed. Returns None when nothing closes
    within the circumference bound.
    """
    if max_circumference is None:
        max_circumference = 128.0 * surface.max_diameter
    if not (math.isfinite(max_circumference) and max_circumference > 0.0):
        raise DomainError(
            f"max_circumference must be positive and finite, got {max_circumference}")
    if start is None:
        cid = min(surface.charts)
        start = (cid, interior_point(surface.charts[cid]))
    chart, point = start
    base = GeodesicState(chart, point, _unit(direction))
    budget = _recurrence_budget(surface, max_circumference)
    for f in (0.0,) + _JIGGLE_FRACTIONS:
        try:
            state = offset_state(surface, base, f * surface.max_diameter) if f else base
        except DomainError:
            continue
        tr = trace(surface, state, budget, options=_CORE_OPTIONS)
        period = _period(surface, tr, max_circumference)
        if period is None:
            continue
        matched = tr.state_at(tr.recurrence["matched_at"])
        closed = _closure(surface, matched,
                          trace(surface, matched, period, options=PLAIN_TRACE_OPTIONS))
        if closed is None:
            continue
        core, gap = closed
        cyl = Cylinder(core=core, circumference=core.total_length, start=matched,
                       direction=matched.direction, closure_error=gap, surface=surface)
        cyl.width_left, cyl.width_right, cyl.witnesses = strip_width(surface, cyl.core)
        return cyl
    return None


# -- closed paths used as approximants -------------------------------------------------


@dataclass
class PeriodicPath(_TracedPath):
    """A closed geodesic traversed periodically; parameter 0 at the core start."""

    core: TraceResult

    @property
    def length(self) -> float:
        return self.core.total_length

    def param_range(self):
        return (-math.inf, math.inf)

    @property
    def traces(self) -> tuple:
        return (self.core,)

    def arclengths(self, ts):
        """Parameters taken modulo the circumference."""
        ts = np.mod(np.asarray(ts, dtype=float), self.core.total_length)
        return ts, np.zeros(len(ts), dtype=np.int64)


@dataclass
class ChainPath(_TracedPath):
    """A closed chain of saddle connections traversed periodically, piece by
    piece: a generalized link runs through its pieces in turn."""

    pg: PiecewiseGeodesic

    def __post_init__(self):
        if not self.pg.closed:
            raise DomainError("only closed chains can be traversed periodically")
        self.traces = tuple(p for l in self.pg.links for p in l.pieces)
        self.offsets = np.cumsum([0.0] + [p.total_length for p in self.traces])
        self.lengths = np.array([p.total_length for p in self.traces])

    @property
    def length(self) -> float:
        return self.pg.total_length

    def param_range(self):
        return (-math.inf, math.inf)

    def arclengths(self, ts):
        """Parameters taken modulo the chain length, each on its piece."""
        ts = np.mod(np.asarray(ts, dtype=float), self.pg.total_length)
        idx = np.clip(np.searchsorted(self.offsets, ts, side="right") - 1,
                      0, len(self.traces) - 1)
        return np.minimum(ts - self.offsets[idx], self.lengths[idx]), idx


# -- density experiment ----------------------------------------------------------------


@dataclass
class DensityReport:
    rows: list                      # one dict per length bound
    passed: bool
    eta: float
    window: float
    target_start: GeodesicState
    inventory: dict                 # sizes and skip notes
    final_distance: float


def _anchor_on_chain(surface: ConeSurface, path: ChainPath, point, samples: int = 128) -> float:
    """Chain parameter whose position is nearest to a (chart, xy) point: the
    first of ``samples`` equally spaced parameters at the least distance, 0.0
    when no sample's chart aligns with the point's."""
    ts = np.linspace(0.0, path.length, samples, endpoint=False)
    codes, xy = path.positions(ts)
    chart, p = point
    dists = _sample_distances(surface, np.full(samples, surface.chart_index[chart]),
                              np.broadcast_to(np.asarray(p, dtype=float), (samples, 2)),
                              codes, xy, math.inf)
    return float(ts[int(np.argmin(dists))])


def _inventory_directions(surface: ConeSurface, anchor_chart: str,
                          connections: list[SaddleConnection]) -> list[tuple[float, float]]:
    """Saddle directions expressed in the anchor chart, deduplicated mod sign."""
    seen = set()
    out = []
    for sc in connections:
        root = sc.start_corner[0]
        if root == anchor_chart:
            cands = [sc.direction]
        else:
            cands = [iso.rotate(sc.direction)
                     for iso in surface.alignment_isos(anchor_chart, root)]
        for d in cands:
            if d[1] < 0.0 or (d[1] == 0.0 and d[0] < 0.0):
                d = (-d[0], -d[1])
            key = (round(d[0], 9), round(d[1], 9))
            if key not in seen:
                seen.add(key)
                out.append(d)
    return out


def density_experiment(surface: ConeSurface, target: GeodesicState, lengths, *,
                       window: float = 5.0, eta: float = 0.05,
                       chain_budget: int = 200) -> DensityReport:
    """Approximate a geodesic by closed geodesics and chains of bounded length.

    For each length bound L, evaluates the exponentially weighted distance
    between the target (extended both ways from its start state) and every
    closed approximant of length <= L: closed regular geodesics launched from
    the target's start point in each saddle direction, plus closed chains of
    one or two connections when the connection inventory is small enough.
    Passes when the best distance is non-increasing in L and the final value
    drops below eta. Length bounds and the window must be finite and
    positive, eta finite and ``chain_budget`` a non-negative integer;
    otherwise DomainError is raised before any tracing.

    Candidates are taken in order of length, and each row reports the first
    least distance among those within its bound. ``tracer._least_distances``
    measures each label's first candidate, or rules it out at a partial sum
    above the best distance before it, so the rows, labels and tie order
    equal those of evaluating every candidate in full; each candidate's
    checks, those of ``geodesic_distance``, run in candidate order.
    """
    tol = surface.tolerances
    lengths = [float(L) for L in lengths]
    if not all(math.isfinite(L) and L > 0.0 for L in lengths):
        raise DomainError(f"length bounds must be finite and positive, got {lengths}")
    if not lengths or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise DomainError("length bounds must be strictly increasing and non-empty")
    if not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta}")
    if not (math.isfinite(window) and window > 0.0):
        raise DomainError(f"window must be finite and positive, got {window}")
    if (isinstance(chain_budget, bool) or not isinstance(chain_budget, (int, np.integer))
            or chain_budget < 0):
        raise DomainError(f"chain_budget must be a non-negative integer, got {chain_budget!r}")
    L_max = lengths[-1]
    diam = surface.max_diameter

    tgt = two_sided_trace(surface, target, window + 2.0 + 2.0 * diam)
    for side, res in (("forward", tgt.forward), ("backward", tgt.backward)):
        if res.total_length < window:
            raise DomainError(
                f"target geodesic ends at a cone point {res.total_length:.6g} "
                f"along the {side} side; cannot compare over window {window}")

    connections: list[SaddleConnection] = []
    for vc in surface.singular_classes:
        connections.extend(enumerate_saddles(surface, vc.id, L_max))

    # closed geodesics through the target start, one per direction mod sign,
    # certified from the anchor so parameter 0 aligns with the target's
    cores = []
    directions = _inventory_directions(surface, target.chart, connections)
    for d, core in zip(directions, _closed_cores(surface, target.chart, target.point,
                                                 directions, L_max)):
        if core is not None:
            cores.append((core.total_length, "closed_geodesic",
                          f"closed[{d[0]:+.6f},{d[1]:+.6f}]", PeriodicPath(core), 0.0))

    # closed chains of one or two connections
    chains = []
    chains_skipped = len(connections) > chain_budget
    if not chains_skipped:
        pool = []
        for sc in connections:
            if sc.start == sc.end:
                pool.append((sc,))
        for a in connections:
            for b in connections:
                if a is not b and a.end == b.start and b.end == a.start:
                    pool.append((a, b))
        seen = set()
        for links in pool:
            key = frozenset((l.start, round(l.length, 9), round(l.angle, 9))
                            for l in links)
            if key in seen:
                continue
            seen.add(key)
            pg = chain(surface, links)
            path = ChainPath(pg)
            anchor = _anchor_on_chain(surface, path, (target.chart, target.point))
            label = "chain[" + "+".join(f"{l.start}>{l.end}:{l.length:.4f}"
                                        for l in links) + "]"
            chains.append((pg.total_length, "chain", label, path, anchor))

    # candidates within a bound form a prefix of this order, and each row
    # reports the first least distance of its prefix
    candidates = sorted(cores + chains, key=lambda c: (c[0], c[1], c[2]))
    sorted_lengths = [c[0] for c in candidates]
    cuts = [bisect.bisect_right(sorted_lengths, L + tol.tau_len) for L in lengths]
    todo = candidates[:cuts[-1]]
    pairs: dict = {}    # label -> the (path, anchor) of its first candidate
    for _, _, label, path, anchor in todo:
        pairs.setdefault(label, (path, anchor))
    # label -> its distance, or a ring sum above the best before it
    known = dict(zip(pairs, _least_distances(surface, tgt, window, list(pairs.values()))))
    best = None
    prefix_best = [None]
    for length, kind, label, _, _ in todo:
        if best is None or known[label] < best[0]:
            best = (known[label], kind, label, length)
        prefix_best.append(best)
    rows = []
    for L, cut in zip(lengths, cuts):
        dist, kind, label, length = prefix_best[cut] or (math.inf, None, None, None)
        rows.append({"length_bound": L, "distance": dist, "kind": kind,
                     "label": label, "approximant_length": length})

    dists = [r["distance"] for r in rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    final = dists[-1]
    return DensityReport(
        rows=rows, passed=monotone and final < eta, eta=eta, window=window,
        target_start=target,
        inventory={"connections": len(connections), "closed_geodesics": len(cores),
                   "chains": len(chains), "chains_skipped": chains_skipped},
        final_distance=final)
