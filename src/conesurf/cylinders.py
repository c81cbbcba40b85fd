"""Flat cylinders: closed geodesics, strip widths, and density approximation.

A closed regular geodesic sits inside a maximal flat cylinder. The core is
found by tracing until the trajectory revisits its own state; widths come from
developing the surface into the strip around the core and measuring the
nearest singular images on each side; the cylinder boundary decomposes into
saddle connections joining consecutive boundary witnesses. The density
experiment approximates a target geodesic by closed geodesics and closed
saddle-connection chains of bounded length.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NotClosed, TraceNumericalError, UnfoldingBudgetExceeded
from .geometry import Isometry, angle_of, normalize
from .saddles import (
    PiecewiseGeodesic,
    SaddleConnection,
    chain,
    enumerate_saddles,
    trace_connection,
)
from .surface import ConeSurface
from .tracer import (
    EVENT_CONE_HIT,
    EVENT_MAX_LENGTH,
    EVENT_SELF_RECURRENCE,
    PLAIN_TRACE_OPTIONS,
    GeodesicState,
    TraceOptions,
    TraceResult,
    develop,
    geodesic_distance,
    surface_point_distance,
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
    """

    x: float
    y: float
    class_id: str
    chart: str
    vertex: int


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
    bounding: dict = field(default_factory=dict)           # side -> [SaddleConnection]

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
    d = normalize(state.direction)
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


def _require_convex(surface: ConeSurface) -> None:
    for cid, geo in surface.geometry.items():
        v = geo.vertices
        n = len(v)
        for i in range(n):
            a, b, c = v[i], v[(i + 1) % n], v[(i + 2) % n]
            ab = (b[0] - a[0], b[1] - a[1])
            bc = (c[0] - b[0], c[1] - b[1])
            crz = ab[0] * bc[1] - ab[1] * bc[0]
            scale = math.hypot(*ab) * math.hypot(*bc)
            if crz < -1e-9 * scale:
                raise DomainError(
                    f"strip widths require convex charts; chart {cid!r} is "
                    f"reflex at vertex {(i + 1) % n}. Subdivide the chart first.")


def _interval_subtract(covered: list, lo: float, hi: float) -> list:
    """Parts of [lo, hi] not already covered (covered: sorted disjoint)."""
    parts = []
    cur = lo
    for a, b in covered:
        if b <= cur:
            continue
        if a >= hi:
            break
        if a > cur:
            parts.append((cur, min(a, hi)))
        cur = max(cur, b)
        if cur >= hi:
            break
    if cur < hi:
        parts.append((cur, hi))
    return parts


def _interval_add(covered: list, lo: float, hi: float) -> None:
    covered.append((lo, hi))
    covered.sort()
    merged = [covered[0]]
    for a, b in covered[1:]:
        la, lb = merged[-1]
        if a <= lb:
            merged[-1] = (la, max(lb, b))
        else:
            merged.append((a, b))
    covered[:] = merged


def _flood_up(surface: ConeSurface, roots, cap: float, root_guard: bool):
    """Develop the region vertically above the x axis reachable from the root
    intervals, crossing only upward through edges. Only points whose whole
    vertical segment down to the roots is singularity-free are reached, which
    is exactly the membership condition for the flat strip around the core.

    Returns (d, blockers): the minimum height of a singular image over the
    swept verticals (inf when none at height <= cap) and every singular image
    found at essentially that height, as (x, y, class_id, chart, vertex).
    """
    budget = surface.tolerances.unfolding_budget
    covered: dict = {}
    best = math.inf
    blockers: list = []
    seen_blk: set = set()
    queue = deque((c, iso, lo, hi, True) for c, iso, lo, hi in roots)
    cells = 0
    while queue:
        chart, iso, lo, hi, is_root = queue.popleft()
        if hi - lo <= 1e-12:
            continue
        key = (chart, iso.rounded_key())
        ivals = covered.setdefault(key, [])
        parts = _interval_subtract(ivals, lo, hi)
        if not parts:
            continue
        _interval_add(ivals, lo, hi)
        pts = iso.apply_array(surface.geometry[chart].vertices)
        n = len(pts)
        for plo, phi in parts:
            cells += 1
            if cells > budget:
                raise UnfoldingBudgetExceeded(f"strip development exceeded {budget} cells")
            for i in range(n):
                x, y = float(pts[i, 0]), float(pts[i, 1])
                if x < plo - 1e-9 or x > phi + 1e-9:
                    continue
                if not surface.corner_class[(chart, i)].singular:
                    continue
                if abs(y) <= 1e-12:
                    if is_root and root_guard:
                        raise NotClosed(
                            f"singular point on the core line at arclength "
                            f"{x:.6g}; not a regular closed geodesic")
                    continue
                if y < 0.0 or y > cap + 1e-9:
                    continue
                bkey = (round(x, 9), round(y, 9))
                if bkey in seen_blk:
                    continue
                seen_blk.add(bkey)
                blockers.append((x, y, surface.corner_class[(chart, i)].id,
                                 chart, i))
                best = min(best, y)
            for e in range(n):
                ax, ay = float(pts[e, 0]), float(pts[e, 1])
                bx, by = float(pts[(e + 1) % n, 0]), float(pts[(e + 1) % n, 1])
                if bx >= ax - 1e-12:       # upward-facing edges of a CCW chart
                    continue               # run right to left
                jlo, jhi = max(plo, bx), min(phi, ax)
                if jhi - jlo <= 1e-12:
                    continue
                y0 = ay + (jlo - ax) / (bx - ax) * (by - ay)
                y1 = ay + (jhi - ax) / (bx - ax) * (by - ay)
                if min(y0, y1) > min(best, cap) + 1e-8:
                    continue
                nb = surface.edge_lookup[(chart, e)]
                queue.append((nb.chart, iso.compose(nb.inv),
                              jlo, jhi, False))
    if best > cap:
        return math.inf, []
    keep = [b for b in blockers if b[1] <= best + 1e-9 * max(1.0, best)]
    return best, keep


def strip_width(surface: ConeSurface, core: TraceResult):
    """Distances from a closed geodesic to the nearest singular image on each
    side of its flat strip, with the witnesses realizing them.

    Develops the surface into the frame where the core runs along the x axis
    and flood-fills vertically from it, so only singular images genuinely
    inside the strip count. Requires convex charts. Returns
    (d_left, d_right, witnesses); a distance is math.inf when no singular
    image exists within the surface's ``w_max_factor`` times its max chart
    diameter.
    """
    tol = surface.tolerances
    _require_convex(surface)
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
    s = [0.0]
    for _, a, b in core.segments:
        s.append(s[-1] + math.hypot(b[0] - a[0], b[1] - a[1]))
    left_roots, right_roots = [], []
    for j, (cid, _, _) in enumerate(core.segments):
        iso = frame.compose(dev.isometries[j])
        left_roots.append((cid, iso, s[j], s[j + 1]))
        right_roots.append((cid, flip.compose(iso), -s[j + 1], -s[j]))

    d_l, blk_l = _flood_up(surface, left_roots, w_max, root_guard=True)
    d_r, blk_r = _flood_up(surface, right_roots, w_max, root_guard=False)

    def pack(blockers, sign):
        byx: dict = {}
        for x, y, cls, chart, vertex in blockers:
            xr = (sign * x) % circ
            if xr > circ - 1e-9:
                xr -= circ
            byx.setdefault((round(xr, 7), cls),
                           StripWitness(xr, sign * y, cls, chart, vertex))
        return sorted(byx.values(), key=lambda w: w.x)

    witnesses = {"left": pack(blk_l, +1.0), "right": pack(blk_r, -1.0)}
    return d_l, d_r, witnesses


def _boundary_saddles(surface: ConeSurface, core: TraceResult,
                      witnesses: list[StripWitness], circ: float) -> list[SaddleConnection]:
    """Certify the segments joining consecutive boundary witnesses.

    Each segment is reached from the core by a perpendicular offset to its
    midpoint; tracing backward from there identifies the starting corner in
    its own chart, and the connection is then certified end to end.
    """
    out = []
    n = len(witnesses)
    for i, wi in enumerate(witnesses):
        wn = witnesses[(i + 1) % n]
        dx = (wn.x - wi.x) if i + 1 < n else (wn.x + circ - wi.x)
        dy = abs(wn.y) - abs(wi.y)
        length = math.hypot(dx, dy)
        if length <= 1e-9:
            continue
        sc = None
        # sample the boundary segment part-way along; retry elsewhere when the
        # sample lands on a chart boundary or its perpendicular is blocked
        for f in (0.5, 0.57, 0.43, 0.63, 0.37, 0.69, 0.31):
            xm = (wi.x + dx * f) % circ
            u = math.copysign(abs(wi.y) + (abs(wn.y) - abs(wi.y)) * f, wi.y)
            try:
                mid = offset_state(surface, core.state_at(xm), u)
                back = trace(surface,
                             GeodesicState(mid.chart, mid.point,
                                           (-mid.direction[0], -mid.direction[1])),
                             length, options=PLAIN_TRACE_OPTIONS)
            except (DomainError, TraceNumericalError):
                continue
            if (back.termination != EVENT_CONE_HIT
                    or abs(back.total_length - length * f) > 1e-6 * max(1.0, length)):
                continue
            hit = back.events[-1].detail
            inc = hit["incoming"]
            sc = trace_connection(surface, (hit["chart"], hit["vertex"]),
                                  (-inc[0], -inc[1]), length, expected_end=wn.class_id)
            if sc is not None:
                break
        if sc is not None:
            out.append(sc)
    return out


def find_closed_geodesic(surface: ConeSurface, direction, start=None, *,
                         max_circumference: float | None = None,
                         allow_offset: bool = True,
                         compute_widths: bool = True) -> Cylinder | None:
    """Search for a closed regular geodesic in a given direction.

    Traces from the start point (default: centroid of the first chart) until
    self-recurrence, then certifies one period by re-tracing. When the launch
    runs into a cone point and offsets are allowed, retries from points moved
    perpendicular to the direction. Returns None when nothing closes within
    the circumference bound.
    """
    tol = surface.tolerances
    diam = surface.max_diameter
    if max_circumference is None:
        max_circumference = 128.0 * diam
    if start is None:
        cid = min(surface.charts)
        verts = surface.charts[cid]
        cx = sum(v[0] for v in verts) / len(verts)
        cy = sum(v[1] for v in verts) / len(verts)
        start = (cid, (cx, cy))
    chart, point = start
    d = normalize(direction)
    base_state = GeodesicState(chart, point, d)

    attempts = [base_state]
    if allow_offset:
        for f in _JIGGLE_FRACTIONS:
            try:
                attempts.append(offset_state(surface, base_state, f * diam))
            except DomainError:
                continue

    budget = 2.0 * max_circumference + 4.0 * diam
    for state in attempts:
        tr = trace(surface, state, budget, options=_CORE_OPTIONS)
        if tr.termination != EVENT_SELF_RECURRENCE or tr.recurrence is None:
            continue
        period = tr.recurrence["period"]
        if period > max_circumference + tol.tau_len:
            continue
        s0 = tr.state_at(tr.recurrence["matched_at"])
        core = trace(surface, s0, period, options=PLAIN_TRACE_OPTIONS)
        if core.termination == EVENT_CONE_HIT:
            continue
        gap = _state_gap(surface, s0, core.end_state)
        if gap > 100.0 * tol.tau_rec:
            continue
        cyl = Cylinder(core=core, circumference=core.total_length, start=s0,
                       direction=s0.direction, closure_error=gap)
        if compute_widths:
            d_l, d_r, wit = strip_width(surface, core)
            cyl.width_left, cyl.width_right = d_l, d_r
            cyl.witnesses = wit
            cyl.bounding = {
                side: _boundary_saddles(surface, core, wit[side], core.total_length)
                for side in ("left", "right")
            }
        return cyl
    return None


# -- closed paths used as approximants -------------------------------------------------


@dataclass
class PeriodicPath:
    """A closed geodesic traversed periodically; parameter 0 at the core start."""

    core: TraceResult

    @property
    def length(self) -> float:
        return self.core.total_length

    def param_range(self):
        return (-math.inf, math.inf)

    def positions(self, ts):
        """Chart codes and coordinates at the given parameters, taken modulo
        the circumference (path protocol)."""
        return self.core.positions(np.mod(np.asarray(ts, dtype=float),
                                          self.core.total_length))


@dataclass
class ChainPath:
    """A closed chain of saddle connections traversed periodically."""

    pg: PiecewiseGeodesic

    def __post_init__(self):
        if not self.pg.closed:
            raise DomainError("only closed chains can be traversed periodically")
        self.offsets = np.cumsum([0.0] + [l.length for l in self.pg.links])

    @property
    def length(self) -> float:
        return self.pg.total_length

    def param_range(self):
        return (-math.inf, math.inf)

    def positions(self, ts):
        """Chart codes and coordinates at the given parameters, taken modulo
        the chain length (path protocol)."""
        ts = np.mod(np.asarray(ts, dtype=float), self.pg.total_length)
        idx = np.clip(np.searchsorted(self.offsets, ts, side="right") - 1,
                      0, len(self.pg.links) - 1)
        codes = np.empty(len(ts), dtype=np.int64)
        xy = np.empty((len(ts), 2))
        for j, link in enumerate(self.pg.links):
            sel = idx == j
            if not sel.any():
                continue
            local = np.minimum(ts[sel] - self.offsets[j], link.path.total_length)
            codes[sel], xy[sel] = link.path.positions(local)
        return codes, xy


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
    """Chain parameter whose position is nearest to a (chart, xy) point."""
    ts = np.linspace(0.0, path.length, samples, endpoint=False)
    codes, xy = path.positions(ts)
    best_t, best_d = 0.0, math.inf
    for t, c, p in zip(ts, surface.chart_names[codes], xy):
        dist = surface_point_distance(surface, point, (c, (p[0], p[1])))
        if dist < best_d:
            best_d, best_t = dist, float(t)
    return best_t


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
    drops below eta.
    """
    tol = surface.tolerances
    lengths = [float(L) for L in lengths]
    if not lengths or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise DomainError("length bounds must be strictly increasing and non-empty")
    L_max = lengths[-1]
    diam = surface.max_diameter

    tgt = two_sided_trace(surface, target, window + 2.0 + 2.0 * diam,
                          options=PLAIN_TRACE_OPTIONS)
    for side, res in (("forward", tgt.forward), ("backward", tgt.backward)):
        if res.total_length < window:
            raise DomainError(
                f"target geodesic ends at a cone point {res.total_length:.6g} "
                f"along the {side} side; cannot compare over window {window}")

    connections: list[SaddleConnection] = []
    for vc in surface.singular_classes:
        connections.extend(enumerate_saddles(surface, vc.id, L_max))

    # closed geodesics through the target start, one per direction mod sign,
    # re-traced from the anchor so parameter 0 aligns with the target's
    cores = []
    for d in _inventory_directions(surface, target.chart, connections):
        cyl = find_closed_geodesic(surface, d, (target.chart, target.point),
                                   max_circumference=L_max, allow_offset=False,
                                   compute_widths=False)
        if cyl is None:
            continue
        anchored = trace(surface, GeodesicState(target.chart, target.point, d),
                         cyl.circumference, options=PLAIN_TRACE_OPTIONS)
        if (anchored.termination != EVENT_MAX_LENGTH
                or _state_gap(surface, anchored.start, anchored.end_state)
                > 100.0 * tol.tau_rec):
            continue
        label = f"closed[{d[0]:+.6f},{d[1]:+.6f}]"
        cores.append((cyl.circumference, "closed_geodesic", label,
                      PeriodicPath(anchored), 0.0))

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

    candidates = sorted(cores + chains, key=lambda c: (c[0], c[1], c[2]))
    cache: dict = {}
    rows = []
    for L in lengths:
        best = None
        for length, kind, label, path, anchor in candidates:
            if length > L + tol.tau_len:
                continue
            if label not in cache:
                cache[label] = geodesic_distance(surface, tgt, path, window,
                                                 anchor2=anchor).value
            dist = cache[label]
            if best is None or dist < best["distance"]:
                best = {"length_bound": L, "distance": dist, "kind": kind,
                        "label": label, "approximant_length": length}
        if best is None:
            best = {"length_bound": L, "distance": math.inf, "kind": None,
                    "label": None, "approximant_length": None}
        rows.append(best)

    dists = [r["distance"] for r in rows]
    monotone = all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    final = dists[-1]
    return DensityReport(
        rows=rows, passed=monotone and final < eta, eta=eta, window=window,
        target_start=target,
        inventory={"connections": len(connections), "closed_geodesics": len(cores),
                   "chains": len(chains), "chains_skipped": chains_skipped},
        final_distance=final)
