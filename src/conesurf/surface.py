"""Closed Euclidean cone surfaces assembled from edge-glued planar polygons.

A surface is a set of counterclockwise simple polygon charts plus a perfect
matching of their edges. Each gluing carries the unique orientation-preserving
rigid motion mapping one edge onto its partner with reversed traversal, so the
quotient is an oriented closed surface whose metric is flat away from the
identified polygon corners. Corner identifications are computed by walking
corner orbits; each orbit is a vertex class with a total cone angle and an
angular coordinate system used by the tracer to pass through or report hits.
"""

from __future__ import annotations

import heapq
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .config import Tolerances, DEFAULT_TOLERANCES
from .errors import (
    DisconnectedSurface,
    EdgeLengthMismatch,
    InvalidSurfaceSpec,
    NonSimplePolygon,
    OrientationError,
    UnfoldingBudgetExceeded,
    UnknownVertexClass,
    UnmatchedEdge,
)
from .geometry import (
    TWO_PI,
    Isometry,
    angle_of,
    ccw_angle,
    interior_angle,
    is_simple_polygon,
    norm,
    point_in_polygon,
    point_segment_distance,
    polygon_area,
)

EdgeRef = tuple[str, int]     # (chart id, edge index); edge i runs v[i] -> v[i+1]
CornerRef = tuple[str, int]   # (chart id, vertex index)

KIND_SMALL = "small"    # cone angle < 2*pi
KIND_MARKED = "marked"  # cone angle == 2*pi
KIND_LARGE = "large"    # cone angle > 2*pi


@dataclass(frozen=True)
class ChartGeometry:
    """Precomputed per-chart arrays used by the stepper."""

    vertices: np.ndarray      # (n, 2)
    edge_vectors: np.ndarray  # (n, 2), row i is v[i+1] - v[i]
    edge_lengths: np.ndarray  # (n,)
    diameter: float
    centroid: tuple[float, float]
    # per-edge (vx, vy, ex, ey, 1/len) as plain floats for the hot ray stepper
    scalar_edges: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        rows = tuple(
            (float(v[0]), float(v[1]), float(e[0]), float(e[1]),
             1.0 / float(l) if l > 0.0 else 1e300)
            for v, e, l in zip(self.vertices, self.edge_vectors, self.edge_lengths))
        object.__setattr__(self, "scalar_edges", rows)

    @property
    def n(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class EdgeNeighbor:
    """Resolved gluing as seen from one side."""

    chart: str           # neighbor chart id
    edge: int            # neighbor edge index
    iso: Isometry        # this chart's coords -> neighbor chart's coords
    gluing_index: int
    side: str            # 'a' or 'b': which side of the stored gluing we are
    inv: Isometry        # iso.inverse(): neighbor chart's coords -> this chart's


@dataclass(frozen=True)
class Gluing:
    a: EdgeRef
    b: EdgeRef
    iso: Isometry        # chart-of-a coords -> chart-of-b coords
    index: int


@dataclass(frozen=True)
class VertexClass:
    """One identified polygon corner: a cone point, marked point, or flat corner.

    ``members`` lists the corner orbit in counterclockwise rotational order
    around the point. ``offsets[k]`` is the angular coordinate at which member
    k's wedge begins; the wedge spans ``angles[k]`` and starts along the ray of
    edge ``members[k][1]`` (whose chart-frame direction angle is
    ``start_rays[k]``). Total cone angle is ``angle``.
    """

    id: str
    members: tuple[CornerRef, ...]
    angles: tuple[float, ...]
    offsets: tuple[float, ...]
    start_rays: tuple[float, ...]
    angle: float
    kind: str
    singular: bool

    def wedge_index(self, chart: str, vertex: int) -> int:
        try:
            return self.members.index((chart, vertex))
        except ValueError:
            raise UnknownVertexClass(
                f"corner ({chart}, {vertex}) is not in vertex class {self.id}") from None

    def cone_coordinate(self, chart: str, vertex: int, direction) -> float:
        """Angular coordinate of a chart-frame direction pointing out of this corner.

        ``direction`` must lie in the corner's wedge up to a small clamp.
        """
        k = self.wedge_index(chart, vertex)
        local = ccw_angle(self.start_rays[k], angle_of(direction))
        beta = self.angles[k]
        if local > beta:
            # tolerate directions a hair outside either boundary ray
            signed = local - TWO_PI if local > beta + (TWO_PI - beta) / 2.0 else local
            if signed < -1e-9 or signed > beta + 1e-9:
                raise ValueError(
                    f"direction not inside the wedge of corner ({chart}, {vertex})")
            local = min(max(signed, 0.0), beta)
        return self.offsets[k] + local

    def direction_at(self, t: float) -> tuple[str, int, tuple[float, float]]:
        """Chart corner and unit vector realizing angular coordinate t (mod angle)."""
        t = t % self.angle
        k = len(self.members) - 1
        for i in range(1, len(self.members)):
            if t < self.offsets[i]:
                k = i - 1
                break
        local = t - self.offsets[k]
        if local > self.angles[k]:
            local = self.angles[k]
        ang = self.start_rays[k] + local
        chart, vertex = self.members[k]
        return chart, vertex, (math.cos(ang), math.sin(ang))


@dataclass
class GaussBonnetReport:
    lhs: float       # sum over classes of (2*pi - angle)
    rhs: float       # 2*pi * euler characteristic
    residual: float  # |lhs - rhs|


class ConeSurface:
    """Immutable-by-convention assembled surface with derived lookup tables."""

    def __init__(self, charts, gluings, vertex_classes, euler_characteristic,
                 marked_corners, tolerances, components=()):
        self.charts: dict[str, tuple[tuple[float, float], ...]] = charts
        self.gluings: list[Gluing] = gluings
        self.vertex_classes: dict[str, VertexClass] = vertex_classes
        self.euler_characteristic: int = euler_characteristic
        self.marked_corners: tuple[CornerRef, ...] = marked_corners
        self.tolerances: Tolerances = tolerances
        self.components: tuple[frozenset[str], ...] = tuple(components)

        self.geometry: dict[str, ChartGeometry] = {
            cid: _chart_geometry(v) for cid, v in charts.items()}
        # chart codes: position in the sorted chart ids, as path samples report them
        self.chart_names: np.ndarray = np.array(sorted(charts), dtype=object)
        self.chart_names.flags.writeable = False
        self.chart_index: dict[str, int] = {c: k for k, c in enumerate(self.chart_names)}
        self.edge_lookup: dict[EdgeRef, EdgeNeighbor] = {}
        for g in gluings:
            back = g.iso.inverse()
            self.edge_lookup[g.a] = EdgeNeighbor(g.b[0], g.b[1], g.iso, g.index, "a", back)
            self.edge_lookup[g.b] = EdgeNeighbor(g.a[0], g.a[1], back, g.index, "b",
                                                 back.inverse())
        self.corner_class: dict[CornerRef, VertexClass] = {}
        for vc in vertex_classes.values():
            for corner in vc.members:
                self.corner_class[corner] = vc
        self.max_diameter: float = max(g.diameter for g in self.geometry.values())
        self._singular_images: dict[str, np.ndarray] = {}
        self._alignments: dict[str, dict[str, list[Isometry]]] = {}
        self._edge_table = None     # the tracer's lockstep table, built on its first fleet

    # -- queries ---------------------------------------------------------------

    def vertex_class(self, class_id: str) -> VertexClass:
        try:
            return self.vertex_classes[class_id]
        except KeyError:
            raise UnknownVertexClass(f"no vertex class named {class_id!r}") from None

    @property
    def singular_classes(self) -> list[VertexClass]:
        return [vc for vc in self.vertex_classes.values() if vc.singular]

    def singular_images(self, chart: str) -> np.ndarray:
        """Singular corner positions visible from this chart: own corners plus
        one ring of unfolded neighbors, in this chart's frame. (k, 2) array."""
        cached = self._singular_images.get(chart)
        if cached is not None:
            return cached
        dedup: dict[tuple[float, float], tuple[float, float]] = {}
        for _, c, iso in self.unfold(chart, max_level=1):
            geo = self.geometry[c]
            for i in range(geo.n):
                if self.corner_class[(c, i)].singular:
                    p = iso.apply(tuple(geo.vertices[i]))
                    dedup[(round(p[0], 12), round(p[1], 12))] = p
        arr = np.array(list(dedup.values()), dtype=float).reshape(-1, 2)
        self._singular_images[chart] = arr
        return arr

    def class_walk(self, class_id: str) -> list[tuple[int, str]]:
        """Gluing crossings stepping member k to member k+1 around a class.

        Returns one (gluing index, side) pair per member, in member order; the
        side is 'a' when the step crosses the gluing from its a-chart. The last
        entry closes the orbit back to member 0. Used to transport data (e.g.
        covering sheet labels) around a vertex class.
        """
        vc = self.vertex_class(class_id)
        steps = []
        for pos, (c, k) in enumerate(vc.members):
            nb = self.edge_lookup[(c, (k - 1) % self.geometry[c].n)]
            expected = vc.members[(pos + 1) % len(vc.members)]
            if (nb.chart, nb.edge) != expected:
                raise InvalidSurfaceSpec(
                    f"class walk of {class_id} is inconsistent at member ({c!r}, {k})")
            steps.append((nb.gluing_index, nb.side))
        return steps

    def unfold(self, root: str, max_level: int):
        """Develop the surface into ``root``'s frame, breadth-first, up to
        ``max_level`` gluing crossings.

        Yields (level, chart, iso) once per chart copy, deduplicated by
        (chart, iso.rounded_key()): iso maps the copy into root's frame and
        level counts gluing crossings from root.
        """
        ident = Isometry.identity()
        seen = {(root, ident.rounded_key())}
        frontier = [(root, ident)]
        level = 0
        while frontier:
            nxt = []
            for chart, iso in frontier:
                yield level, chart, iso
                if level == max_level:
                    continue
                for e in range(self.geometry[chart].n):
                    nb = self.edge_lookup[(chart, e)]
                    niso = iso.compose(nb.inv)
                    key = (nb.chart, niso.rounded_key())
                    if key not in seen:
                        seen.add(key)
                        nxt.append((nb.chart, niso))
            frontier = nxt
            level += 1

    def alignment_isos(self, c_from: str, c_to: str) -> list[Isometry]:
        """Isometries mapping c_to coords into c_from's frame, one per unfolded
        copy of c_to within two gluing crossings of c_from, in breadth-first
        order; empty when no copy is that close."""
        by_chart = self._alignments.get(c_from)
        if by_chart is None:
            by_chart = {}
            for _, chart, iso in self.unfold(c_from, max_level=2):
                by_chart.setdefault(chart, []).append(iso)
            self._alignments[c_from] = by_chart
        return by_chart.get(c_to, [])

    def __repr__(self):
        return (f"ConeSurface({len(self.charts)} charts, {len(self.gluings)} gluings, "
                f"{len(self.vertex_classes)} vertex classes, chi={self.euler_characteristic})")


# -- window sweep -------------------------------------------------------------------


class FanPencil:
    """Rays leaving ``source`` at the angles ``start + c``, c in [0, span]; c is
    taken in (span/2 - pi, span/2 + pi] so that a reflex wedge is one interval.
    A point's depth is its distance from the source."""

    def __init__(self, source, start: float, span: float):
        self.source, self.start, self.wrap = source, start, 0.5 * span + math.pi

    def locate(self, p):
        ux, uy = p[0] - self.source[0], p[1] - self.source[1]
        c = (math.atan2(uy, ux) - self.start) % TWO_PI
        return (c - TWO_PI if c > self.wrap else c), math.hypot(ux, uy)

    def ray(self, c):
        return self.source, (math.cos(self.start + c), math.sin(self.start + c))

    def nearest(self, a, b) -> float:
        return point_segment_distance(self.source, a, b)


class VerticalPencil:
    """Rays running straight up from the x axis: coordinate x, depth y."""

    def locate(self, p):
        return p[0], p[1]

    def ray(self, c):
        return (c, 0.0), (0.0, 1.0)

    def nearest(self, a, b) -> float:
        return min(a[1], b[1])


_iso_bits = struct.Struct("4d").pack   # a bitwise key: 0.0 and -0.0 differ


def _offset(ray, p) -> float:
    """Distance from p to a ray (origin, unit direction); inf behind the origin."""
    (ox, oy), (ux, uy) = ray
    rx, ry = p[0] - ox, p[1] - oy
    return abs(ux * ry - uy * rx) if ux * rx + uy * ry > 0.0 else math.inf


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

    A part that enters a chart copy through the same edge as a window still
    waiting, with a bitwise-equal isometry, joins that window when the two
    share a bound. The joined window is one ray interval plus holes: a bound
    open on both sides is a ray that ended at a hit, and the window is cut
    there and never follows it, so no ray behind a hit reports a longer
    connection. A hole cuts a window into parts only where a corner of the
    copy lies on its ray. A bound closed on either side (a ray through a flat
    corner, or between two root windows) is a live ray and becomes an
    ordinary one, followed once even where both windows followed it.
    Equal isometries place the chart at identical floats, so every corner,
    depth, hit and exit edge comes from the same numbers as in separate
    windows; copies that carry rounding merely join less. On a translation
    surface distinct copies of a chart differ by the holonomy of a loop, so
    the marked torus costs O(L^2) windows. Root windows never join and come
    first in heap order, which keeps a caller's first-found image of a point.
    """

    def __init__(self, surface: ConeSurface, pencil, roots, reach: float):
        self.surface, self.pencil, self.roots, self.reach = surface, pencil, roots, reach
        self.windows = 0

    def __iter__(self):
        surface, tol = self.surface, self.surface.tolerances
        # a window is [lo bound, hi bound, holes]; ties in depth go by visit, then by
        # part: the order the windows were made in
        heap = [(0.0, 0, k, c, iso, None, [lo, hi, ()], None)
                for k, (c, iso, (lo, hi)) in enumerate(self.roots)]
        waiting: dict[tuple, list] = {}   # (chart, entry edge, iso bits) -> window in the heap
        while heap:
            depth, _, _, chart, iso, e_in, window, key = heapq.heappop(heap)
            if depth > self.reach + tol.tau_len:
                break
            waiting.pop(key, None)
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
                    niso = iso.compose(nb.inv)
                    key = (nb.chart, nb.edge, _iso_bits(niso.c, niso.s, niso.tx, niso.ty))
                    window = waiting.get(key)
                    if window is not None and _join(window, *part):
                        continue
                    waiting[key] = window = part
                    heapq.heappush(heap, (depth, self.windows, k, nb.chart, niso, nb.edge,
                                          window, key))

    def _cut(self, chart, pts, e_in, window):
        """The singular corners where the window's rays end in one chart copy,
        as (depth, vertex) in corner order, and its parts leaving through each
        edge, as (edge, [lo bound, hi bound, holes]).

        An exit is cast midway between cuts. Within one copy a ray's exit
        edge changes only at a ray through a corner past its entry: elsewhere
        the edges it crosses, and their order along it, stay the same. The
        corners strictly inside the window are stops or lie on holes, so a
        hole with none within ``tau_hit`` of its ray has one exit on both
        sides and is kept in its part uncast; a window without holes casts as
        before."""
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
        # corners on a hole are ignored, like those on an open bound, and kept aside
        # (in a tuple, so that a window without holes allocates nothing for them)
        (lo, lo_open), (hi, hi_open), holes = window
        lo_ray, hi_ray = pencil.ray(lo), pencil.ray(hi)
        on_lo, on_hi, inside, on_holes = [], [], [], ()
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
            elif holes and lo < c < hi:
                on_holes += (p,)
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
            # a hole whose ray carries no corner has one exit on both sides: no cast
            plain = [g is None and not (on_holes and any(_offset(pencil.ray(c), p) <= tau
                                                         for p in on_holes))
                     for c, g in stops]
            cuts = [lo] + [c for (c, _), skip in zip(stops, plain) if not skip] + [hi]
            exits = [cast(0.5 * (a + b), 0.0)[4] for a, b in zip(cuts, cuts[1:])]
            for k, skip in enumerate(plain):
                if skip:
                    exits.insert(k + 1, exits[k])
        else:
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


def _join(window, lo, hi, holes) -> bool:
    """Add an interval's rays to a window that shares one of its bounds; a
    bound open on both sides becomes a hole. Whether it joined."""
    (w_lo, w_hi, w_holes) = window
    if w_hi[0] == lo[0]:
        window[1:] = hi, w_holes + ((lo[0],) if w_hi[1] and lo[1] else ()) + holes
    elif hi[0] == w_lo[0]:
        window[0], window[2] = lo, holes + ((hi[0],) if hi[1] and w_lo[1] else ()) + w_holes
    else:
        return False
    return True


def _chart_geometry(vertices) -> ChartGeometry:
    V = np.array(vertices, dtype=float)
    E = np.roll(V, -1, axis=0) - V
    lengths = np.sqrt((E * E).sum(axis=1))
    diffs = V[:, None, :] - V[None, :, :]
    diameter = float(np.sqrt((diffs * diffs).sum(axis=2)).max())
    centroid = (float(V[:, 0].mean()), float(V[:, 1].mean()))
    return ChartGeometry(V, E, lengths, diameter, centroid)


# -- assembly -------------------------------------------------------------------


def build_surface(polygons, gluings, marked=(), tolerances: Tolerances = DEFAULT_TOLERANCES,
                  *, allow_disconnected: bool = False,
                  allow_sheet_ids: bool = False) -> ConeSurface:
    """Assemble and validate a closed oriented cone surface.

    polygons: iterable of (chart_id, [(x, y), ...]) with counterclockwise simple
    vertex lists of length >= 3.
    gluings: iterable of ((chart_id, edge_idx), (chart_id, edge_idx)) covering
    every edge exactly once; glued edges must have equal length within tau_len.
    marked: corner references (chart_id, vertex_idx) whose vertex classes
    (necessarily of cone angle 2*pi) count as singular marked points.
    allow_disconnected / allow_sheet_ids: used when assembling covering spaces,
    whose charts are named 'base@sheet' and may fall into several components.
    """
    charts: dict[str, tuple[tuple[float, float], ...]] = {}
    for cid, vertices in polygons:
        cid = str(cid)
        if cid in charts:
            raise InvalidSurfaceSpec(f"duplicate chart id {cid!r}")
        if "@" in cid and not allow_sheet_ids:
            raise InvalidSurfaceSpec(f"chart id {cid!r} may not contain '@' (reserved for covers)")
        verts = tuple((float(x), float(y)) for x, y in vertices)
        if len(verts) < 3:
            raise NonSimplePolygon(f"chart {cid!r} has fewer than 3 vertices")
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in verts):
            raise InvalidSurfaceSpec(f"chart {cid!r} has non-finite coordinates")
        if not is_simple_polygon(verts):
            raise NonSimplePolygon(f"chart {cid!r} is not a simple polygon")
        if polygon_area(verts) <= 0.0:
            raise OrientationError(f"chart {cid!r} is not counterclockwise")
        charts[cid] = verts

    def check_ref(ref) -> EdgeRef:
        cid, idx = str(ref[0]), int(ref[1])
        if cid not in charts:
            raise InvalidSurfaceSpec(f"gluing references unknown chart {cid!r}")
        if not 0 <= idx < len(charts[cid]):
            raise InvalidSurfaceSpec(f"gluing references edge {idx} of chart {cid!r} "
                                     f"which has {len(charts[cid])} edges")
        return (cid, idx)

    built: list[Gluing] = []
    used: dict[EdgeRef, int] = {}
    for k, (ra, rb) in enumerate(gluings):
        a, b = check_ref(ra), check_ref(rb)
        if a == b:
            raise UnmatchedEdge(f"gluing {k} identifies edge {a} with itself")
        for ref in (a, b):
            if ref in used:
                raise UnmatchedEdge(f"edge {ref} appears in gluings {used[ref]} and {k}")
            used[ref] = k
        va, vb = charts[a[0]], charts[b[0]]
        a0, a1 = va[a[1]], va[(a[1] + 1) % len(va)]
        b0, b1 = vb[b[1]], vb[(b[1] + 1) % len(vb)]
        la = norm((a1[0] - a0[0], a1[1] - a0[1]))
        lb = norm((b1[0] - b0[0], b1[1] - b0[1]))
        if abs(la - lb) > tolerances.tau_len:
            raise EdgeLengthMismatch(
                f"glued edges {a} (length {la:.12g}) and {b} (length {lb:.12g}) "
                f"differ by {abs(la - lb):.3g} > tau_len={tolerances.tau_len:.3g}")
        # reversed traversal: a's start lands on b's end
        iso = Isometry.from_segments(a0, a1, b1, b0)
        built.append(Gluing(a, b, iso, k))

    for cid, verts in charts.items():
        for e in range(len(verts)):
            if (cid, e) not in used:
                raise UnmatchedEdge(f"edge ({cid!r}, {e}) is not glued")

    # connectivity of the chart adjacency graph
    components: list[frozenset[str]] = []
    if charts:
        adj: dict[str, set[str]] = {cid: set() for cid in charts}
        for g in built:
            adj[g.a[0]].add(g.b[0])
            adj[g.b[0]].add(g.a[0])
        unvisited = set(charts)
        while unvisited:
            first = min(unvisited)
            seen = {first}
            stack = [first]
            while stack:
                for nb in adj[stack.pop()]:
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            components.append(frozenset(seen))
            unvisited -= seen
        if len(components) > 1 and not allow_disconnected:
            raise DisconnectedSurface(
                f"the chart adjacency graph has {len(components)} components; "
                f"smallest: {sorted(min(components, key=len))}")

    edge_partner: dict[EdgeRef, EdgeRef] = {}
    for g in built:
        edge_partner[g.a] = g.b
        edge_partner[g.b] = g.a

    marked_corners = tuple((str(c), int(i)) for c, i in marked)
    for c, i in marked_corners:
        if c not in charts or not 0 <= i < len(charts[c]):
            raise InvalidSurfaceSpec(f"marked corner ({c!r}, {i}) does not exist")

    vertex_classes = _vertex_classes(charts, edge_partner, marked_corners, tolerances)

    n_classes = len(vertex_classes)
    chi = n_classes - len(built) + len(charts)
    return ConeSurface(charts, built, vertex_classes, chi, marked_corners, tolerances,
                       components=tuple(components))


def _vertex_classes(charts, edge_partner, marked_corners, tolerances) -> dict[str, VertexClass]:
    marked_set = set(marked_corners)
    visited: set[CornerRef] = set()
    classes: dict[str, VertexClass] = {}
    idx = 0
    for cid in charts:
        n = len(charts[cid])
        for i0 in range(n):
            if (cid, i0) in visited:
                continue
            # walk the corner orbit counterclockwise: from corner (c, k), cross
            # the edge arriving at the vertex (index k-1); reversed-traversal
            # gluing lands on the partner edge's start corner.
            orbit: list[CornerRef] = []
            c, k = cid, i0
            while True:
                orbit.append((c, k))
                visited.add((c, k))
                nb = edge_partner[(c, (k - 1) % len(charts[c]))]
                c, k = nb
                if (c, k) == (cid, i0):
                    break
                if (c, k) in visited:
                    raise InvalidSurfaceSpec(
                        f"corner orbit through ({cid!r}, {i0}) re-enters ({c!r}, {k}) "
                        "without closing; the gluing structure is inconsistent")
            angles = tuple(interior_angle(charts[c], k) for c, k in orbit)
            offsets = []
            acc = 0.0
            for b in angles:
                offsets.append(acc)
                acc += b
            theta = acc
            start_rays = []
            for c, k in orbit:
                v = charts[c][k]
                nxt = charts[c][(k + 1) % len(charts[c])]
                start_rays.append(angle_of((nxt[0] - v[0], nxt[1] - v[1])))
            if abs(theta - TWO_PI) <= tolerances.tau_angle:
                kind = KIND_MARKED
            elif theta < TWO_PI:
                kind = KIND_SMALL
            else:
                kind = KIND_LARGE
            singular = kind != KIND_MARKED or any(m in marked_set for m in orbit)
            vc = VertexClass(
                id=f"v{idx}", members=tuple(orbit), angles=angles,
                offsets=tuple(offsets), start_rays=tuple(start_rays),
                angle=theta, kind=kind, singular=singular)
            classes[vc.id] = vc
            idx += 1
    for c, i in marked_corners:
        vc = next(v for v in classes.values() if (c, i) in v.members)
        if vc.kind != KIND_MARKED:
            raise InvalidSurfaceSpec(
                f"marked corner ({c!r}, {i}) lies in class {vc.id} of angle "
                f"{vc.angle:.12g}, which is not 2*pi")
    return classes


# -- reports ----------------------------------------------------------------------


def validate_gauss_bonnet(surface: ConeSurface) -> GaussBonnetReport:
    """Combinatorial curvature check: sum of (2*pi - angle) against 2*pi*chi."""
    lhs = sum(TWO_PI - vc.angle for vc in surface.vertex_classes.values())
    rhs = TWO_PI * surface.euler_characteristic
    return GaussBonnetReport(lhs, rhs, abs(lhs - rhs))


def classify_singularities(surface: ConeSurface) -> dict[str, list[str]]:
    """Vertex-class ids bucketed by kind (angle-derived: small/marked/large)."""
    out: dict[str, list[str]] = {KIND_SMALL: [], KIND_MARKED: [], KIND_LARGE: []}
    for vc in surface.vertex_classes.values():
        out[vc.kind].append(vc.id)
    return out


# -- serialization -----------------------------------------------------------------


def surface_to_dict(surface: ConeSurface) -> dict:
    data = {
        "polygons": [{"id": cid, "vertices": [[x, y] for x, y in verts]}
                     for cid, verts in surface.charts.items()],
        "gluings": [{"a": [g.a[0], g.a[1]], "b": [g.b[0], g.b[1]]}
                    for g in surface.gluings],
    }
    if surface.marked_corners:
        data["marked"] = [[c, i] for c, i in surface.marked_corners]
    return data


def surface_from_dict(data: dict, tolerances: Tolerances = DEFAULT_TOLERANCES,
                      **build_kwargs) -> ConeSurface:
    try:
        polys = [(p["id"], p["vertices"]) for p in data["polygons"]]
        glus = [(tuple(g["a"]), tuple(g["b"])) for g in data["gluings"]]
    except (KeyError, TypeError) as exc:
        raise InvalidSurfaceSpec(f"malformed surface description: {exc}") from exc
    marked = [tuple(m) for m in data.get("marked", [])]
    # saved covers carry 'base@sheet' chart ids; accept them on reload
    build_kwargs.setdefault("allow_sheet_ids", True)
    return build_surface(polys, glus, marked, tolerances, **build_kwargs)


def save_surface(surface: ConeSurface, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(surface_to_dict(surface), fh, indent=2)
        fh.write("\n")


def load_surface(path, tolerances: Tolerances = DEFAULT_TOLERANCES) -> ConeSurface:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return surface_from_dict(data, tolerances)
