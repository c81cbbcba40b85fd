"""Branched covers of cone surfaces assembled from sheet-permutation data.

A cover of degree ``d`` keeps ``d`` congruent copies ("sheets") of every
chart.  Each gluing of the base carries a permutation of ``{1..d}``: crossing
the gluing from its a-side moves sheet ``s`` to ``sigma(s)``, crossing back
applies the inverse.  Going once around a vertex class composes these
transitions into the class's monodromy permutation; each cycle of length k
yields one cover vertex class of angle ``k * theta`` (a branch point when
k > 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    BranchPointOnPath,
    InvalidPermutation,
    NoSmallSingularities,
    SearchBudgetExceeded,
    TraceNumericalError,
)
from .geometry import TWO_PI
from .surface import KIND_SMALL, ConeSurface, build_surface
from .tracer import (
    EVENT_CONE_HIT,
    PLAIN_TRACE_OPTIONS,
    GeodesicState,
    TraceResult,
    trace,
)


def sheet_chart(chart: str, sheet: int) -> str:
    """Cover chart id for a base chart on a given sheet."""
    return f"{chart}@{sheet}"


def split_sheet(chart: str) -> tuple[str, int]:
    """Inverse of sheet_chart; raises ValueError on a non-cover chart id."""
    base, sep, tail = chart.rpartition("@")
    if not sep:
        raise ValueError(f"chart id {chart!r} carries no sheet suffix")
    return base, int(tail)


def _identity(degree: int) -> tuple[int, ...]:
    return tuple(range(1, degree + 1))


def _check_permutation(perm, degree: int, where: str) -> tuple[int, ...]:
    perm = tuple(int(v) for v in perm)
    if len(perm) != degree or sorted(perm) != list(range(1, degree + 1)):
        raise InvalidPermutation(
            f"{where}: {perm} is not a permutation of 1..{degree} in one-line notation")
    return perm


def _invert(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v - 1] = i + 1
    return tuple(inv)


def _walk_monodromy(steps, permutation, degree: int) -> tuple[int, ...]:
    """Sheet reached from each sheet along (gluing, side) steps; a b-side step inverts."""
    sheets = range(1, degree + 1)
    for gidx, side in steps:
        perm = permutation(gidx)
        if side != "a":
            perm = _invert(perm)
        sheets = [perm[s - 1] for s in sheets]
    return tuple(sheets)


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    cycles = []
    for s in range(1, len(perm) + 1):
        if seen[s - 1]:
            continue
        n, cur = 0, s
        while not seen[cur - 1]:
            seen[cur - 1] = True
            cur = perm[cur - 1]
            n += 1
        cycles.append(n)
    return tuple(sorted(cycles, reverse=True))


@dataclass(frozen=True)
class CoverSpec:
    """Degree plus one sheet permutation per gluing (identity when absent).

    Permutations are written in one-line notation on ``{1..degree}``: entry i
    is the image of sheet i when the gluing is crossed from its a-side.
    """

    degree: int
    edge_permutations: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def permutation(self, gluing_index: int) -> tuple[int, ...]:
        perm = self.edge_permutations.get(gluing_index)
        return _identity(self.degree) if perm is None else tuple(perm)

    def validated(self, base: ConeSurface) -> "CoverSpec":
        if int(self.degree) < 1:
            raise InvalidPermutation(f"cover degree must be >= 1, got {self.degree}")
        cleaned = {}
        for idx, perm in self.edge_permutations.items():
            idx = int(idx)
            if not 0 <= idx < len(base.gluings):
                raise InvalidPermutation(
                    f"edge permutation refers to gluing {idx}, but the surface "
                    f"has {len(base.gluings)} gluings")
            cleaned[idx] = _check_permutation(perm, int(self.degree), f"gluing {idx}")
        return CoverSpec(int(self.degree), cleaned)


@dataclass
class BranchReport:
    """Monodromy and topology summary of a built cover."""

    degree: int
    base_chi: int
    cover_chi: int
    connected: bool
    components: int
    base_classes: dict[str, dict]   # id -> {monodromy, cycle_type, angle}
    cover_classes: dict[str, dict]  # id -> {base_class, local_degree, angle}

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "base_chi": self.base_chi,
            "cover_chi": self.cover_chi,
            "connected": self.connected,
            "components": self.components,
            "base_classes": {k: dict(v) for k, v in sorted(self.base_classes.items())},
            "cover_classes": {k: dict(v) for k, v in sorted(self.cover_classes.items())},
        }


def class_monodromy(base: ConeSurface, spec: CoverSpec, class_id: str) -> tuple[int, ...]:
    """Sheet permutation accumulated by one full walk around a vertex class.

    The walk starts at member 0 and applies each gluing crossing in member
    order (a-side forward, b-side inverse); entry s of the result is the sheet
    on which the walk ends when it starts on sheet s.
    """
    return _walk_monodromy(base.class_walk(class_id), spec.permutation, spec.degree)


def default_odd_degree(surface: ConeSurface) -> int:
    """Smallest odd degree whose total branching pushes every small cone angle
    past a full turn (d * theta > 2 pi)."""
    small = [vc.angle for vc in surface.vertex_classes.values() if vc.kind == KIND_SMALL]
    if not small:
        raise NoSmallSingularities(
            "the surface has no cone angle below 2*pi; no branching is needed")
    theta_min = min(small)
    d = 3
    while d * theta_min <= TWO_PI:
        d += 2
    return d


def build_cover(base: ConeSurface, spec: CoverSpec) -> tuple[ConeSurface, BranchReport]:
    """Assemble the degree-d cover described by ``spec``.

    Returns the cover surface, which carries the base's tolerances, plus a
    BranchReport.  Disconnected covers are allowed and flagged in the report,
    not rejected.
    """
    spec = spec.validated(base)
    d = spec.degree

    polygons = [(sheet_chart(cid, s), verts)
                for cid, verts in base.charts.items()
                for s in range(1, d + 1)]
    gluings = []
    for g in base.gluings:
        perm = spec.permutation(g.index)
        for s in range(1, d + 1):
            gluings.append(((sheet_chart(g.a[0], s), g.a[1]),
                            (sheet_chart(g.b[0], perm[s - 1]), g.b[1])))

    # First pass resolves the cover's corner orbits; marked points are then
    # lifted onto the unbranched (local degree 1) preimages and the surface is
    # rebuilt so those classes count as singular.
    cover = build_surface(polygons, gluings, marked=(), tolerances=base.tolerances,
                          allow_disconnected=True, allow_sheet_ids=True)
    base_marked = {base.corner_class[c].id for c in base.marked_corners}
    cover_marked = []
    cover_info: dict[str, dict] = {}
    for cvc in cover.vertex_classes.values():
        chart, vtx = cvc.members[0]
        base_chart, _ = split_sheet(chart)
        bvc = base.corner_class[(base_chart, vtx)]
        local = len(cvc.members) // len(bvc.members)
        if len(cvc.members) != local * len(bvc.members):
            raise TraceNumericalError(
                f"cover class {cvc.id} has {len(cvc.members)} corners over "
                f"{bvc.id} with {len(bvc.members)}; sheet transitions are inconsistent")
        cover_info[cvc.id] = {"base_class": bvc.id, "local_degree": local,
                              "angle": local * bvc.angle}
        if bvc.id in base_marked and local == 1:
            cover_marked.append(cvc.members[0])
    if cover_marked:
        cover = build_surface(polygons, gluings, marked=cover_marked,
                              tolerances=base.tolerances,
                              allow_disconnected=True, allow_sheet_ids=True)

    base_info: dict[str, dict] = {}
    for bvc in base.vertex_classes.values():
        mono = class_monodromy(base, spec, bvc.id)
        ctype = _cycle_type(mono)
        if sum(ctype) != d:
            raise InvalidPermutation(
                f"cycle type {ctype} at class {bvc.id} does not partition degree {d}")
        base_info[bvc.id] = {"monodromy": mono, "cycle_type": ctype, "angle": bvc.angle}

    report = BranchReport(
        degree=d,
        base_chi=base.euler_characteristic,
        cover_chi=cover.euler_characteristic,
        connected=len(cover.components) <= 1,
        components=len(cover.components),
        base_classes=base_info,
        cover_classes=cover_info,
    )
    return cover, report


def riemann_hurwitz_check(base: ConeSurface, cover: ConeSurface,
                          report: BranchReport) -> int:
    """|chi(cover) - d*chi(base) + sum (local degree - 1)|; 0 for a sound build."""
    excess = sum(info["local_degree"] - 1 for info in report.cover_classes.values())
    return abs(cover.euler_characteristic
               - report.degree * base.euler_characteristic + excess)


def lift_trace(cover: ConeSurface, base_trace: TraceResult, start_sheet: int = 1) -> TraceResult:
    """Re-trace a base trajectory on the cover, starting on ``start_sheet``.

    Cover charts are congruent copies of the base charts, so the lifted trace
    reproduces the base segment-by-segment; a branched preimage met along the
    way terminates the lift early and raises BranchPointOnPath.
    """
    st = base_trace.start
    lifted_start = GeodesicState(sheet_chart(st.chart, start_sheet), st.point, st.direction)
    length = base_trace.total_length
    if length <= 0.0:
        raise BranchPointOnPath("cannot lift a zero-length trace")
    lifted = trace(cover, lifted_start, length, options=PLAIN_TRACE_OPTIONS)

    if lifted.termination == EVENT_CONE_HIT and base_trace.termination != EVENT_CONE_HIT:
        detail = lifted.events[-1].detail
        raise BranchPointOnPath(
            f"the trajectory meets branched class {detail.get('vertex_class')} at "
            f"arclength {lifted.total_length:.9g}; its lift is ambiguous there")
    if abs(lifted.total_length - length) > cover.tolerances.tau_len * (len(lifted.segments) + 1):
        raise TraceNumericalError(
            f"lift length {lifted.total_length} differs from base {length}")
    for (bc, ba, bb), (cc, ca, cb) in zip(base_trace.segments, lifted.segments):
        if split_sheet(cc)[0] != bc:
            raise TraceNumericalError(
                f"lift strays to chart {cc!r} over base segment in {bc!r}")
        err = max(abs(ba[0] - ca[0]), abs(ba[1] - ca[1]),
                  abs(bb[0] - cb[0]), abs(bb[1] - cb[1]))
        if err > 1e-9:
            raise TraceNumericalError(
                f"lifted segment deviates from the base by {err:.3g}")
    return lifted


def _strip_state(state: GeodesicState | None) -> GeodesicState | None:
    if state is None:
        return None
    return GeodesicState(split_sheet(state.chart)[0], state.point,
                         state.direction, state.arclength)


def project_trace(cover_trace: TraceResult) -> TraceResult:
    """Forget sheets: map a cover trace to the base surface it covers.

    Chart references in segments, events, and endpoint states lose their
    '@sheet' suffix; geometry is untouched (the projection is a local
    isometry away from branch points).  Vertex-class ids in event payloads
    remain the cover's own class names.
    """
    segments = [(split_sheet(c)[0], a, b) for c, a, b in cover_trace.segments]
    events = []
    for ev in cover_trace.events:
        detail = dict(ev.detail)
        for key in ("chart", "from_chart", "to_chart"):
            if key in detail:
                detail[key] = split_sheet(detail[key])[0]
        events.append(type(ev)(ev.kind, ev.arclength, detail))
    return TraceResult(
        start=_strip_state(cover_trace.start),
        segments=segments,
        transitions=list(cover_trace.transitions),
        events=events,
        total_length=cover_trace.total_length,
        end_state=_strip_state(cover_trace.end_state),
        termination=cover_trace.termination,
        recurrence=cover_trace.recurrence,
        min_distance_series=list(cover_trace.min_distance_series),
        # the cover has every sheet of every base chart, so this is the base's
        chart_index={c: k for k, c in enumerate(
            sorted({split_sheet(c)[0] for c in cover_trace.chart_index}))},
    )


def find_monodromy(base: ConeSurface, degree: int,
                   branch_classes: tuple[str, ...] | None = None) -> CoverSpec:
    """Search gluing permutations realizing full branching at chosen classes.

    Targets a single ``degree``-cycle at every class in ``branch_classes``
    (default: every small class) and the identity at every other class.
    Backtracks over assignments in lexicographic order with the identity
    first, so unconstrained gluings stay trivial; prunes as soon as every
    gluing in some class walk is assigned and the cycle type is wrong.
    """
    d = int(degree)
    if d < 1:
        raise InvalidPermutation(f"cover degree must be >= 1, got {degree}")
    if branch_classes is None:
        branch_classes = tuple(sorted(
            vc.id for vc in base.vertex_classes.values() if vc.kind == KIND_SMALL))
        if not branch_classes:
            raise NoSmallSingularities("no small classes to branch over")
    targets: dict[str, tuple[int, ...]] = {}
    for vc in base.vertex_classes.values():
        full = vc.id in branch_classes
        targets[vc.id] = (d,) if full else tuple([1] * d)

    walks = {vc_id: base.class_walk(vc_id) for vc_id in targets}
    n_gluings = len(base.gluings)
    # classes become checkable once the highest-indexed gluing in their walk
    # is assigned
    by_last: dict[int, list[str]] = {}
    for vc_id, steps in walks.items():
        last = max(g for g, _ in steps) if steps else -1
        by_last.setdefault(last, []).append(vc_id)

    identity = _identity(d)
    budget = base.tolerances.search_budget
    nodes = 0

    assigned: list = [None] * n_gluings

    def backtrack(idx: int):
        nonlocal nodes
        if idx == n_gluings:
            return True
        # lexicographic, so the identity comes first; generated lazily, so
        # the node budget applies before d! permutations are ever built
        for perm in itertools.permutations(identity):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"monodromy search exceeded {budget} nodes at degree {d}")
            assigned[idx] = perm
            ok = all(_cycle_type(_walk_monodromy(walks[vc_id], assigned.__getitem__, d))
                     == targets[vc_id] for vc_id in by_last.get(idx, ()))
            if ok and backtrack(idx + 1):
                return True
        assigned[idx] = None
        return False

    if not backtrack(0):
        raise SearchBudgetExceeded(
            f"no degree-{d} monodromy realizes full branching at {branch_classes} "
            f"(searched {nodes} nodes)")
    perms = {i: p for i, p in enumerate(assigned) if p != identity}
    return CoverSpec(d, perms)
