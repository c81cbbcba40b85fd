"""Span recording around the public functions of each conesurf module.

``Tracer.install`` wraps each function that ``spanned`` names and replaces every
attribute, in every loaded ``conesurf.*`` module, that *is* the original
function object. Modules import one another's functions by name (``from
.tracer import trace`` in saddles, cylinders, covering and cli), so replacing
only the defining module would miss nested calls such as the certification
traces inside ``enumerate_saddles``.

A span is ``[name, start_ns, end_ns, parent, op, child_ns, counts]``: its
parent is the index of the enclosing span (-1 at the root), ``op`` the
benchmark operation it belongs to and ``child_ns`` the time covered by its
direct children, so its self time is ``end - start - child_ns``. Counts are
taken from the returned values. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


def spanned(cs) -> dict:
    """module -> function -> (span name from the arguments, counts from the
    returned value); either may be None."""
    tracer = cs.tracer

    def trace_name(args, kwargs):
        options = kwargs.get("options") or tracer.DEFAULT_TRACE_OPTIONS
        if options.record_min_distance:
            return "tracer.trace.mindist"
        return "tracer.trace.recurrence" if options.detect_recurrence else "tracer.trace.plain"

    def trace_counts(result):
        crossings = sum(1 for ev in result.events if ev.kind == tracer.EVENT_EDGE_CROSS)
        return {"segments": len(result.segments), "edge_crossings": crossings}

    def distance_samples(result):
        w0, w1 = result.window
        return {"samples": max(2, int(round((w1 - w0) / result.step)) + 1)}

    def cli_name(args, kwargs):
        argv = args[0] if args else kwargs.get("argv") or []
        return "cli.run." + next((a for a in argv if not a.startswith("-")), "none")

    return {
        "tracer": {
            "trace": (trace_name, trace_counts),
            "develop": (None, None),
            "geodesic_distance": (None, distance_samples),
            "min_distance_experiment": (None, None),
        },
        "saddles": {
            "enumerate_saddles": (None, lambda r: {"connections": len(r)}),
            "trace_connection": (None, lambda r: {"accepted": int(r is not None)}),
        },
        "cylinders": {
            "find_closed_geodesic": (None, lambda r: {"found": int(r is not None)}),
            "strip_width": (None, None),
            "offset_state": (None, None),
            "density_experiment": (None, None),
        },
        "covering": {
            "find_monodromy": (None, None),
            "build_cover": (None, None),
            "lift_trace": (None, None),
            "project_trace": (None, None),
        },
        "surface": {
            "build_surface": (None, None),
            "load_surface": (None, None),
            "save_surface": (None, None),
        },
        "cli": {"run": (cli_name, None)},
    }


# methods: (module, class, method)
SPANNED_METHODS = (("surface", "ConeSurface", "alignment_isos"),)


class Tracer:
    """Records spans while installed; ``spans`` holds them in call order."""

    def __init__(self, cs):
        self.cs = cs
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._replaced: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, name_of, count):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name if name_of is None else name_of(args, kwargs),
                    time.perf_counter_ns(), 0, parent, self.op, 0, None]
            stack.append(len(spans))
            spans.append(span)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span[2] = end
                if parent >= 0:
                    spans[parent][5] += end - span[1]
                if not ok:
                    span[6] = {"failed": 1}
                elif count is not None:
                    span[6] = count(result)

        return wrapper

    def install(self) -> None:
        originals = []
        for mod_name, functions in spanned(self.cs).items():
            module = getattr(self.cs, mod_name)
            for fn_name, (name_of, count) in functions.items():
                fn = getattr(module, fn_name)
                originals.append((fn, self._wrap(fn, f"{mod_name}.{fn_name}", name_of, count)))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "conesurf" or mod_name.startswith("conesurf.")):
                continue
            for attr, value in list(vars(module).items()):
                for fn, wrapper in originals:
                    if value is fn:
                        self._replaced.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for mod_name, cls_name, meth in SPANNED_METHODS:
            cls = getattr(getattr(self.cs, mod_name), cls_name)
            fn = vars(cls)[meth]
            self._replaced.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"{mod_name}.{cls_name}.{meth}", None, None))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._replaced):
            setattr(owner, attr, value)
        self._replaced.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:6] + [span[6] or {}]) + "\n")


def layer_totals(spans) -> tuple[Counter, Counter, int]:
    """Per span name: calls and summed counts; per name: self time in ns;
    and the total duration of root spans."""
    counts: Counter = Counter()
    self_ns: Counter = Counter()
    root_ns = 0
    for name, start, end, parent, _op, child, extra in spans:
        counts[f"{name}.calls"] += 1
        self_ns[name] += end - start - child
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] += value
        if parent < 0:
            root_ns += end - start
    return counts, self_ns, root_ns
