"""SVG rendering of traced trajectories and their unfoldings.

The picture develops the trace into the plane of its starting chart: one
outline per unfolded chart copy, plus the developed trajectory (a straight
segment, up to numerical residue, whenever the trace is a geodesic).
"""

from __future__ import annotations

from .surface import ConeSurface
from .tracer import DevelopedPath, TraceResult

_HEADER = '<?xml version="1.0" encoding="UTF-8"?>\n<!-- conesurf developed-trace rendering -->\n'


def _fmt(x: float) -> str:
    return f"{x:.6f}".rstrip("0").rstrip(".")


def trace_svg(surface: ConeSurface, trace_result: TraceResult, dev: DevelopedPath, *,
              width: float = 800.0, margin: float = 20.0) -> str:
    """Render a trace and its development ``dev`` as an SVG document string.

    Chart copies visited by the trajectory are drawn in outline in the
    developed (starting-chart) frame; the developed trajectory is drawn on
    top.  The viewport auto-fits all geometry with a fixed margin.
    """
    outlines: list[list[tuple[float, float]]] = []
    seen: set = set()
    for (chart, _, _), iso in zip(trace_result.segments, dev.isometries):
        key = (chart, iso.rounded_key())
        if key in seen:
            continue
        seen.add(key)
        verts = surface.charts[chart]
        outlines.append([iso.apply(v) for v in verts])

    xs = [x for poly in outlines for x, _ in poly] + [p[0] for p in dev.points]
    ys = [y for poly in outlines for _, y in poly] + [p[1] for p in dev.points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span_x = max(x1 - x0, 1e-9)
    span_y = max(y1 - y0, 1e-9)
    scale = (width - 2 * margin) / span_x
    height = span_y * scale + 2 * margin

    def to_px(p):
        # flip y so the mathematical orientation reads upward
        return ((p[0] - x0) * scale + margin, (y1 - p[1]) * scale + margin)

    parts = [_HEADER,
             f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
             f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n']
    for poly in outlines:
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(p) for p in poly))
        parts.append(f'  <polygon points="{pts}" fill="none" '
                     f'stroke="#888888" stroke-width="1"/>\n')
    path_pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(p) for p in dev.points))
    parts.append(f'  <polyline points="{path_pts}" fill="none" '
                 f'stroke="#c0392b" stroke-width="2"/>\n')
    start_px = to_px(dev.points[0])
    parts.append(f'  <circle cx="{_fmt(start_px[0])}" cy="{_fmt(start_px[1])}" '
                 f'r="4" fill="#c0392b"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def write_trace_svg(surface: ConeSurface, trace_result: TraceResult, dev: DevelopedPath,
                    path, **kwargs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace_svg(surface, trace_result, dev, **kwargs))
