"""Dependency-free SVG rendering for the two plot shapes the CLI emits.

Only bars over an integer axis and point-plus-polyline charts are supported;
anything fancier belongs in a real plotting stack.
"""

from __future__ import annotations

import math

from .errors import ResourceLimitError

WIDTH = 640
HEIGHT = 400
MARGIN = 50


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    return [out_lo + (out_hi - out_lo) * (v - lo) / span for v in values]


def _frame(title: str, body: list[str]) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" '
        f'stroke="black"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def bar_chart(rows, title: str = "") -> str:
    """Vertical bars for rows of (integer label, value in [0, 1])."""
    labels = [int(n) for n, _ in rows]
    values = [float(v) for _, v in rows]
    xs = _scale(labels, min(labels) - 1, max(labels) + 1, MARGIN, WIDTH - MARGIN)
    top = max(values + [1.0])
    body = []
    for x, label, value in zip(xs, labels, values):
        height = (HEIGHT - 2 * MARGIN) * value / top
        y = HEIGHT - MARGIN - height
        body.append(
            f'<rect x="{x - 8:.1f}" y="{y:.1f}" width="16" height="{height:.1f}" '
            f'fill="steelblue"/>'
        )
        body.append(
            f'<text x="{x:.1f}" y="{HEIGHT - MARGIN + 16}" text-anchor="middle" '
            f'font-size="11">{label}</text>'
        )
    return _frame(title, body)


def point_line_chart(points, line, title: str = "") -> str:
    """Dots for `points` plus a polyline for `line`, over [0, 1] x data range, if floats hold it."""
    try:
        ys = [float(y) for _, y in points] + [float(y) for _, y in line]
    except OverflowError:
        ys = [math.inf]  # a value past float range puts the range past it too
    lo, hi = min(ys + [0.0]), max(ys + [1.0])
    if not math.isfinite(hi - lo):
        raise ResourceLimitError("cannot draw the chart: its values span beyond float range")

    def to_xy(pairs):
        xs = _scale([float(x) for x, _ in pairs], 0, 1, MARGIN, WIDTH - MARGIN)
        return zip(xs, _scale([float(y) for _, y in pairs], lo, hi, HEIGHT - MARGIN, MARGIN))

    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in to_xy(line))
    body = [f'<polyline points="{path}" fill="none" stroke="steelblue" stroke-width="2"/>']
    for x, y in to_xy(points):
        body.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="black"/>')
    return _frame(title, body)
