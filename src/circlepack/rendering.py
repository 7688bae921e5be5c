"""Deterministic SVG pictures of layouts.

One user unit equals one circle radius. The container is drawn as an
outline, every unit circle as a filled disc; circles involved in a
constraint violation (deeper than ``tolerance``) are tinted red so bad
layouts are visible at a glance.
"""

from __future__ import annotations

import numpy as np

from .geometry import Layout
from .layout_io import DEFAULT_VERIFY_TOLERANCE, verify_layout

_FILL = "#c8d8eb"
_FILL_VIOLATION = "#eba0a0"
_STROKE = "#243b53"

PADDING_FACTOR = 1.05
# width and height of the picture in pixels
SIZE = 640


def _fmt(value: float) -> str:
    return np.format_float_positional(float(value), unique=True, trim="0")


def render_svg(
    layout: Layout,
    show_indices: bool = False,
    tolerance: float = DEFAULT_VERIFY_TOLERANCE,
) -> str:
    """Render ``layout`` as a standalone SVG document (returned as text).

    Output is byte-identical for identical inputs.
    """
    radius = layout.radius
    pad = radius * PADDING_FACTOR
    result = verify_layout(layout, tolerance=tolerance)
    flagged: set[int] = set()
    for violation in result.violations:
        flagged.add(violation.first)
        if violation.second is not None:
            flagged.add(violation.second)

    stroke_width = f"{pad / 320.0:.6g}"
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
            f'viewBox="{_fmt(-pad)} {_fmt(-pad)} {_fmt(2 * pad)} {_fmt(2 * pad)}">'
        ),
        (
            f'<circle cx="0" cy="0" r="{_fmt(radius)}" fill="none" '
            f'stroke="{_STROKE}" stroke-width="{stroke_width}"/>'
        ),
    ]
    for i, (x, y) in enumerate(layout.centers):
        fill = _FILL_VIOLATION if i in flagged else _FILL
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="1" fill="{fill}" '
            f'stroke="{_STROKE}" stroke-width="{stroke_width}"/>'
        )
    if show_indices:
        for i, (x, y) in enumerate(layout.centers):
            lines.append(
                f'<text x="{_fmt(x)}" y="{_fmt(float(y) + 0.25)}" font-size="0.7" '
                f'font-family="sans-serif" text-anchor="middle" '
                f'fill="{_STROKE}">{i}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
