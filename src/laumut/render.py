"""Deterministic SVG diagrams for rank-2 lattice geometry.

Everything is computed in exact arithmetic and formatted through a
fixed-precision decimal printer, so identical inputs produce
byte-identical files. Unbounded regions are truncated at the viewport
box; truncation vertices get no marker.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .polyhedra import Polyhedron, convex_cycle, from_halfspaces

SCALE = 32  # pixels per lattice unit
MARGIN = 24
MAX_SIDE = 1000  # lattice units a side: the grid draws one line per unit
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # labels as character data


def _fmt(q: Fraction | int) -> str:
    """Exact fixed-point decimal with three places, via integer rounding."""
    n = round(Fraction(q) * 1000)
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, 1000)
    return f"{sign}{whole}.{frac:03d}"


def _bbox(items: Sequence[tuple[str, Polyhedron]]) -> tuple[int, int, int, int]:
    xs = [Fraction(0)]
    ys = [Fraction(0)]
    pad_pos = [1, 1]
    pad_neg = [1, 1]
    for _, p in items:
        for v in p.vertices:
            xs.append(v[0])
            ys.append(v[1])
        for r in p.rays:
            for axis in (0, 1):
                if r[axis] > 0:
                    pad_pos[axis] = 3
                elif r[axis] < 0:
                    pad_neg[axis] = 3
    xmin = math.floor(min(xs)) - pad_neg[0]
    xmax = math.ceil(max(xs)) + pad_pos[0]
    ymin = math.floor(min(ys)) - pad_neg[1]
    ymax = math.ceil(max(ys)) + pad_pos[1]
    if max(xmax - xmin, ymax - ymin) > MAX_SIDE:
        raise ValueError(f"a drawing of {xmax - xmin} by {ymax - ymin} lattice units exceeds {MAX_SIDE} a side")
    return xmin, xmax, ymin, ymax


def _clip(p: Polyhedron, box: tuple[int, int, int, int]) -> Polyhedron:
    if not p.rays:
        return p
    xmin, xmax, ymin, ymax = box
    extra = [
        ((1, 0), Fraction(xmin)),
        ((-1, 0), Fraction(-xmax)),
        ((0, 1), Fraction(ymin)),
        ((0, -1), Fraction(-ymax)),
    ]
    return from_halfspaces(list(p.halfspaces) + extra, 2)


class _Canvas:
    def __init__(self, box: tuple[int, int, int, int]):
        self.xmin, self.xmax, self.ymin, self.ymax = box
        self.width = (self.xmax - self.xmin) * SCALE + 2 * MARGIN
        self.height = (self.ymax - self.ymin) * SCALE + 2 * MARGIN
        self.body: list[str] = []

    def px(self, x: Fraction | int) -> str:
        return _fmt(MARGIN + (Fraction(x) - self.xmin) * SCALE)

    def py(self, y: Fraction | int) -> str:
        return _fmt(MARGIN + (self.ymax - Fraction(y)) * SCALE)

    def grid(self) -> None:
        lines = [(x, self.ymin, x, self.ymax, x) for x in range(self.xmin, self.xmax + 1)]
        lines += [(self.xmin, y, self.xmax, y, y) for y in range(self.ymin, self.ymax + 1)]
        for x1, y1, x2, y2, at in lines:
            stroke = "#888888" if at == 0 else "#dddddd"
            self.body.append(
                f'<line x1="{self.px(x1)}" y1="{self.py(y1)}" '
                f'x2="{self.px(x2)}" y2="{self.py(y2)}" stroke="{stroke}" stroke-width="1"/>'
            )

    def emit(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="#ffffff"/>\n'
        )
        return head + "\n".join(self.body) + "\n</svg>\n"


def render_svg(items: Sequence[tuple[str, Polyhedron]]) -> str:
    """Draw labeled polyhedra on one shared lattice grid, at most ``MAX_SIDE`` units a side (else ValueError).

    items: (label, polyhedron) pairs, all of rank 2; labels are XML-escaped. Returns the SVG text.
    """
    if not items:
        raise ValueError("nothing to render")
    for label, p in items:
        if p.rank != 2:
            raise ValueError(f"render is rank-2 only, got rank {p.rank} for {label!r}")
    box = _bbox(items)
    canvas = _Canvas(box)
    canvas.grid()
    for k, (label, p) in enumerate(items):
        color = PALETTE[k % len(PALETTE)]
        clipped = _clip(p, box)
        true_vertices = {tuple(v) for v in p.vertices}
        pts = convex_cycle(clipped.vertices)  # a segment or a point is its own sorted vertex list
        if len(pts) >= 2:
            d = "M " + " L ".join(f"{canvas.px(v[0])},{canvas.py(v[1])}" for v in pts)
            if len(pts) > 2:
                d += " Z"
            fill = f'fill="{color}" fill-opacity="0.08"' if len(pts) > 2 else 'fill="none"'
            canvas.body.append(f'<path d="{d}" {fill} stroke="{color}" stroke-width="2"/>')
        for v in clipped.vertices:
            if tuple(v) in true_vertices:
                canvas.body.append(
                    f'<circle cx="{canvas.px(v[0])}" cy="{canvas.py(v[1])}" r="3.5" fill="{color}"/>'
                )
        anchor = min(true_vertices)
        canvas.body.append(
            f'<text x="{canvas.px(anchor[0])}" y="{canvas.py(anchor[1] + Fraction(1, 3))}" '
            f'font-family="monospace" font-size="12" fill="{color}">{label.translate(XML_TEXT)}</text>'
        )
    return canvas.emit()
