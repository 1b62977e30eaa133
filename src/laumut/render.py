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

from .exactlat import DomainError
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
    """Box (xmin, xmax, ymin, ymax) spanning the origin and every vertex,
    padded by 1, or by 3 on a side that some ray points to."""
    box = []
    for axis in (0, 1):
        coords = [0] + [v[axis] for _, p in items for v in p.vertices]
        signs = {(r[axis] > 0) - (r[axis] < 0) for _, p in items for r in p.rays}
        box.append(math.floor(min(coords)) - (3 if -1 in signs else 1))
        box.append(math.ceil(max(coords)) + (3 if 1 in signs else 1))
    xmin, xmax, ymin, ymax = box
    if max(xmax - xmin, ymax - ymin) > MAX_SIDE:
        raise DomainError(f"a drawing of {xmax - xmin} by {ymax - ymin} lattice units exceeds {MAX_SIDE} a side")
    return xmin, xmax, ymin, ymax


def _clip(p: Polyhedron, box: tuple[int, int, int, int]) -> Polyhedron:
    """p cut down to the box: an unbounded p's halfspaces and the box's four, one
    kernel pass. A bounded p lies inside the box already and is its own clip."""
    if not p.rays:
        return p
    xmin, xmax, ymin, ymax = box
    return from_halfspaces([*p.halfspaces, ((1, 0), xmin), ((-1, 0), -xmax), ((0, 1), ymin), ((0, -1), -ymax)], 2)


def render_svg(items: Sequence[tuple[str, Polyhedron]]) -> str:
    """Draw labeled polyhedra on one shared lattice grid, at most ``MAX_SIDE`` units a side (else DomainError).

    items: (label, polyhedron) pairs, all of rank 2; labels are XML-escaped. Returns the SVG text.
    """
    if not items:
        raise ValueError("nothing to render")
    for label, p in items:
        if p.rank != 2:
            raise ValueError(f"render is rank-2 only, got rank {p.rank} for {label!r}")
    box = xmin, xmax, ymin, ymax = _bbox(items)

    def px(x: Fraction | int) -> str:
        return _fmt(MARGIN + (Fraction(x) - xmin) * SCALE)

    def py(y: Fraction | int) -> str:
        return _fmt(MARGIN + (ymax - Fraction(y)) * SCALE)

    lines = [(x, ymin, x, ymax, x) for x in range(xmin, xmax + 1)]
    lines += [(xmin, y, xmax, y, y) for y in range(ymin, ymax + 1)]
    body = []
    for x1, y1, x2, y2, at in lines:
        stroke = "#888888" if at == 0 else "#dddddd"
        body.append(
            f'<line x1="{px(x1)}" y1="{py(y1)}" '
            f'x2="{px(x2)}" y2="{py(y2)}" stroke="{stroke}" stroke-width="1"/>'
        )
    for k, (label, p) in enumerate(items):
        color = PALETTE[k % len(PALETTE)]
        clipped = _clip(p, box)
        true_vertices = {tuple(v) for v in p.vertices}
        pts = convex_cycle(clipped.vertices)  # a segment or a point is its own sorted vertex list
        if len(pts) >= 2:
            d = "M " + " L ".join(f"{px(v[0])},{py(v[1])}" for v in pts)
            if len(pts) > 2:
                d += " Z"
            fill = f'fill="{color}" fill-opacity="0.08"' if len(pts) > 2 else 'fill="none"'
            body.append(f'<path d="{d}" {fill} stroke="{color}" stroke-width="2"/>')
        for v in clipped.vertices:
            if tuple(v) in true_vertices:
                body.append(f'<circle cx="{px(v[0])}" cy="{py(v[1])}" r="3.5" fill="{color}"/>')
        anchor = min(true_vertices)
        body.append(
            f'<text x="{px(anchor[0])}" y="{py(anchor[1] + Fraction(1, 3))}" '
            f'font-family="monospace" font-size="12" fill="{color}">{label.translate(XML_TEXT)}</text>'
        )
    width = (xmax - xmin) * SCALE + 2 * MARGIN
    height = (ymax - ymin) * SCALE + 2 * MARGIN
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"
