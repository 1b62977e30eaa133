"""Exact rational convex polyhedra and cones.

Every conversion runs through one double description kernel
(:func:`extreme_rays`). A polyhedron is kept as its homogenization, the
homogeneous form of cdd (points at height 1, rays at height 0 in a new
first coordinate), canonicalized as a cone from generators; a cone given
by normals is the dual of the cone they span, read with its two sides
swapped. A conversion runs one kernel pass to the other side and reads
the irredundant members of its own input off the tight-constraint
bitmasks the pass keeps, with no dot product taken again; only a cone
with a line takes a second pass, and a pointed full-dimensional cone
keeps the masks. No pass runs for the cone over a polytope, which is the
polytope's own; for a dual cone, which swaps the two sides; for a polar
dual, the dual of the polytope's cone; or for a slice of a pointed
full-dimensional cone at a level of its last coordinate, which is read
off the cone's incidence (at level 0 through one insertion step of the
kernel). A pass can also continue a pointed full-dimensional cone's
description with new generators. Arithmetic is exact (ints and Fractions),
objects are immutable and lists sorted, so all output is deterministic.

Conventions: a halfspace is a pair ``(normal, offset)`` meaning
``<normal, x> >= offset`` with a primitive integer normal and a rational
offset. Equations appear as the two opposite halfspaces. A polyhedron is
presented by vertices plus recession-cone rays and never contains a
line; a cone may, and shows it as an opposite pair of rays, as it shows
an equation as an opposite pair of facet normals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from .exactlat import (
    MAX_RANK,
    DomainError,
    IntVec,
    QVec,
    content,
    dot,
    exact_fraction,
    exact_int,
    floor_sum,
    primitive_from_rational,
    primitive_vector,
    unit_vector,
    vadd,
    vneg,
    vscale,
    vsub,
)

Halfspace = tuple[IntVec, Fraction]


# -- double description kernel ----------------------------------------------


def extreme_rays(
    constraints: Sequence[IntVec], rank: int, *, tight: Optional[list[int]] = None, start: Optional[tuple] = None
) -> tuple[list[IntVec], list[IntVec]]:
    """Extreme rays and lineality basis of ``{x : <a, x> >= 0 for all a}``.

    Incremental double description: insert one constraint at a time,
    maintaining a lineality basis plus the extreme rays of the cone
    modulo its lineality space. While lineality survives, a violated
    constraint removes one basis vector (it becomes a ray) and projects
    the rest; once the cone is pointed modulo lineality, new rays come
    only from adjacent positive/negative pairs, with adjacency decided
    combinatorially: a pair is adjacent iff no third ray's set of tight
    constraints contains their common tight set. That test is sound
    exactly because the maintained ray list stays irredundant.

    Tight sets are int bitmasks carried along, as in cdd (Fukuda-Prodon,
    "Double description method revisited", 1996): bit j marks the j-th
    nonzero constraint as tight, a new ray gets its parents' common mask
    plus the new bit, and a pair with fewer than ``rank - len(lineality) - 2``
    common bits is dropped unscanned. An insertion costs one dot product
    per ray; once the lineality basis is used up, it is one :func:`_dd_step`
    (which :func:`kernel_slice` runs too), plus a mask test per (pair, ray)
    if some ray is cut off.

    A pass can continue a finished one: ``start`` is ``(count, lineality,
    rays, masks)``, the state after ``count`` earlier nonzero constraints,
    with irredundant rays and exact masks; ``constraints`` take the next bits.

    Rays are primitive integer vectors. Only mask bits follow the input order
    (:meth:`Cone.from_generators` inserts farthest-first): each lineality
    vector is positive on one free coordinate, whose column depends on earlier
    ones, and zero on the rest, and each ray is zero on all. If a list is
    passed as ``tight``, the mask of every output ray is appended to it in the
    order of the sorted rays: bit j set iff the j-th nonzero constraint
    vanishes on that ray.
    """
    if rank > MAX_RANK + 1:  # the homogenization of rank MAX_RANK, before any vector is built
        raise ValueError(f"rank {rank} exceeds the limit of {MAX_RANK + 1}")
    if start is None:
        start = (0, [unit_vector(rank, i) for i in range(rank)], [], [])
    count, lineality, rays, masks = start
    lineality = list(lineality)
    bit = 1 << count
    for a in constraints:
        if len(a) != rank:
            raise ValueError(f"constraint of length {len(a)} in rank {rank}")
        if not any(a):
            continue
        lvals = [sum(map(mul, a, l)) for l in lineality] if lineality else []
        vals = [sum(map(mul, a, r)) for r in rays]
        if any(lvals):
            # Lineality vectors vanish on all earlier constraints: projecting keeps tight sets.
            j0 = next(j for j, val in enumerate(lvals) if val)
            l0, v0 = lineality.pop(j0), lvals.pop(j0)
            if v0 < 0:
                l0, v0 = vneg(l0), -v0
            lineality = [_combination(v0, l, lv, l0) if lv else l for l, lv in zip(lineality, lvals)]
            rays = [_combination(v0, r, val, l0) if val else r for r, val in zip(rays, vals)] + [l0]
            masks = [m | bit for m in masks] + [bit - 1]
        else:
            survivors = _dd_step(rays, masks, vals, bit, rank - len(lineality) - 2)
            rays, masks = list(survivors), list(survivors.values())
        bit <<= 1
    incidence = dict(zip(rays, masks))  # a mask is its ray's exact tight set
    rays = sorted(incidence)
    if tight is not None:
        tight.extend([incidence[r] for r in rays])
    return rays, sorted(lineality)


def _combination(a: int, u: IntVec, b: int, v: IntVec) -> IntVec:
    """The primitive vector along ``a*u - b*v``, which is nonzero."""
    w = [a * x - b * y for x, y in zip(u, v)]
    g = gcd(*w)
    return tuple(x // g for x in w)


def _dd_step(rays: Sequence[IntVec], masks: Sequence[int], vals: Sequence[int], bit: int, need: int) -> dict[IntVec, int]:
    """One kernel insertion of a constraint with values ``vals`` on the
    ``rays``, whose ``masks`` are their tight sets: the rays where it is
    nonnegative and the combination at 0 of each adjacent pair of opposite
    signs, with masks, where the rays at 0 and the new ones gain ``bit``.
    A constraint that cuts no ray keeps every ray, in order. Adjacency is
    the mask test of :func:`extreme_rays`, exact as long as the rays are
    irredundant; pairs with fewer than ``need`` common bits are not scanned.
    """
    survivors: dict[IntVec, int] = {}
    pos, neg = [], []
    for r, m, val in zip(rays, masks, vals):
        if val < 0:
            neg.append((r, m, val))
        elif val:
            survivors[r] = m
            pos.append((r, m, val))
        else:
            survivors[r] = m | bit
    for rp, mp, vp in pos:
        for rn, mn, vn in neg:
            common = mp & mn
            if common.bit_count() < need:
                continue
            # Both parents' masks contain the common set; a third one breaks adjacency.
            hits = 0
            for m in masks:
                if common & m == common:
                    hits += 1
                    if hits == 3:
                        break
            else:
                survivors.setdefault(_combination(vp, rn, vn, rp), common | bit)
    return survivors


# -- cones --------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Cone:
    """Rational polyhedral cone, canonically presented.

    Both sides have one shape: the extreme rays modulo lineality together
    with +/- a lineality basis. ``rays`` generates the cone, so a line
    shows as an opposite pair of rays; ``facet_normals`` generates the
    dual cone, so membership is ``<n, x> >= 0`` for every normal and an
    equation shows as an opposite pair of normals. Equality is semantic
    (same set of points).

    The ``incidence`` is kept for a pointed full-dimensional cone that
    :meth:`from_generators` or :func:`kernel_slice` builds (None otherwise,
    or if dual): bit j of ``incidence[i]`` is set iff ``facet_normals[j]``
    vanishes on ``rays[i]``.
    """

    rank: int
    rays: tuple[IntVec, ...]
    facet_normals: tuple[IntVec, ...]
    incidence: Optional[tuple[int, ...]] = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_generators(rank: int, generators: Iterable[Sequence[int]], start: Optional["Cone"] = None) -> "Cone":
        """The cone spanned by ``generators``, and by the rays of ``start``
        if given, canonically presented.

        One kernel pass turns the generators into facet normals, inserting
        them farthest-first (by squared norm, then tuple order) so that later
        ones cut few rays; no field depends on that order (see
        :func:`extreme_rays`). A pointed cone's rays are then the generators
        that :func:`_irredundant` keeps, read off the masks of that pass,
        which a full-dimensional one keeps as its incidence; only a cone with
        a line runs a second pass, normals to rays, for its lineality basis.

        With ``start``, a pointed full-dimensional cone with its incidence,
        the pass starts from its facet normals, with the transposed incidence
        as masks, and inserts only the generators; a start of rank one less
        is taken at 0 in a new first coordinate, kept as lineality. The
        fields are those of one pass over all the generators (ValueError for
        any other start).
        """
        first, description = [], None
        if start is not None:
            if start.incidence is None or rank - start.rank not in (0, 1):
                raise ValueError("a pass continues a pointed full-dimensional cone of its rank or one less")
            lift = (0,) * (rank - start.rank)
            first = [lift + r for r in start.rays]
            masks = _transpose(start.incidence, len(start.facet_normals))
            description = (len(first), [unit_vector(rank, 0)] if lift else [], [lift + n for n in start.facet_normals], masks)
        new = sorted({primitive_vector(tuple(g)) for g in generators if any(g)}.difference(first), key=lambda g: (-sum(map(mul, g, g)), g))
        tight: list[int] = []
        dual_r, dual_l = extreme_rays(new, rank, tight=tight, start=description)
        normals = sorted(dual_r + dual_l + [vneg(l) for l in dual_l])
        # A ray's tight normals span a hyperplane; the +/- lineality ones span len(dual_l) dimensions.
        picked = _irredundant(first + new, tight, rank - 1 - len(dual_l))
        if picked is not None:
            # With no lineality the normals are the pass's rays, in the order of its masks.
            pairs = sorted(zip(*picked))
            return Cone(rank, tuple(r for r, _ in pairs), tuple(normals), None if dual_l else tuple(m for _, m in pairs))
        ray_r, ray_l = extreme_rays(normals, rank)
        rays = sorted(ray_r + ray_l + [vneg(l) for l in ray_l])
        return Cone(rank, tuple(rays), tuple(normals))

    def contains(self, v: Sequence) -> bool:
        return all(dot(n, v) >= 0 for n in self.facet_normals)

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return (
            self.rank == other.rank
            and all(self.contains(r) for r in other.rays)
            and all(other.contains(r) for r in self.rays)
        )

    __hash__ = None  # semantic equality; use the rays tuple as a dict key instead

    def to_dict(self) -> dict:
        return {"rank": self.rank, "rays": [[str(c) for c in r] for r in self.rays]}

    @staticmethod
    def from_dict(data: dict) -> "Cone":
        rank = exact_int(data["rank"])
        if rank < 0:
            raise ValueError(f"a cone has a nonnegative rank, not {rank}")
        gens = [tuple(exact_int(c) for c in r) for r in data.get("rays", [])]
        return Cone.from_generators(rank, gens)


def dual_cone(cone: Cone) -> Cone:
    """All functionals nonnegative on the cone: both sides are in one
    shape, so the dual swaps them and runs no kernel pass."""
    return Cone(cone.rank, cone.facet_normals, cone.rays)


def first_coordinate_last(cone: Cone) -> Cone:
    """The cone with its first coordinate moved last, with no kernel pass:
    both sides are permuted and sorted again, and the incidence follows
    its rays and normals."""
    rays = sorted((r[1:] + r[:1], i) for i, r in enumerate(cone.rays))
    normals = sorted((n[1:] + n[:1], j) for j, n in enumerate(cone.facet_normals))
    incidence = cone.incidence and tuple(
        sum(1 << k for k, (_, j) in enumerate(normals) if cone.incidence[i] >> j & 1) for _, i in rays
    )
    return Cone(cone.rank, tuple(r for r, _ in rays), tuple(n for n, _ in normals), incidence)


def _irredundant(vectors: list[IntVec], tight: Sequence[int], need: int) -> Optional[tuple[list[IntVec], list[int]]]:
    """The members of ``vectors`` that span extreme rays of the cone they
    generate, each with its tight set, or None if that cone contains a line.

    ``vectors`` are primitive, such as those a kernel pass dualized, in its
    input order; ``tight`` holds the masks of the rays of the dual cone,
    such as the rays of that pass: bit j of ``tight[i]`` marks
    ``vectors[j]`` as orthogonal to the i-th ray. Those rays generate the
    dual cone up to its lineality, on which every vector is tight.
    Transposed, the masks give each vector's tight set (cdd's incidences:
    Fukuda-Prodon, "Double description method revisited", 1996), which
    cuts out the smallest face containing it. A vector tight on every ray
    spans a line; in a pointed cone a vector is extreme iff no other
    vector's tight set contains its own. Two vectors with one tight set are
    equal, and the first stands for both, or lie in a face whose extreme
    rays have larger sets. Vectors tight on fewer than ``need`` rays cannot
    be extreme and are skipped unscanned. In a returned tight set, bit i
    marks the i-th ray.
    """
    masks = _transpose(tight, len(vectors))
    if (1 << len(tight)) - 1 in masks:
        return None
    cand = [i for i, m in enumerate(masks) if m.bit_count() >= need]
    extreme = [
        i for i in cand if not any(masks[k] & masks[i] == masks[i] and (k < i or masks[k] != masks[i]) for k in cand if k != i)
    ]
    return [vectors[i] for i in extreme], [masks[i] for i in extreme]


def _transpose(masks: Sequence[int], width: int) -> list[int]:
    """The bit matrix with rows ``masks`` transposed: bit i of entry j is
    bit j of ``masks[i]``, for ``width`` entries."""
    out = [0] * width
    for i, m in enumerate(masks):
        b = 1 << i
        while m:
            low = m & -m
            out[low.bit_length() - 1] |= b
            m ^= low
    return out


# -- polyhedra ----------------------------------------------------------------


@dataclass(frozen=True)
class Polyhedron:
    """Pointed rational polyhedron: convex hull of vertices plus rays.

    Kept as its homogenization ``cone``, height first, whose generators at
    positive height give the sorted vertices, those at height 0 the sorted
    rays, and facet normals other than ``x0 >= 0`` the sorted halfspaces.
    A line in a cone in ``x0 >= 0`` lies at height 0, an opposite pair of
    rays; such a cone, one with no generator at positive height, or one
    leaving ``x0 >= 0`` is refused (ValueError). Equality is semantic.
    """

    cone: Cone

    __hash__ = None  # semantic equality, as for cones

    def __post_init__(self):
        if any(g[0] < 0 for g in self.cone.rays):
            raise ValueError("the cone of a polyhedron lies in x0 >= 0")
        flat = {g for g in self.cone.rays if not g[0]}
        if any(vneg(g) in flat for g in flat):
            raise ValueError("polyhedron contains a line")
        if not any(g[0] for g in self.cone.rays):
            raise ValueError("empty polyhedron")

    @property
    def rank(self) -> int:
        return self.cone.rank - 1

    @cached_property
    def vertices(self) -> tuple[QVec, ...]:
        return tuple(sorted(tuple(Fraction(c, g[0]) for c in g[1:]) for g in self.cone.rays if g[0]))

    @cached_property
    def rays(self) -> tuple[IntVec, ...]:
        return tuple(sorted(g[1:] for g in self.cone.rays if not g[0]))

    @cached_property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        normals = [(n[0], n[1:], content(n[1:])) for n in self.cone.facet_normals]
        return tuple(sorted((tuple(x // g for x in n), Fraction(-c, g)) for c, n, g in normals if g))

    def contains(self, point: Sequence) -> bool:
        return all(dot(n, point) >= c for n, c in self.halfspaces)

    def support_minimum(self, u: Sequence[int]) -> Optional[Fraction]:
        """min of <u, .> over the polyhedron; None if unbounded below."""
        if any(dot(u, r) < 0 for r in self.rays):
            return None
        return min(Fraction(dot(u, v)) for v in self.vertices)

    def to_dict(self) -> dict:
        """Vertices y/h printed from their int generators (h, y), in the
        order of ``vertices``: at the lcm d of the heights, y/h sorts as d*y/h."""
        points = [g for g in self.cone.rays if g[0]]
        d = lcm(*(g[0] for g in points))
        points.sort(key=lambda g: [c * (d // g[0]) for c in g[1:]])
        return {
            "rank": self.rank,
            "vertices": [[_ratio(c, g[0]) for c in g[1:]] for g in points],
            "rays": [[str(c) for c in r] for r in self.rays],
        }

    @staticmethod
    def from_dict(data: dict) -> "Polyhedron":
        verts = [tuple(exact_fraction(c) for c in v) for v in data["vertices"]]
        rays = [tuple(exact_int(c) for c in r) for r in data.get("rays", [])]
        return hull(verts, rays)


def _ratio(c: int, h: int) -> str:
    """``str(Fraction(c, h))`` for h > 0, with no Fraction built."""
    g = gcd(c, h)
    return str(c // g) if g == h else f"{c // g}/{h // g}"


def hull(points: Sequence[Sequence], rays: Sequence[Sequence[int]] = ()) -> Polyhedron:
    """Convex hull of points plus a recession cone spanned by rays.

    Point coordinates are ints or Fractions, never floats (TypeError);
    the vertices come out as Fractions either way. The homogenization
    (points at height 1, rays at height 0) is canonicalized as a cone:
    one kernel pass yields the irredundant halfspaces, and the vertices
    and rays are the inputs whose incidences with them no other input's
    contain.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        raise ValueError("hull needs at least one point")
    rank = len(pts[0])
    if any(len(p) != rank for p in pts) or any(len(r) != rank for r in rays):
        raise ValueError("mixed dimensions in hull input")
    gens = [primitive_from_rational((1,) + p) for p in pts]
    gens += [(0,) + primitive_vector(tuple(r)) for r in rays]
    return Polyhedron(Cone.from_generators(rank + 1, gens))


def from_halfspaces(halfspaces: Sequence[tuple[Sequence[int], Fraction]], rank: int) -> Polyhedron:
    """Polyhedron cut out by ``<n, x> >= c`` constraints.

    Input may be redundant; the result is canonical. Raises ValueError
    if the intersection is empty or contains a line, and TypeError for a
    float offset.
    """
    hcons = [unit_vector(rank + 1, 0)]
    for normal, offset in halfspaces:
        offset = exact_fraction(offset)
        if not any(normal):
            if offset > 0:
                raise ValueError("empty polyhedron")
            continue
        d = offset.denominator
        hcons.append((-int(offset * d),) + tuple(x * d for x in normal))
    return Polyhedron(dual_cone(Cone.from_generators(rank + 1, hcons)))


def minkowski_sum(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    if p.rank != q.rank:
        raise ValueError("rank mismatch in Minkowski sum")
    pts = [vadd(v, w) for v in p.vertices for w in q.vertices]
    return hull(pts, list(p.rays) + list(q.rays))


def is_minkowski_sum(p: Polyhedron, q: Polyhedron, r: Polyhedron) -> bool:
    """Whether r = p + q, decided on integers without a hull: each generator
    (h, y) of the three cones at positive height is scaled to the common
    height d, the lcm of those heights, and the vertex y/h read as d*y/h.

    r lies in p + q iff its vertices are sums of a vertex of p and one of q
    and its rays are rays of p or q; p + q lies in r iff for every facet
    normal (N_0, n) of r's cone the minima of n on p and q are finite and
    sum to at least -N_0.
    """
    if not p.rank == q.rank == r.rank:
        raise ValueError("rank mismatch in Minkowski sum")
    tail = set(p.rays) | set(q.rays)
    if not set(r.rays) <= tail:
        return False
    d = lcm(*(g[0] for x in (p, q, r) for g in x.cone.rays if g[0]))
    ps, qs, rs = ([tuple(c * (d // g[0]) for c in g[1:]) for g in x.cone.rays if g[0]] for x in (p, q, r))
    if not set(rs) <= {vadd(v, w) for v in ps for w in qs}:
        return False
    return all(
        all(sum(map(mul, n[1:], x)) >= 0 for x in tail)
        and min(sum(map(mul, n[1:], v)) for v in ps) + min(sum(map(mul, n[1:], w)) for w in qs) >= -n[0] * d
        for n in r.cone.facet_normals
    )


def cone_over(p: Polyhedron, height_index: int = 0) -> Cone:
    """Cone over a polytope placed at height 1 in one extra coordinate,
    which comes first: the polytope's own cone, with no kernel pass.
    ``height_index`` names that coordinate and must be 0 (ValueError
    otherwise)."""
    if p.rays:
        raise ValueError("cone_over requires a bounded polytope")
    if height_index:
        raise ValueError("height_index out of range")
    return p.cone


def kernel_slice(cone: Cone) -> Cone:
    """The cone ``{x in cone : x_last = 0}`` in the first coordinates: the
    level-0 slice along the divided coordinate, which the adapted frame
    puts last, as for :func:`level_slice`. No kernel pass runs: one kernel
    insertion step over the incidence gives the rays, each with its tight
    facets, and :func:`_irredundant` picks the facets among the restricted
    normals with the rays each is tight on: the slice's incidence, transposed.
    ValueError unless the cone is pointed and full-dimensional with rays on
    both sides of x_last = 0."""
    vals = [r[-1] for r in cone.rays]
    if cone.incidence is None or min(vals) >= 0 or max(vals) <= 0:
        raise ValueError("kernel slice needs a pointed full-dimensional cone with rays on both sides of x_last = 0")
    cut = sorted((r[:-1], m) for r, m in _dd_step(cone.rays, cone.incidence, vals, 0, cone.rank - 2).items() if not r[-1])
    # Normals with one restriction vanish together on x_last = 0, so their tight sets there are equal.
    facets = _irredundant([primitive_vector(n[:-1]) for n in cone.facet_normals], [m for _, m in cut], cone.rank - 2)
    facets = sorted(zip(*facets))
    incidence = _transpose([m for _, m in facets], len(cut))
    return Cone(cone.rank - 1, tuple(r for r, _ in cut), tuple(n for n, _ in facets), tuple(incidence))


def level_slice(sigma: Cone, tail: Cone, sign: int) -> Polyhedron:
    """The slice ``{x in sigma : x_last = sign}`` (sign +-1) of a pointed
    full-dimensional cone, in the first coordinates, whose level-0 slice
    :func:`kernel_slice` gave as ``tail``. No kernel pass runs: homogenized,
    the slice is spanned by (|r_last|, r[:-1]) for each ray r with
    sign * r_last > 0 and by tail's rays, and cut out by (sign * N_last, N[:-1])
    for each facet normal N of sigma tight on such an r, which the union of
    their incidence masks marks; the other facets miss the slice. ValueError
    for a cone without its incidence (one with a line or an equation), or an
    empty slice."""
    if sigma.incidence is None:
        raise ValueError("level slice needs a pointed full-dimensional cone")
    side, touched = [], 0
    for r, m in zip(sigma.rays, sigma.incidence):
        if sign * r[-1] > 0:
            side.append(r)
            touched |= m
    rays = sorted([(abs(r[-1]),) + r[:-1] for r in side] + [(0,) + t for t in tail.rays])
    facets = [(sign * n[-1],) + n[:-1] for j, n in enumerate(sigma.facet_normals) if touched >> j & 1]
    return Polyhedron(Cone(sigma.rank, tuple(rays), tuple(facets)))


def is_lattice_polyhedron(p: Polyhedron) -> bool:
    # A generator (h, y) is primitive, so the vertex y/h is integral iff h = 1.
    return all(g[0] == 1 for g in p.cone.rays if g[0])


def contains_origin_interior(p: Polyhedron) -> bool:
    """True iff p is bounded and every facet normal (N_0, n) of its cone,
    which says <n, x> >= -N_0, has N_0 > 0: then 0 is interior. An
    equation is an opposite pair of normals, so it is rejected."""
    return not p.rays and all(n[0] > 0 for n in p.cone.facet_normals)


def polar_dual(p: Polyhedron) -> Polyhedron:
    """Polar dual ``{u : <u, x> >= -1 on p}`` (origin must be interior).

    Its homogenization ``{(s, u) : s + <u, x> >= 0 on p}`` is the dual of
    p's cone, so no kernel pass runs: the facets of p are the vertices of
    the dual, and the vertices of p its facets.
    """
    if not contains_origin_interior(p):
        raise ValueError("polar dual needs the origin in the interior")
    return Polyhedron(dual_cone(p.cone))


def dual_ehrhart_counts(p: Polyhedron, kmax: int) -> list[int]:
    """Lattice point counts of the k-th dilates of the polar dual, k=1..kmax.

    Counted fibre by fibre. Once u_0..u_{j-1} are fixed, the projection
    of the dual P* onto its first j+1 coordinates bounds u_j to an exact
    interval: u_0 by P*'s extreme vertex coordinates, the last coordinate
    by P*'s facets, and each one between by the facets of the cone over a
    projection (r-2 kernel passes in rank r). Each dilate kP* is walked one
    prefix u_0..u_{r-3} at a time; on the remaining plane, the last
    coordinate's floor and ceiling bounds are lines in x = u_{r-2}, summed
    over x by :func:`_envelope_floor_sum` in integer arithmetic.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    dual = polar_dual(p).cone
    # levels[j] holds the lower and upper bounds on u_j given the prefix
    # u_0..u_{j-1}: a facet normal (N_0, rest..., a) of the projected cone
    # stands for a*u_j + <rest, prefix> >= k*c with c = -N_0, a lower bound
    # if a > 0 and an upper one if a < 0. Facets with a = 0 only restate
    # earlier levels.
    levels = []
    for j in range(1, p.rank + 1):
        if j == p.rank:
            normals = dual.facet_normals
        elif j == 1:
            first = [Fraction(g[1], g[0]) for g in dual.rays]
            lo, hi = min(first), max(first)
            normals = ((-lo.numerator, lo.denominator), (hi.numerator, -hi.denominator))
        else:
            normals = Cone.from_generators(j + 1, [g[:j + 1] for g in dual.rays]).facet_normals
        levels.append(tuple([(n[-1], -n[0], n[1:-1]) for n in normals if side * n[-1] > 0] for side in (1, -1)))
    return [_dilate_count(levels, k) for k in range(1, kmax + 1)]


def _dilate_count(levels, k: int) -> int:
    """Lattice points of the k-th dilate cut out by ``levels``.

    On the plane, a last-coordinate bound (a, c, (head..., b)) reads
    y >= ceil(L) or y <= floor(L) for L = (k*c - <head, prefix> - b*x) / a;
    -ceil(L) and floor(L) alike are floor((b*x + K) / |a|), K = <head,
    prefix> - k*c. The real fibre over each x in range is nonempty, so the
    least upper term plus the least lower one plus 1 is never negative.
    """
    plane = len(levels) - 2

    def walk(j: int, prefix: tuple) -> int:
        lower, upper = levels[j]
        lo = max(-((sum(map(mul, rest, prefix)) - k * c) // a) for a, c, rest in lower)
        hi = min((k * c - sum(map(mul, rest, prefix))) // a for a, c, rest in upper)
        if j < plane:
            return sum(walk(j + 1, prefix + (x,)) for x in range(lo, hi + 1))
        if j > plane or lo > hi:  # j > plane in rank 1, where the count is one interval
            return max(hi - lo + 1, 0)
        # map() stops at the prefix's end, so only the head meets it.
        lines = [[(rest[-1], sum(map(mul, rest, prefix)) - k * c, abs(a)) for a, c, rest in b] for b in levels[-1]]
        return hi - lo + 1 + sum(_envelope_floor_sum(group, lo, hi) for group in lines)

    return walk(0, ())


def _envelope_floor_sum(lines, lo: int, hi: int) -> int:
    """Sum over lo <= x <= hi of the least floor((b*x + K) / m) over the
    ``lines`` (b, K, m), m > 0. A least line at x stays least until a
    flatter one passes strictly below it; each such run is one
    :func:`floor_sum`. Lines compare by cross-multiplying."""
    total, x = 0, lo
    while x <= hi:
        b, K, m = lines[0]
        for bi, Ki, mi in lines[1:]:
            if (bi * x + Ki) * m < (b * x + K) * mi:
                b, K, m = bi, Ki, mi
        end = hi
        for bi, Ki, mi in lines:
            flatter = mi * b - m * bi
            if flatter > 0:  # line i is below from the first x with x * flatter > m*Ki - mi*K
                end = min(end, (m * Ki - mi * K) // flatter)
        total += floor_sum(end - x + 1, m, b, b * x + K)
        x = end + 1
    return total


def lattice_cycle(p: Polyhedron) -> list[IntVec]:
    """Int vertices of a lattice polygon, counterclockwise from the
    lexicographically smallest one.

    A lattice polygon is a bounded, full-dimensional rank-2 polyhedron
    with integral vertices; anything else raises DomainError. Its cone's
    generators then all have height 1 and come sorted, so
    :func:`convex_cycle` orders them with the height dropped.
    """
    if p.rank != 2:
        raise DomainError(f"a lattice polygon has rank 2, not {p.rank}")
    if p.rays:
        raise DomainError("a lattice polygon is bounded")
    if not is_lattice_polyhedron(p):
        raise DomainError("a lattice polygon has integral vertices")
    if len(p.cone.rays) < 3:
        raise DomainError("a lattice polygon is full-dimensional")
    return convex_cycle([g[1:] for g in p.cone.rays])


def convex_cycle(points: Sequence[Sequence]) -> list:
    """Vertices of the convex hull of lexicographically sorted distinct
    points in the plane, counterclockwise from the first.

    Andrew's monotone chain: the lower chain left to right, then the
    upper chain back. Only strict left turns survive, so points inside
    an edge, collinear inputs included, are dropped. Fewer than three
    points come back as they are.
    """
    if len(points) < 3:
        return list(points)

    def chain(seq: Iterable[Sequence]) -> list:
        out: list = []
        for x, y in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                    break
                out.pop()
            out.append((x, y))
        return out

    return chain(points)[:-1] + chain(reversed(points))[:-1]


# -- admissible pairs ---------------------------------------------------------


STATUS_YES = "yes"
STATUS_NO = "no"


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Outcome of the integral-minimum test for a pair of polyhedra.

    ``status`` is "yes" or "no". A "no" carries a counterexample
    functional in ``witness``, unless the tailcones differ. "yes" carries a
    machine-checkable ``certificate``: either one polyhedron is a lattice
    polyhedron, or a list of full-dimensional common-refinement cells of the
    two normal fans, each as its ``vertex_pair`` (one integral) and ``cell_rays``.
    """

    status: str
    reason: str
    witness: Optional[IntVec] = None
    certificate: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"status": self.status, "reason": self.reason}
        if self.witness is not None:
            out["witness"] = [str(c) for c in self.witness]
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def _integral(v: QVec) -> bool:
    return all(c.denominator == 1 for c in v)


def _refinement_cells(p: Polyhedron, q: Polyhedron) -> list[tuple[QVec, QVec, list[IntVec]]]:
    """Full-dimensional cells of the common refinement of both normal fans,
    each as its vertex pair (v, w) and the normals that span it.

    Cell(v, w) = {u : u is minimized at v on p and at w on q}, intersected
    with the dual of the tailcone. The cells cover that dual cone. They are
    the normal cones of p + q (Ziegler, *Lectures on Polytopes*, Prop. 7.12)
    at its vertices v + w, spanned by the normals of its halfspaces tight there.
    """
    r = minkowski_sum(p, q)
    corners = {x: primitive_from_rational((1,) + x) for x in r.vertices}
    cells = []
    for v in p.vertices:
        for w in q.vertices:
            x = vadd(v, w)
            if x in corners:
                cells.append((v, w, sorted(primitive_vector(n[1:]) for n in r.cone.facet_normals if sum(map(mul, n, corners[x])) == 0)))
    return cells


def _cell_witness(p: Polyhedron, q: Polyhedron, v: QVec, w: QVec, normals: list[IntVec]) -> IntVec:
    """A functional minimized at v on p and at w on q with both minima
    fractional, in a cell whose vertices v and w are both fractional.

    The walk starts at a unit vector x fractional on v, a unit vector y
    fractional on w, or x + y, whichever is fractional on both, and adds the
    primitive sum s of the spanning normals until it stops. s is interior to
    the full-dimensional cell, so it is positive on each nonzero d of those
    cutting the cell out by <u, d> >= 0 (the differences to v and w of the
    other vertices, and the tail rays): the walk stays in the cell from step
    max(0, ceil(-<start, d> / <s, d>)) on, and jumps there. Both values then
    change by integers over every D steps with D*<s, v> and D*<s, w>
    integral, so the walk stops. A zero sum makes the cell the whole space.
    """
    x = unit_vector(p.rank, next(i for i, c in enumerate(v) if c.denominator != 1))
    y = unit_vector(p.rank, next(i for i, c in enumerate(w) if c.denominator != 1))
    u = next(s for s in (x, y, vadd(x, y)) if dot(s, v).denominator != 1 and dot(s, w).denominator != 1)
    total = [sum(c) for c in zip(*normals)]
    step = primitive_vector(total) if any(total) else total
    bounds = [vsub(z, v) for z in p.vertices] + [vsub(z, w) for z in q.vertices] + list(p.rays)
    rates = [(dot(u, d), dot(step, d)) for d in bounds]
    u = vadd(u, vscale(max([0] + [-(a // b) for a, b in rates if b]), step))
    while dot(u, v).denominator == 1 or dot(u, w).denominator == 1:
        u = vadd(u, step)
    return u


def is_admissible_pair(p: Polyhedron, q: Polyhedron) -> AdmissibilityVerdict:
    """Decide whether every integral functional bounded below on both
    polyhedra attains an integral minimum on at least one of them.

    "yes" with a certificate, or "no": with no witness if the tailcones
    differ, else with the least (sup norm, then tuple order) of the
    witnesses :func:`_cell_witness` builds in the cells with no integral vertex.
    """
    if p.rank != q.rank:
        raise ValueError("rank mismatch in admissible pair test")
    if set(p.rays) != set(q.rays):
        return AdmissibilityVerdict(STATUS_NO, "tailcones differ")
    for which, (name, lattice) in enumerate((("first", p), ("second", q))):
        if is_lattice_polyhedron(lattice):
            certificate = {"kind": "lattice_polyhedron", "which": which}
            return AdmissibilityVerdict(STATUS_YES, f"{name} polyhedron has integral vertices", certificate=certificate)
    # Complete, since a polyhedron never contains a line and so its tail is
    # pointed: each full-dimensional cell picks one vertex from each, and an
    # integral v or w settles all u in the cell at once.
    cells = _refinement_cells(p, q)
    witnesses = [_cell_witness(p, q, v, w, normals) for v, w, normals in cells if not (_integral(v) or _integral(w))]
    if witnesses:
        u = min(witnesses, key=lambda u: (max(map(abs, u)), u))
        reason = f"functional with fractional minima {p.support_minimum(u)} and {q.support_minimum(u)}"
        return AdmissibilityVerdict(STATUS_NO, reason, witness=u)
    records = [
        {"vertex_pair": ([str(c) for c in v], [str(c) for c in w]),
         "cell_rays": [[str(c) for c in n] for n in normals]}
        for v, w, normals in cells
    ]
    reason = "normal-fan refinement certificate: every full-dimensional cell has an integral minimizing vertex"
    return AdmissibilityVerdict(STATUS_YES, reason, certificate={"kind": "refinement", "cells": records})


def verify_admissibility(p: Polyhedron, q: Polyhedron, verdict: AdmissibilityVerdict) -> bool:
    """Independently re-check a verdict's evidence. Returns True if it holds,
    and False for any verdict it cannot re-derive, a status other than
    "yes" or "no" included.

    Evidence that cannot be read (a missing key, or a value of the wrong
    type or length) is refused, not raised on; only its reading is
    guarded, so errors from p and q themselves propagate.
    """

    def read(coords, exact=exact_int) -> tuple:
        v = tuple(map(exact, coords))
        if len(v) != p.rank:
            raise ValueError(f"expected {p.rank} coordinates, got {len(v)}")
        return v

    try:
        witness, cert = verdict.witness, verdict.certificate
        witness = witness if witness is None else read(witness)
        kind = cert and cert["kind"]
        if kind == "lattice_polyhedron":
            if type(cert["which"]) is not int or cert["which"] not in (0, 1):  # -1 and True index (p, q) too
                raise ValueError("which names p or q as 0 or 1")
            lattice = (p, q)[cert["which"]]
        elif kind == "refinement":
            cells = []
            for cell in cert["cells"]:
                v, w = (read(x, exact_fraction) for x in cell["vertex_pair"])
                cells.append((v, w, [read(r) for r in cell["cell_rays"]]))
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
        return False
    same_tail = set(p.rays) == set(q.rays)
    if verdict.status == STATUS_NO:
        if witness is None or not same_tail:  # unequal tails need no witness
            return witness is None and not same_tail
        mp, mq = p.support_minimum(witness), q.support_minimum(witness)
        return mp is not None and mq is not None and mp.denominator != 1 and mq.denominator != 1
    if verdict.status == STATUS_YES and same_tail:
        if kind == "lattice_polyhedron":
            return is_lattice_polyhedron(lattice)
        if kind == "refinement":
            listed = set()
            for v, w, rays in cells:
                if not (_integral(v) or _integral(w)) or v not in p.vertices or w not in q.vertices:
                    return False
                if any(p.support_minimum(r) != dot(r, v) or q.support_minimum(r) != dot(r, w) for r in rays):
                    return False
                listed.add((v, w))
            # The full-dimensional cells are the normal cones of p + q at its
            # vertices, and each vertex is the sum of exactly one vertex pair;
            # every such pair must be listed, or the cells need not cover.
            corners = set(minkowski_sum(p, q).vertices)
            return all(
                (v, w) in listed for v in p.vertices for w in q.vertices if vadd(v, w) in corners
            )
    return False
