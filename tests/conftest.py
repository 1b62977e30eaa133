import random
import re
from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm
from typing import Optional, Sequence

import pytest

from laumut.exactlat import (
    MAX_RANK,
    adapted_basis,
    content,
    dot,
    inverse_unimodular,
    mat_mul,
    mat_vec,
    primitive_vector,
    transpose,
    unit_vector,
    vneg,
    vscale,
    vsub,
    xgcd,
)
from laumut.exactlat import primitive_from_rational
from laumut.laurent import (
    LaurentPolynomial,
    ParseError,
    act_unimodular,
    divide_exact,
    newton_polytope,
    parse,
    variable_names,
)
from laumut.mutation import MutationCheck, MutationSpec, SliceCheck
from laumut.mutgraph import CanonicalForm
from laumut.polyhedra import (
    Cone,
    Polyhedron,
    contains_origin_interior,
    convex_cycle,
    dual_cone,
    extreme_rays,
    hull,
)

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


@pytest.fixture
def acceptance_recorder():
    return record_acceptance


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# -- exact elimination oracles ------------------------------------------------


def _bareiss(m: list[list[int]]) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an integer matrix, in place.

    Pivot p at (r, c), after pivot ``prev``, turns every other row into
    ``(p*row - row[c]*m[r]) / prev``, exactly, since each entry stays a minor
    of the input (Sylvester's identity). Returns ``(rank, sign)``; the pivot
    columns then hold d*I for the last pivot d, and a full-rank square
    matrix has determinant sign*d.
    """
    rank, prev, sign = 0, 1, 1
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        row = m[rank]
        p = row[c]
        for i, other in enumerate(m):
            if i != rank:
                f = other[c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(other, row)]
        prev = p
        rank += 1
        if rank == len(m):
            break
    return rank, sign


def matrix_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix given by its rows (int or Fraction entries)."""
    m = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        m.append([int(x * d) for x in row])
    return _bareiss(m)[0]


def determinant(a: Sequence[Sequence[int]]) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    m = [list(row) for row in a]
    rank, sign = _bareiss(m)
    if rank < n:
        return 0
    return sign * m[-1][-1] if m else 1


def random_unimodular(rng, n):
    """A random n x n integer matrix of determinant +-1."""
    if n == 1:
        return ((rng.choice([-1, 1]),),)
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return tuple(tuple(r) for r in m)


def random_poly(rng, rank, terms, positive=False):
    out = {}
    while len(out) < terms:
        e = tuple(rng.randint(-3, 3) for _ in range(rank))
        c = rng.randint(1, 5) if positive else rng.choice([-2, -1, 1, 2])
        out[e] = Fraction(c)
    return LaurentPolynomial.from_terms(rank, out)


def random_mutable_pair(rng, rank):
    """A polynomial guaranteed divisible at its positive levels, plus its spec.

    Built in the adapted frame: level i > 0 carries q_i * g^i, the other
    levels are arbitrary, then everything transports through a random
    unimodular basis.
    """
    basis = random_unimodular(rng, rank)
    inv = inverse_unimodular(basis)
    direction = tuple(inv[-1])
    g = random_poly(rng, rank - 1, terms=rng.randint(1, 3), positive=True)
    spec = MutationSpec.from_adapted(direction, basis, g)
    high = rng.randint(1, 2)
    low = -rng.randint(1, 2)
    terms = []
    for level in range(low, high + 1):
        if level > 0:
            part = random_poly(rng, rank - 1, terms=rng.randint(1, 2)) * g ** level
        elif rng.random() < 0.8 or level == low:
            part = random_poly(rng, rank - 1, terms=rng.randint(1, 3))
        else:
            continue
        for e, c in part.terms:
            terms.append((e + (level,), c))
    adapted = LaurentPolynomial.from_terms(rank, terms)
    return act_unimodular(adapted, basis), spec


# Reflexive polygons of the worked examples: F3, F4 (the pentagon, also as
# dP7), the hexagon, P1xP1 and P2.
WORKED_POLYGONS = (
    "x^-1*y + 2*y + x*y + y^-1",
    "x^-1 + x^-1*y + y + y^-1 + x*y^-1",
    "x + x*y + y + x^-1 + y^-1",
    "x + x*y + y + x^-1 + x^-1*y^-1 + y^-1",
    "x + y + x^-1 + y^-1",
    "x + y + x^-1*y^-1",
)


@cache
def seeded_family_cases():
    """The worked families F3 and F4, then 15 seeded mutable pairs in each
    of ranks 2, 3 and 4 whose Newton polytope holds the origin inside."""
    spec = MutationSpec.from_direction((0, 1), parse("1 + x", rank=2))
    cases = [(parse(text), spec) for text in ("x^-1*y + 2*y + x*y + y^-1", "x^-1 + x^-1*y + y + y^-1 + x*y^-1")]
    for rank in (2, 3, 4):
        rng = random.Random(60 + rank)
        start = len(cases)
        while len(cases) < start + 15:
            f, spec = random_mutable_pair(rng, rank)
            if contains_origin_interior(newton_polytope(f)):
                cases.append((f, spec))
    return tuple(cases)


def fraction_vertex_cycle(p):
    """Oracle for ``lattice_cycle``: the Fraction vertices of a bounded
    rank-2 polyhedron, counterclockwise from the lexicographically
    smallest, chained as they are stored, with no lattice or dimension
    check (a segment or a point comes back as its sorted vertex list)."""
    if p.rank != 2:
        raise ValueError("vertex cycle is defined for rank 2")
    if p.rays:
        raise ValueError("vertex cycle needs a bounded polyhedron")
    return convex_cycle(p.vertices)


def normalized_volume_2d(p):
    """Twice the euclidean area of a rank-2 polytope (shoelace, exact)."""
    cyc = fraction_vertex_cycle(p)
    if len(cyc) < 3:
        return Fraction(0)
    s = Fraction(0)
    for i in range(len(cyc)):
        x0, y0 = cyc[i]
        x1, y1 = cyc[(i + 1) % len(cyc)]
        s += x0 * y1 - x1 * y0
    return abs(s)


def kernel_polar_dual(p):
    """Oracle for ``polar_dual``: the dual cut out by one halfspace
    ``<v, u> >= -1`` per vertex v of p and canonicalized by the double
    description kernel, instead of read off p's canonical presentation."""
    if not contains_origin_interior(p):
        raise ValueError("polar dual needs the origin in the interior")
    normals = [unit_vector(p.rank + 1, 0)]
    normals += [primitive_from_rational((1,) + v) for v in p.vertices]
    return Polyhedron(dual_cone(Cone.from_generators(p.rank + 1, normals)))


@pytest.fixture
def polar_dual_oracle():
    return kernel_polar_dual


def box_scan_dual_counts(p, kmax):
    """Brute-force oracle for ``dual_ehrhart_counts``: test every point of
    the polar dual's dilated bounding box against every vertex of p."""
    dual = kernel_polar_dual(p)
    bounds = [max(abs(v[i]) for v in dual.vertices) for i in range(p.rank)]
    counts = []
    for k in range(1, kmax + 1):
        boxes = [range(-int(k * b), int(k * b) + 1) for b in bounds]
        counts.append(sum(1 for u in product(*boxes) if all(dot(u, v) >= -k for v in p.vertices)))
    return counts


@pytest.fixture
def box_scan():
    return box_scan_dual_counts


def fibre_walk_counts(p, kmax):
    """Oracle for ``dual_ehrhart_counts``: the fibre walk that visits every
    value of every coordinate but the last. The kernel's polar dual and a
    hull of its projection onto each coordinate prefix (the first one
    included) bound each coordinate given the ones before it, and the last
    coordinate adds the length of its interval."""
    dual = kernel_polar_dual(p)
    levels = []
    for j in range(1, p.rank + 1):
        proj = dual if j == p.rank else hull([v[:j] for v in dual.vertices])
        lower, upper = [], []
        for normal, offset in proj.halfspaces:
            d = offset.denominator
            a = normal[-1] * d
            if a:
                bound = (a, offset.numerator, tuple(x * d for x in normal[:-1]))
                (lower if a > 0 else upper).append(bound)
        levels.append((lower, upper))

    def walk(k, j, prefix):
        lower, upper = levels[j]
        lo = max(-((dot(rest, prefix) - k * c) // a) for a, c, rest in lower)
        hi = min((k * c - dot(rest, prefix)) // a for a, c, rest in upper)
        if j == len(levels) - 1:
            return max(hi - lo + 1, 0)
        return sum(walk(k, j + 1, prefix + (x,)) for x in range(lo, hi + 1))

    return [walk(k, 0, ()) for k in range(1, kmax + 1)]


@pytest.fixture
def fibre_walk():
    return fibre_walk_counts


def recompute_extreme_rays(constraints, rank):
    """Oracle for ``extreme_rays``: the same double description method,
    but every ray's tight set is recomputed against all earlier
    constraints on each step instead of being carried as a bitmask."""
    lineality = [unit_vector(rank, i) for i in range(rank)]
    rays = []
    seen = []
    for a in constraints:
        if len(a) != rank:
            raise ValueError(f"constraint of length {len(a)} in rank {rank}")
        if not any(a):
            continue
        lvals = [dot(a, l) for l in lineality]
        if any(lvals):
            j0 = next(j for j, val in enumerate(lvals) if val)
            l0, v0 = lineality[j0], lvals[j0]
            if v0 < 0:
                l0, v0 = vneg(l0), -v0
            new_lin = []
            for j, l in enumerate(lineality):
                if j == j0:
                    continue
                lv = dot(a, l)
                new_lin.append(primitive_vector(vsub(vscale(v0, l), vscale(lv, l0))) if lv else l)
            rays = [
                primitive_vector(vsub(vscale(v0, r), vscale(dot(a, r), l0))) if dot(a, r) else r
                for r in rays
            ]
            rays.append(l0)
            lineality = new_lin
        else:
            vals = [dot(a, r) for r in rays]
            if min(vals, default=0) < 0:
                act = [frozenset(j for j, c in enumerate(seen) if dot(c, r) == 0) for r in rays]
                newrays = [r for r, val in zip(rays, vals) if val >= 0]
                pos = [i for i, val in enumerate(vals) if val > 0]
                neg = [i for i, val in enumerate(vals) if val < 0]
                for ip in pos:
                    for im in neg:
                        common = act[ip] & act[im]
                        if any(k != ip and k != im and common <= act[k] for k in range(len(rays))):
                            continue
                        comb = vsub(vscale(vals[ip], rays[im]), vscale(vals[im], rays[ip]))
                        newrays.append(primitive_vector(comb))
                uniq = []
                for r in newrays:
                    if r not in uniq:
                        uniq.append(r)
                rays = uniq
        seen.append(a)
    return sorted(set(rays)), sorted(lineality)


@pytest.fixture
def recompute_dd():
    return recompute_extreme_rays


def two_pass_cone_from_generators(rank, generators):
    """Oracle for ``Cone.from_generators``: one kernel pass from the
    generators to the facet normals and a second one back to the rays,
    with no incidence read-off."""
    gens = sorted({primitive_vector(tuple(g)) for g in generators if any(g)})
    dual_r, dual_l = extreme_rays(gens, rank)
    normals = sorted(dual_r + dual_l + [vneg(l) for l in dual_l])
    ray_r, ray_l = extreme_rays(normals, rank)
    rays = sorted(ray_r + ray_l + [vneg(l) for l in ray_l])
    return Cone(rank, tuple(rays), tuple(normals))


def three_pass_cone_from_normals(rank, normals):
    """Oracle for the cone cut out by ``normals``, which the library reads
    as ``dual_cone(Cone.from_generators(rank, normals))``: one kernel pass
    from the normals to the rays, then the two passes of the generator
    oracle."""
    ray_r, ray_l = extreme_rays(sorted({n for n in normals if any(n)}), rank)
    return two_pass_cone_from_generators(rank, ray_r + ray_l + [vneg(l) for l in ray_l])


def generator_dual_cone(cone):
    """Oracle for ``dual_cone``: the cone spanned by the facet normals,
    canonicalized by the kernel instead of read off by swapping sides."""
    return Cone.from_generators(cone.rank, cone.facet_normals)


@pytest.fixture
def multi_pass_cones():
    return two_pass_cone_from_generators, three_pass_cone_from_normals


@pytest.fixture
def dual_cone_oracle():
    return generator_dual_cone


def dot_product_irredundant(vectors, duals):
    """Oracle for ``polyhedra._irredundant``: each vector's tight set is
    computed by a dot product with every dual generator instead of being
    read off the kernel's masks."""
    masks = [sum(1 << j for j, d in enumerate(duals) if not dot(v, d)) for v in vectors]
    if (1 << len(duals)) - 1 in masks:
        return None
    need = len(vectors[0]) - 1 if vectors else 0
    cand = [i for i, m in enumerate(masks) if m.bit_count() >= need]
    return [
        vectors[i]
        for i in cand
        if not any(masks[k] & masks[i] == masks[i] for k in cand if k != i)
    ]


@pytest.fixture
def irredundant_oracle():
    return dot_product_irredundant


def per_level_power_is_mutation(f, spec):
    """Oracle for ``is_mutation``: the adapted-frame algorithm. f moves to
    the adapted frame, its terms are grouped by their last exponent, every
    level builds its own divisor power g ** |level| from scratch, and the
    reassembled polynomial moves back to the original coordinates."""
    n = spec.rank - 1
    levels = {}
    for e, c in spec.to_adapted(f).terms:
        levels.setdefault(e[n], []).append((e[:n], c))
    parts = {level: LaurentPolynomial.from_terms(n, terms) for level, terms in sorted(levels.items())}
    low, high = min(parts), max(parts)
    g = spec.divisor
    quotients = {level: divide_exact(part, g ** level) for level, part in parts.items() if level > 0}
    checks = tuple(SliceCheck(level, q is not None) for level, q in quotients.items())
    if any(q is None for q in quotients.values()):
        return False, MutationCheck(low, high, checks)
    parts = {level: part * g ** (-level) if level < 0 else part for level, part in parts.items()}
    parts.update(quotients)
    terms = [(e + (level,), c) for level, part in parts.items() for e, c in part.terms]
    mutated = act_unimodular(LaurentPolynomial.from_terms(spec.rank, terms), spec.basis)
    return True, MutationCheck(low, high, checks, mutated)


@pytest.fixture
def per_level_powers():
    return per_level_power_is_mutation


def classical_periods(f, kmax):
    """Oracle for mutation on every coefficient: the classical period
    pi_f(k), the constant term of f^k, for k = 0..kmax. It is invariant
    under mutation (Akhtar-Coates-Galkin-Kasprzyk, arXiv:1212.1785).

    Its own dict product builds f^j once for each j <= ceil(kmax/2); then
    pi(k) pairs the coefficients of opposite exponents in f^a and f^(k-a),
    a = ceil(k/2). No __mul__, __pow__ or divide_exact."""
    base = [(e, c.numerator if c.denominator == 1 else c) for e, c in f.terms]
    powers = [{(0,) * f.rank: 1}]
    for _ in range((kmax + 1) // 2):
        product = {}
        for e, c in powers[-1].items():
            for d, b in base:
                x = tuple(i + j for i, j in zip(e, d))
                product[x] = product.get(x, 0) + c * b
        powers.append({e: c for e, c in product.items() if c})
    periods = []
    for k in range(kmax + 1):
        low = powers[k // 2]
        periods.append(sum(c * low.get(tuple(-i for i in e), 0) for e, c in powers[(k + 1) // 2].items()))
    return tuple(periods)


@pytest.fixture
def period_oracle():
    return classical_periods


def adapted_basis_facet_spec(facet):
    """Oracle for ``mutation._facet_spec``: the adapted basis of the edge
    normal built and transposed here, with the divisor 1 + x written
    directly in the one kernel coordinate."""
    u = facet.direction
    w, kernel = adapted_basis(u)
    return MutationSpec(2, u, transpose(list(kernel) + [w]), LaurentPolynomial.from_terms(1, {(0,): 1, (1,): 1}))


@pytest.fixture
def facet_spec_oracle():
    return adapted_basis_facet_spec


def full_support_hull(f):
    """Oracle for ``newton_polytope``: the hull of every exponent of f,
    with no extreme-point prefilter."""
    return hull([tuple(Fraction(c) for c in e) for e in f.support()])


@pytest.fixture
def support_hull():
    return full_support_hull


def cone_level_slice(cone, u, level):
    """Oracle for the family's level slices: ``{x in cone : u(x) = level}``
    cut out of the cone's facet normals, in the coordinates of the adapted
    basis of u (a point t is ``level*w + sum_i t_i k_i``)."""
    u = tuple(u)
    if level not in (1, -1):
        raise ValueError("slice level must be +1 or -1")
    if content(u) != 1:
        raise ValueError("slice direction must be a primitive functional")
    if all(level * dot(u, r) <= 0 for r in cone.rays):
        raise ValueError("the slice is empty: no ray of the cone at that level")
    w, kernel = adapted_basis(u)
    normals = [unit_vector(len(u), 0)]
    normals += [(level * dot(n, w),) + tuple(dot(n, k) for k in kernel) for n in cone.facet_normals]
    return Polyhedron(dual_cone(Cone.from_generators(len(u), normals)))


@pytest.fixture
def level_slice_oracle():
    return cone_level_slice


def dot_incidence(cone):
    """A cone's incidence by dot products: bit j of entry i is set iff
    ``facet_normals[j]`` vanishes on ``rays[i]``."""
    return tuple(sum(1 << j for j, n in enumerate(cone.facet_normals) if not dot(n, r)) for r in cone.rays)


def kernel_pass_slice(cone):
    """Oracle for ``kernel_slice``: the cone cut out by the facet normals
    with their last coordinate dropped, canonicalized by one kernel pass
    instead of read off the cone's incidence, and given its incidence by
    dot products when it is pointed and full-dimensional. It takes any cone."""
    tau = dual_cone(Cone.from_generators(cone.rank - 1, [n[:-1] for n in cone.facet_normals]))
    if any(vneg(v) in side for side in (tau.rays, tau.facet_normals) for v in side):
        return tau
    return Cone(tau.rank, tau.rays, tau.facet_normals, dot_incidence(tau))


@pytest.fixture
def kernel_slice_oracle():
    return kernel_pass_slice


def cold_gluing(fam, mutated_adapted):
    """Oracle for the family's three continued kernel passes: Delta_0^0,
    Delta_0^1 and sigma_inf, each as one cold pass over its full generator
    list, tau's rays and Delta_0^0's rays inserted again. ``fam`` gives
    sigma, tau and the spec; ``mutated_adapted`` is the mutated polynomial
    in the adapted frame. Returns the three cones."""
    n = fam.spec.rank
    tail_gens = [(0,) + r for r in fam.tail.rays]
    gens00 = [(e[-1], 1) + e[:-1] for e in mutated_adapted.support() if e[-1] > 0]
    delta00 = Cone.from_generators(n + 1, gens00 + tail_gens)
    delta01 = Cone.from_generators(n + 1, [(1, 0) + e for e in fam.spec.divisor.support()] + tail_gens)
    gens = [r + (0,) for r in fam.tail.rays] + [g[1:] + (g[0],) for g in delta00.rays if g[0]]
    down = [r for r in fam.sigma.rays if r[-1] < 0]
    verts01 = [g[1:] for g in delta01.rays if g[0]]
    gens += [tuple(-r[-1] * a + b for a, b in zip(v, r[:-1])) + (r[-1],) for v in verts01 for r in down]
    return delta00, delta01, Cone.from_generators(n + 1, gens)


@pytest.fixture
def cold_gluing_oracle():
    return cold_gluing


def hull_level_slice(points, sign, tail):
    """Oracle for ``polyhedra.level_slice``: the level-``sign`` slice of the
    pointed cone over ``points`` (divided exponent last), as the hull of
    each (1, x)/|i| with sign * i > 0, plus ``tail``."""
    pts = [tuple(Fraction(c, abs(e[-1])) for c in (1,) + e[:-1]) for e in points if sign * e[-1] > 0]
    return hull(pts, tail.rays)


@pytest.fixture
def hull_slice_oracle():
    return hull_level_slice


def from_terms_act_unimodular(f, matrix):
    """Oracle for ``act_unimodular``: every mapped term summed again by
    ``from_terms``, as if two exponents could meet."""
    if abs(determinant(matrix)) != 1:
        raise ValueError("matrix is not unimodular")
    return LaurentPolynomial.from_terms(f.rank, [(mat_vec(matrix, e), c) for e, c in f.terms])


@pytest.fixture
def act_unimodular_oracle():
    return from_terms_act_unimodular


def mat_vec_canonical_form(p):
    """Oracle for ``canonical_form``: the same minimum over (vertex, edge,
    orientation, sign) frames, with each candidate map and its shear
    applied by the generic ``mat_vec`` and composed by ``mat_mul``."""
    if p.rank != 2:
        raise ValueError("canonical forms are defined for rank 2")
    if p.rays:
        raise ValueError("canonical forms need a bounded polytope")
    if any(c.denominator != 1 for v in p.vertices for c in v):
        raise ValueError("canonical forms need a lattice polygon")
    if span_rank_dim(p) != 2:
        raise ValueError("canonical forms need a full-dimensional polygon")
    cyc = [tuple(int(c) for c in v) for v in fraction_vertex_cycle(p)]
    m = len(cyc)
    best = None
    best_map = None
    for seq0 in (cyc, list(reversed(cyc))):
        for start in range(m):
            seq = seq0[start:] + seq0[:start]
            d = primitive_vector(vsub(seq[1], seq[0]))
            _, alpha, beta = xgcd(d[0], d[1])
            for sign in (1, -1):
                base = ((alpha, beta), (-sign * d[1], sign * d[0]))
                img = [mat_vec(base, v) for v in seq]
                j = next(i for i, w in enumerate(img) if w[1])
                x, y = img[j]
                t = (x % abs(y) - x) // y
                shear = ((1, t), (0, 1))
                cand = tuple(mat_vec(shear, w) for w in img)
                if best is None or cand < best:
                    best = cand
                    best_map = mat_mul(shear, base)
    return CanonicalForm(best), best_map


@pytest.fixture
def canonical_form_oracle():
    return mat_vec_canonical_form


def newton_hull_divide_exact(a, b):
    """Oracle for ``divide_exact``: the same lexicographic peel, with the
    candidate quotient exponents confined by a hull instead of a box, to
    the lattice points whose translate of the divisor's Newton polytope
    fits inside the dividend's."""
    a._check(b)
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return a
    eb, cb = min(b.terms)
    if b.is_monomial():
        q = {tuple(x - y for x, y in zip(e, eb)): c / cb for e, c in a.terms}
        return LaurentPolynomial.from_terms(a.rank, q)
    fits = [
        (normal, offset - min(dot(normal, e) for e in b.support()))
        for normal, offset in newton_polytope(a).halfspaces
    ]
    remainder = dict(a.terms)
    quotient = {}
    while remainder:
        er = min(remainder)
        eq = tuple(x - y for x, y in zip(er, eb))
        if not all(dot(n, eq) >= c for n, c in fits):
            return None
        cq = remainder[er] / cb
        quotient[eq] = cq
        for e, c in b.terms:
            key = tuple(x + y for x, y in zip(e, eq))
            val = remainder.get(key, Fraction(0)) - cq * c
            if val:
                remainder[key] = val
            else:
                remainder.pop(key, None)
    return LaurentPolynomial.from_terms(a.rank, quotient)


@pytest.fixture
def hull_bound_divide():
    return newton_hull_divide_exact


def fraction_peel_divide_exact(a, b):
    """Oracle for ``divide_exact``: the same box-bounded peel, over Fraction
    coefficients, with no scaling to integers. A candidate exponent outside
    the box min_i(a) - min_i(b) <= e_i <= max_i(a) - max_i(b) proves
    non-divisibility."""
    a._check(b)
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return a
    eb, cb = min(b.terms)
    if b.is_monomial():
        q = {tuple(x - y for x, y in zip(e, eb)): c / cb for e, c in a.terms}
        return LaurentPolynomial.from_terms(a.rank, q)
    box = [(min(x) - min(y), max(x) - max(y)) for x, y in zip(zip(*a.support()), zip(*b.support()))]
    remainder = dict(a.terms)
    quotient = {}
    while remainder:
        er = min(remainder)
        eq = tuple(x - y for x, y in zip(er, eb))
        if not all(lo <= x <= hi for x, (lo, hi) in zip(eq, box)):
            return None
        cq = remainder[er] / cb
        quotient[eq] = cq
        for e, c in b.terms:
            key = tuple(x + y for x, y in zip(e, eq))
            val = remainder.get(key, Fraction(0)) - cq * c
            if val:
                remainder[key] = val
            else:
                remainder.pop(key, None)
    return LaurentPolynomial.from_terms(a.rank, quotient)


@pytest.fixture
def divide_exact_oracle():
    return fraction_peel_divide_exact


def homogenized_clip(p, box):
    """Oracle for ``render._clip``: an unbounded p's homogenized facet
    normals beside the box's, xmin*h <= x <= xmax*h and ymin*h <= y <= ymax*h
    on (h, x, y), spanned as a cone and dualized."""
    if not p.rays:
        return p
    xmin, xmax, ymin, ymax = box
    facets = [(-xmin, 1, 0), (xmax, -1, 0), (-ymin, 0, 1), (ymax, 0, -1)]
    return Polyhedron(dual_cone(Cone.from_generators(3, list(p.cone.facet_normals) + facets)))


@pytest.fixture
def clip_oracle():
    return homogenized_clip


def kernel_cone_over(p):
    """Oracle for ``cone_over``: the vertices lifted to height 1 in a new
    first coordinate, canonicalized by the double description kernel,
    whatever the polytope's dimension."""
    if p.rays:
        raise ValueError("cone_over requires a bounded polytope")
    return Cone.from_generators(p.rank + 1, [primitive_from_rational((1,) + v) for v in p.vertices])


@pytest.fixture
def cone_over_oracle():
    return kernel_cone_over


def fraction_dehomogenize(cone):
    """Oracle for the views of ``Polyhedron(cone)``: (rank, vertices, rays,
    halfspaces) of the polyhedron whose homogenization is ``cone``, built
    as Fraction fields. Generators at positive height in the first
    coordinate give its vertices, those at height 0 its rays, and facet
    normals other than ``x0 >= 0`` its halfspaces. The cone lies in
    ``x0 >= 0``, so a line in it lies at height 0 and shows as an opposite
    pair among the rays."""
    rays = [g[1:] for g in cone.rays if not g[0]]
    if any(vneg(r) in rays for r in rays):
        raise ValueError("polyhedron contains a line")
    verts = [tuple(Fraction(c, g[0]) for c in g[1:]) for g in cone.rays if g[0]]
    if not verts:
        raise ValueError("empty polyhedron")
    halfspaces = []
    for c in cone.facet_normals:
        normal = c[1:]
        if any(normal):
            g = content(normal)
            halfspaces.append((tuple(x // g for x in normal), Fraction(-c[0], g)))
    return cone.rank - 1, tuple(sorted(verts)), tuple(sorted(rays)), tuple(sorted(halfspaces))


@pytest.fixture
def dehomogenize_oracle():
    return fraction_dehomogenize


def pairwise_refinement_cells(p, q):
    """Oracle for ``polyhedra._refinement_cells``: each vertex pair (v, w)
    with the generators of its cell from its own kernel pass over the
    vertex differences and the rays, kept when they have full rank."""
    rank = p.rank
    cells = []
    for v in p.vertices:
        for w in q.vertices:
            cons = set()
            for v2 in p.vertices:
                if v2 != v:
                    cons.add(primitive_from_rational(vsub(v2, v)))
            for w2 in q.vertices:
                if w2 != w:
                    cons.add(primitive_from_rational(vsub(w2, w)))
            cons.update(p.rays)
            cons.update(q.rays)
            ray_r, ray_l = extreme_rays(sorted(cons), rank)
            gens = ray_r + ray_l + [vneg(l) for l in ray_l]
            if matrix_rank(gens) >= rank:
                cells.append((v, w, gens))
    return cells


def views(p):
    """A polyhedron's derived fields, which equality (semantic, on cones) does not compare."""
    return p.rank, p.vertices, p.rays, p.halfspaces


def recession_cone(p):
    """The recession cone of a polyhedron, spanned by its rays."""
    return Cone.from_generators(p.rank, p.rays)


def span_rank_dim(p):
    """Dimension of a polyhedron's affine hull: the rank of the vertices'
    differences from the first vertex together with the rays, in Fractions."""
    v0 = p.vertices[0]
    return matrix_rank([vsub(v, v0) for v in p.vertices[1:]] + list(p.rays))


# -- text boundary oracles --------------------------------------------------


def fraction_to_string(f):
    """Oracle for ``to_string``: the same text, with each coefficient
    formatted through ``abs``, ``str`` of a Fraction and Fraction
    comparisons instead of its numerator and denominator."""
    if f.is_zero():
        return "0"
    names = variable_names(f.rank)
    parts: list[str] = []
    for e, c in f.terms:
        factors = []
        for i, p in enumerate(e):
            if p == 1:
                factors.append(names[i])
            elif p:
                factors.append(f"{names[i]}^{p}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


@pytest.fixture
def to_string_oracle():
    return fraction_to_string


_ORACLE_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


def _oracle_tokenize(text: str):
    """One regex match and four named-group lookups per token; every bad
    character or parenthesis is raised before the grammar is walked."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _ORACLE_TOKEN.match(text, pos)
        if not m:
            break
        if m.group("bad"):
            raise ParseError(f"unexpected character {m.group('bad')!r}", m.start("bad"))
        if m.group("int"):
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            op = m.group("op")
            if op in "()":
                raise ParseError("parentheses are not part of the grammar", m.start("op"))
            tokens.append(("op", op, m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _oracle_variable_index(name: str, position: int) -> tuple[str, int]:
    """(style, index) where style is "xyz" or "zn"."""
    if name in ("x", "y", "z"):
        return "xyz", "xyz".index(name)
    m = re.fullmatch(r"z(\d+)", name)
    if m:
        idx = int(m.group(1))
        if idx == 0:
            raise ParseError("variable indices start at z1", position)
        return "zn", idx - 1
    raise ParseError(f"unknown variable {name!r}", position)


class _OracleParser:
    """Recursive-descent walk over ``_oracle_tokenize``'s token list."""

    def __init__(self, text: str):
        self.tokens = _oracle_tokenize(text)
        self.i = 0
        self.style: Optional[str] = None
        self.max_index = -1
        self.max_index_pos = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_int(self, what: str) -> int:
        kind, val, pos = self.next()
        if kind != "int":
            raise ParseError(f"expected {what}", pos)
        return val

    def parse_exponent(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            if val == "-":
                sign = -1
        return sign * self.expect_int("an integer exponent")

    def parse_factor(self, exps: dict[int, int]):
        kind, val, pos = self.next()
        assert kind == "name"
        style, idx = _oracle_variable_index(val, pos)
        if self.style is None:
            self.style = style
        elif self.style != style:
            raise ParseError("cannot mix x/y/z and z1..zn variable names", pos)
        if idx > self.max_index:
            self.max_index = idx
            self.max_index_pos = pos
        power = 1
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            power = self.parse_exponent()
        exps[idx] = exps.get(idx, 0) + power

    def parse_coefficient(self) -> Fraction:
        num = self.expect_int("a coefficient")
        kind, val, _ = self.peek()
        if kind == "op" and val == "/":
            self.next()
            pos = self.peek()[2]
            den = self.expect_int("a denominator")
            if den == 0:
                raise ParseError("zero denominator", pos)
            return Fraction(num, den)
        return Fraction(num)

    def parse_term(self) -> tuple[dict[int, int], Fraction]:
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                if val == "-":
                    sign = -sign
            else:
                break
        coeff = Fraction(sign)
        exps: dict[int, int] = {}
        kind, val, pos = self.peek()
        if kind == "int":
            coeff *= self.parse_coefficient()
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                kind, val, pos = self.peek()
            else:
                return exps, coeff
        if kind != "name":
            raise ParseError("expected a variable", pos)
        while True:
            self.parse_factor(exps)
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                kind, val, pos = self.peek()
                if kind != "name":
                    raise ParseError("expected a variable after '*'", pos)
            else:
                return exps, coeff

    def parse(self, rank: Optional[int]) -> LaurentPolynomial:
        terms: list[tuple[dict[int, int], Fraction]] = []
        kind, val, pos = self.peek()
        if kind == "end":
            raise ParseError("empty polynomial", pos)
        terms.append(self.parse_term())
        while True:
            kind, val, pos = self.peek()
            if kind == "end":
                break
            if not (kind == "op" and val in "+-"):
                raise ParseError("expected '+' or '-' between terms", pos)
            terms.append(self.parse_term())
        inferred = self.max_index + 1
        if self.style == "xyz":
            inferred = max(inferred, 1)
        if rank is None:
            rank = max(inferred, 1)
        elif inferred > rank:
            raise ParseError(f"variable index exceeds rank {rank}", self.max_index_pos)
        out = []
        for exps, coeff in terms:
            vec = [0] * rank
            for idx, p in exps.items():
                vec[idx] = p
            out.append((tuple(vec), coeff))
        return LaurentPolynomial.from_terms(rank, out)


def per_token_parse(text, rank=None):
    """Oracle for ``parse``: a per-token tokenizer and a recursive-descent
    parser over one grammar, raising the same messages at the same
    positions. Its token regex is Unicode-aware, so it agrees with
    ``parse`` on ASCII text only."""
    return _OracleParser(text).parse(rank)


@pytest.fixture
def parse_oracle():
    return per_token_parse


class _TokenError(Exception):
    """A parse failure: its message and the index of the token it is at."""


# The rescanning oracle's own tokenizer, one token per integer, name,
# operator or stray character, so it shares no regex with ``parse``.
_RESCAN_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)|([-+*/^])|(\S))", re.ASCII)
_RESCAN_ZN = re.compile(r"z(\d+)", re.ASCII)
_RESCAN_XYZ_INDEX = {"x": 0, "y": 1, "z": 2}


def _rescan_token_position(text: str, index: int) -> int:
    """Start of the index-th ``_RESCAN_TOKEN`` of text, or len(text) past the last one."""
    for k, m in enumerate(_RESCAN_TOKEN.finditer(text)):
        if k == index:
            return m.start(m.lastindex)
    return len(text)


def rescan_parse(text, rank=None):
    """Oracle for ``parse``'s error paths: the same token walk, with every
    failure raised as a token index and turned into a ParseError at one
    place, which rescans the tokens and reports the first character
    outside the grammar instead, if there is one."""
    tokens = _RESCAN_TOKEN.findall(text)
    end = len(tokens)
    tokens.append(("", "", "", ""))
    terms: list[tuple[dict[int, int], int | Fraction]] = []
    style: Optional[str] = None
    top, top_at = -1, 0  # highest variable index and the token that first used it
    i = 0
    try:
        if not end:
            raise _TokenError("empty polynomial", i)
        while True:
            num, name, op, _ = tokens[i]
            sign = 1
            while op == "+" or op == "-":
                if op == "-":
                    sign = -sign
                i += 1
                num, name, op, _ = tokens[i]
            coeff = sign
            if num:
                coeff *= int(num)
                i += 1
                _, name, op, _ = tokens[i]
                if op == "/":
                    i += 1
                    den = tokens[i][0]
                    if not den:
                        raise _TokenError("expected a denominator", i)
                    den = int(den)
                    if not den:
                        raise _TokenError("zero denominator", i)
                    coeff = Fraction(coeff, den)
                    i += 1
                    op = tokens[i][2]
                if op == "*":
                    i += 1
                    name = tokens[i][1]
                    if not name:
                        raise _TokenError("expected a variable", i)
                else:
                    name = ""
            elif not name:
                raise _TokenError("expected a variable", i)
            exps: dict[int, int] = {}
            while name:
                idx = _RESCAN_XYZ_INDEX.get(name)
                if idx is not None:
                    kind = "xyz"
                else:
                    m = _RESCAN_ZN.fullmatch(name)
                    if not m:
                        raise _TokenError(f"unknown variable {name!r}", i)
                    idx = int(m[1]) - 1
                    if idx < 0:
                        raise _TokenError("variable indices start at z1", i)
                    if idx >= MAX_RANK:
                        raise _TokenError(f"variable indices end at z{MAX_RANK}", i)
                    kind = "zn"
                if style is None:
                    style = kind
                elif style != kind:
                    raise _TokenError("cannot mix x/y/z and z1..zn variable names", i)
                if idx > top:
                    top, top_at = idx, i
                i += 1
                op = tokens[i][2]
                power = 1
                if op == "^":
                    i += 1
                    num, _, op, _ = tokens[i]
                    if op == "+" or op == "-":
                        i += 1
                        num = tokens[i][0]
                    if not num:
                        raise _TokenError("expected an integer exponent", i)
                    power = -int(num) if op == "-" else int(num)
                    i += 1
                    op = tokens[i][2]
                exps[idx] = exps.get(idx, 0) + power
                if op == "*":
                    i += 1
                    name = tokens[i][1]
                    if not name:
                        raise _TokenError("expected a variable after '*'", i)
                else:
                    name = ""
            terms.append((exps, coeff))
            if i == end:
                break
            op = tokens[i][2]
            if op != "+" and op != "-":
                raise _TokenError("expected '+' or '-' between terms", i)
        if rank is None:
            rank = max(top + 1, 1)
        elif top >= rank:
            raise _TokenError(f"variable index exceeds rank {rank}", top_at)
    except _TokenError as err:
        # A character outside the grammar is reported first, wherever it is.
        message, i = err.args
        for k, (_, _, _, bad) in enumerate(tokens):
            if bad:
                message = f"unexpected character {bad!r}"
                if bad in "()":
                    message = "parentheses are not part of the grammar"
                i = k
                break
        raise ParseError(message, _rescan_token_position(text, i)) from None
    zeros = [0] * rank
    return LaurentPolynomial.from_terms(rank, [(tuple(map(exps.get, range(rank), zeros)), c) for exps, c in terms])


@pytest.fixture
def rescan_parse_oracle():
    return rescan_parse
