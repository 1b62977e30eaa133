"""Mutations of Laurent polynomials.

A mutation divides one variable direction by a polynomial in the
remaining directions: pick a primitive functional u and a divisor g
supported on the kernel of u. Grading f by u, its degree-k part f_k
collects the terms whose exponents e have level u(e) = k, and the
mutation replaces f_k by f_k / g^k. It is defined exactly when g^k
divides f_k for every positive level, and then it is an involution up
to the sign flip of u. The levels are read straight off f's own
exponents; the adapted frame (a unimodular basis whose kernel vectors
come first, then w with u(w) = 1) is only the coordinate system of the
flat family, where g lives in the kernel coordinates.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from operator import mul
from typing import Optional, Sequence

from .exactlat import (
    DomainError,
    IntMat,
    IntVec,
    adapted_basis,
    content,
    dot,
    exact_int,
    inverse_unimodular,
    mat_vec,
    primitive_vector,
    transpose,
    vsub,
)
from .laurent import LaurentPolynomial, divide_exact, parse, to_string
from .polyhedra import Polyhedron, contains_origin_interior, is_lattice_polyhedron, lattice_cycle


class MutationError(DomainError):
    """A slice at a positive level is not divisible; ``level`` says which."""

    def __init__(self, level: int):
        super().__init__(f"slice at level {level} is not divisible by the divisor power", level=level)
        self.level = level


@dataclass(frozen=True)
class MutationSpec:
    """Direction, adapted basis, and divisor of a mutation.

    ``basis`` columns are the kernel basis followed by a vector w with
    u(w) = 1; the divisor lives in the kernel coordinates (rank one
    less). Exponents transport to the adapted frame by the inverse
    basis matrix and back by the basis itself.

    The basis is inverted once, which checks that it is unimodular, unless
    ``_known_inverse`` hands in the inverse (:meth:`from_direction`,
    :meth:`inverse`); it is adapted iff u is the inverse's last row.
    """

    rank: int
    direction: IntVec
    basis: IntMat
    divisor: LaurentPolynomial
    _known_inverse: InitVar[Optional[IntMat]] = field(default=None, kw_only=True)
    # The inverse basis; it is derived from ``basis``, so equality, repr
    # and to_dict leave it out.
    _inverse: IntMat = field(init=False, repr=False, compare=False)

    def __post_init__(self, _known_inverse):
        n = self.rank
        if len(self.direction) != n:
            raise ValueError("direction length does not match rank")
        if content(self.direction) != 1:
            raise ValueError("mutation direction must be primitive")
        if len(self.basis) != n or any(len(row) != n for row in self.basis):
            raise ValueError("basis must be a square matrix of the full rank")
        inverse = inverse_unimodular(self.basis) if _known_inverse is None else _known_inverse
        object.__setattr__(self, "_inverse", inverse)
        if inverse[-1] != tuple(self.direction):
            raise ValueError("basis is not adapted: direction must kill the kernel columns and pair to 1 with the last")
        if self.divisor.rank != n - 1:
            raise ValueError("divisor must have rank one less than the ambient rank")
        if self.divisor.is_zero():
            raise ValueError("divisor must be nonzero")

    @staticmethod
    def from_direction(direction: Sequence[int], divisor: LaurentPolynomial) -> "MutationSpec":
        """Build the canonical adapted basis for u; the divisor is given in
        the original coordinates and must be supported on ker u."""
        u = tuple(exact_int(c) for c in direction)
        w, kernel = adapted_basis(u)
        basis = transpose(list(kernel) + [w])
        if divisor.rank != len(u):
            raise ValueError("divisor rank does not match the direction")
        inv = inverse_unimodular(basis)
        terms = []
        for e, c in divisor.terms:
            te = mat_vec(inv, e)
            if te[-1]:  # the last row of the inverse is u
                raise ValueError("divisor is not supported on the kernel of the direction")
            terms.append((te[:-1], c))
        return MutationSpec(len(u), u, basis, LaurentPolynomial.from_terms(len(u) - 1, terms), _known_inverse=inv)

    @staticmethod
    def from_adapted(direction: Sequence[int], basis: Sequence[Sequence[int]], divisor: LaurentPolynomial) -> "MutationSpec":
        u = tuple(exact_int(c) for c in direction)
        return MutationSpec(len(u), u, tuple(tuple(exact_int(c) for c in row) for row in basis), divisor)

    def inverse(self) -> "MutationSpec":
        """Same divisor, opposite direction; undoes this mutation. Negating
        the last basis column negates the last row of the inverse."""
        cols = list(transpose(self.basis))
        cols[-1] = tuple(-c for c in cols[-1])
        inv = self._inverse[:-1] + (tuple(-c for c in self._inverse[-1]),)
        return MutationSpec(self.rank, inv[-1], transpose(cols), self.divisor, _known_inverse=inv)

    def to_adapted(self, f: LaurentPolynomial) -> LaurentPolynomial:
        """f in the adapted frame: kernel coordinates first, divided one last.
        The inverse basis is unimodular, so only the terms' order changes."""
        if f.rank != self.rank:
            raise ValueError("polynomial rank does not match the mutation spec")
        return LaurentPolynomial(f.rank, tuple(sorted((mat_vec(self._inverse, e), c) for e, c in f.terms)))

    def divisor_in_ambient(self) -> LaurentPolynomial:
        """The divisor transported back to the original coordinates."""
        terms = [(mat_vec(self.basis, e + (0,)), c) for e, c in self.divisor.terms]
        return LaurentPolynomial.from_terms(self.rank, terms)

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "direction": [str(c) for c in self.direction],
            "basis": [[str(c) for c in row] for row in self.basis],
            "divisor": to_string(self.divisor),
        }

    @staticmethod
    def from_dict(data: dict) -> "MutationSpec":
        rank = exact_int(data["rank"])
        direction = tuple(exact_int(c) for c in data["direction"])
        basis = tuple(tuple(exact_int(c) for c in row) for row in data["basis"])
        divisor = parse(data["divisor"], rank=rank - 1)
        return MutationSpec(rank, direction, basis, divisor)


@dataclass(frozen=True)
class SliceCheck:
    level: int
    divisible: bool


@dataclass(frozen=True)
class MutationCheck:
    """Per-level divisibility report for a polynomial against a spec.

    ``mutated`` is the mutated polynomial when every level divides and
    None otherwise. It is derived from the same divisions as the report,
    so ``to_dict`` and equality leave it out.
    """

    low: int
    high: int
    checks: tuple[SliceCheck, ...]
    mutated: Optional[LaurentPolynomial] = field(default=None, compare=False, repr=False)

    @property
    def all_divisible(self) -> bool:
        return all(c.divisible for c in self.checks)

    def failing_levels(self) -> list[int]:
        return [c.level for c in self.checks if not c.divisible]

    def to_dict(self) -> dict:
        return {
            "low": self.low,
            "high": self.high,
            "levels": [{"level": c.level, "divisible": c.divisible} for c in self.checks],
            "is_mutation": self.all_divisible,
        }


def is_mutation(f: LaurentPolynomial, spec: MutationSpec) -> tuple[bool, MutationCheck]:
    """Divide every positive level of f once by its divisor power.

    A level that does not divide raises nothing: the report carries the
    failing levels, and the mutated polynomial when there are none. The
    zero polynomial raises DomainError.
    """
    if f.rank != spec.rank:
        raise ValueError("polynomial rank does not match the mutation spec")
    if f.is_zero():
        raise DomainError("cannot mutate the zero polynomial")
    # Each level is an ordered run of f's sorted terms, so it is already
    # a polynomial in canonical form.
    u = spec.direction
    levels: dict[int, list] = {}
    for e, c in f.terms:
        levels.setdefault(sum(map(mul, u, e)), []).append((e, c))
    parts = {k: LaurentPolynomial(f.rank, tuple(terms)) for k, terms in levels.items()}
    low, high = min(parts), max(parts)
    g = spec.divisor_in_ambient()
    checks = []
    # One running power g^k serves level k and level -k; keeping all the
    # powers instead would hold every g^k of the walk in memory at once.
    power = g
    for k in range(1, max(high, -low) + 1):
        if k > 1:
            power = power * g
        if k in parts:
            parts[k] = divide_exact(parts[k], power)
            checks.append(SliceCheck(k, parts[k] is not None))
        if -k in parts:
            parts[-k] = parts[-k] * power
    if not all(c.divisible for c in checks):
        return False, MutationCheck(low, high, tuple(checks))
    # g lies on level 0, so every part keeps its level and the parts'
    # exponents stay disjoint.
    mutated = LaurentPolynomial(f.rank, tuple(sorted(t for part in parts.values() for t in part.terms)))
    return True, MutationCheck(low, high, tuple(checks), mutated)


def apply_mutation(f: LaurentPolynomial, spec: MutationSpec) -> LaurentPolynomial:
    """The mutated polynomial; raises :class:`MutationError` at the first
    non-divisible positive level."""
    ok, report = is_mutation(f, spec)
    if not ok:
        raise MutationError(report.failing_levels()[0])
    return report.mutated


# -- facet mutations of polygons ----------------------------------------------


@dataclass(frozen=True)
class FacetInfo:
    """One edge of a polygon together with its standard mutation data."""

    index: int
    vertices: tuple[IntVec, IntVec]
    direction: IntVec  # primitive outward normal
    height: int  # value of the normal on the edge

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "vertices": [[str(c) for c in v] for v in self.vertices],
            "direction": [str(c) for c in self.direction],
            "height": str(self.height),
        }


def polygon_facets(p: Polyhedron) -> list[FacetInfo]:
    """Edges of a lattice polygon in ccw order from the lex-min vertex."""
    cyc = lattice_cycle(p)
    out = []
    for i, (a, b) in enumerate(zip(cyc, cyc[1:] + cyc[:1])):
        d = primitive_vector(vsub(b, a))
        normal = (d[1], -d[0])
        out.append(FacetInfo(i, (a, b), normal, dot(normal, a)))
    return out


def validate_mutable_polygon(p: Polyhedron) -> None:
    """Raise DomainError unless p is a lattice polygon with primitive
    vertices and the origin in its interior (the setting where every facet
    carries a standard mutation attempt)."""
    if p.rank != 2:
        raise DomainError("mutation graphs are defined for rank 2")
    if not contains_origin_interior(p):
        raise DomainError("polygon must contain the origin in its interior")
    if not is_lattice_polyhedron(p):
        raise DomainError("polygon must be a lattice polygon")
    if any(content(g[1:]) != 1 for g in p.cone.rays):  # each generator is (1, vertex) now
        raise DomainError("polygon vertices must be primitive")


def facet_mutation_spec(p: Polyhedron, facet_index: int) -> MutationSpec:
    """Standard mutation attached to one edge of a lattice polygon.

    The polygon must be a lattice polygon with primitive vertices and
    the origin in its interior. The direction is the primitive outward
    normal of the chosen edge, and the divisor is 1 + t in the
    lex-positive primitive direction t along the edge, so the divided
    variable is the one the edge normal grades by.
    """
    validate_mutable_polygon(p)
    facets = polygon_facets(p)
    if not 0 <= facet_index < len(facets):
        raise ValueError(f"facet index out of range 0..{len(facets) - 1}")
    return _facet_spec(facets[facet_index])


def _facet_spec(facet: FacetInfo) -> MutationSpec:
    """The standard mutation of one facet of a validated polygon: 1 + t
    for t the lex-positive one of the edge's two primitive directions."""
    u1, u2 = facet.direction
    t = max((u2, -u1), (-u2, u1))
    return MutationSpec.from_direction(facet.direction, LaurentPolynomial.from_terms(2, {(0, 0): 1, t: 1}))
