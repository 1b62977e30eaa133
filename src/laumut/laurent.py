"""Laurent polynomials with rational coefficients, exactly.

A polynomial is a finite map from integer exponent vectors to nonzero
Fractions. Variables are positional: ranks up to three print as x, y, z
and higher ranks as z1..zn; the parser accepts either style. String
output is deterministic (terms ascending by exponent vector), so equal
polynomials always print identically and printed output reparses to the
same polynomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Iterable, Mapping, Optional, Sequence

from .exactlat import IntVec, mat_vec, determinant
from . import polyhedra

_XYZ = ("x", "y", "z")


class ParseError(ValueError):
    """Malformed polynomial text; ``position`` is a 0-based index into it."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class LaurentPolynomial:
    """Immutable Laurent polynomial keyed by exponent vectors."""

    rank: int
    terms: tuple[tuple[IntVec, Fraction], ...]  # sorted by exponent, coefficients nonzero

    @staticmethod
    def from_terms(rank: int, items: Mapping[IntVec, Fraction] | Iterable[tuple[IntVec, Fraction]]) -> "LaurentPolynomial":
        """Sum of the given terms. Exponents are ints and coefficients ints or
        Fractions; a float raises TypeError rather than being truncated or
        read as its binary value."""
        acc: dict[IntVec, Fraction] = {}
        pairs = items.items() if isinstance(items, Mapping) else items
        for exp, coeff in pairs:
            exp = tuple(map(index, exp))
            if len(exp) != rank:
                raise ValueError(f"exponent {exp} has length {len(exp)}, expected {rank}")
            if isinstance(coeff, float):
                raise TypeError(f"exact coefficient needed (int or Fraction), got {coeff!r}")
            c = acc.get(exp, Fraction(0)) + Fraction(coeff)
            if c:
                acc[exp] = c
            else:
                acc.pop(exp, None)
        return LaurentPolynomial(rank, tuple(sorted(acc.items())))

    @staticmethod
    def zero(rank: int) -> "LaurentPolynomial":
        return LaurentPolynomial(rank, ())

    @staticmethod
    def constant(rank: int, c) -> "LaurentPolynomial":
        return LaurentPolynomial.from_terms(rank, {(0,) * rank: c})

    @staticmethod
    def monomial(rank: int, exponent: Sequence[int], coeff=1) -> "LaurentPolynomial":
        return LaurentPolynomial.from_terms(rank, {tuple(exponent): coeff})

    def coefficient(self, exponent: Sequence[int]) -> Fraction:
        exp = tuple(exponent)
        for e, c in self.terms:
            if e == exp:
                return c
        return Fraction(0)

    def support(self) -> tuple[IntVec, ...]:
        return tuple(e for e, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check(other)
        return LaurentPolynomial.from_terms(self.rank, list(self.terms) + list(other.terms))

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.rank, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        self._check(other)
        acc: dict[IntVec, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                c = acc.get(e, Fraction(0)) + c1 * c2
                if c:
                    acc[e] = c
                else:
                    del acc[e]
        return LaurentPolynomial(self.rank, tuple(sorted(acc.items())))

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            if not self.is_monomial():
                raise ValueError("negative powers only for monomials")
            (e, c), = self.terms
            inv = LaurentPolynomial.monomial(self.rank, tuple(-x for x in e), Fraction(1) / c)
            return inv ** (-n)
        out = LaurentPolynomial.constant(self.rank, 1)
        base = self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def _check(self, other: "LaurentPolynomial"):
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.rank}, {to_string(self)!r})"


def variable_names(rank: int) -> tuple[str, ...]:
    if rank <= 3:
        return _XYZ[:rank]
    return tuple(f"z{i + 1}" for i in range(rank))


def to_string(f: LaurentPolynomial) -> str:
    """Deterministic text form; reparses to an equal polynomial."""
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


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z]\w*)|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
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


def _variable_index(name: str, position: int) -> tuple[str, int]:
    """(style, index) where style is "xyz" or "zn"."""
    if name in _XYZ:
        return "xyz", _XYZ.index(name)
    m = re.fullmatch(r"z(\d+)", name)
    if m:
        idx = int(m.group(1))
        if idx == 0:
            raise ParseError("variable indices start at z1", position)
        return "zn", idx - 1
    raise ParseError(f"unknown variable {name!r}", position)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
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
        style, idx = _variable_index(val, pos)
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
        out: list[tuple[IntVec, Fraction]] = []
        for exps, coeff in terms:
            vec = [0] * rank
            for idx, p in exps.items():
                vec[idx] = p
            out.append((tuple(vec), coeff))
        return LaurentPolynomial.from_terms(rank, out)


def parse(text: str, rank: Optional[int] = None) -> LaurentPolynomial:
    """Parse polynomial text.

    Grammar: terms joined by +/-, each term an optional rational
    coefficient and '*'-separated variable powers (``x^-1*y``). Ranks
    up to three use x, y, z; general rank uses z1..zn. Raises
    :class:`ParseError` with a position on malformed input.
    """
    return _Parser(text).parse(rank)


# -- geometry ----------------------------------------------------------------


def newton_polytope(f: LaurentPolynomial) -> polyhedra.Polyhedron:
    """Convex hull of the support.

    The integer exponents go to the hull as they are, with no Fraction
    copies; its vertices come back as Fractions. In ranks 1 and 2 the
    support is first cut down to its extreme points, so the hull sees
    only the vertices however many terms f has.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no Newton polytope")
    support = f.support()  # sorted, as every polynomial's terms are
    if f.rank == 1:
        support = sorted({support[0], support[-1]})
    elif f.rank == 2:
        support = _plane_extreme_points(support)
    return polyhedra.hull(support)


def _plane_extreme_points(points: Sequence[IntVec]) -> list[IntVec]:
    """Vertices of the convex hull of sorted distinct points in the plane.

    Andrew's monotone chain: the lower chain left to right, then the
    upper chain back. Only strict left turns survive, so points inside
    an edge, collinear supports included, are dropped.
    """
    if len(points) < 3:
        return list(points)

    def chain(seq: Iterable[IntVec]) -> list[IntVec]:
        out: list[IntVec] = []
        for x, y in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                    break
                out.pop()
            out.append((x, y))
        return out

    return chain(points)[:-1] + chain(reversed(points))[:-1]


def divide_exact(a: LaurentPolynomial, b: LaurentPolynomial) -> Optional[LaurentPolynomial]:
    """The Laurent polynomial q with a = q*b, or None if none exists.

    Monomial divisors always divide. Otherwise the lexicographically
    smallest remainder term is peeled off until none is left. If a = q*b,
    then Newton(a) = Newton(q) + Newton(b), so every exponent of q lies in
    the box min_i(a) - min_i(b) <= e_i <= max_i(a) - max_i(b), and then
    the peel visits exactly the exponents of q. A candidate outside that
    finite box therefore proves non-divisibility, and the peel, whose
    candidates increase strictly, always stops. No hull is needed.
    """
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
    quotient: dict[IntVec, Fraction] = {}
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


def act_unimodular(f: LaurentPolynomial, matrix: Sequence[Sequence[int]]) -> LaurentPolynomial:
    """Monomial change of variables: exponent e becomes matrix @ e."""
    if len(matrix) != f.rank or any(len(row) != f.rank for row in matrix):
        raise ValueError("matrix shape does not match rank")
    if abs(determinant(matrix)) != 1:
        raise ValueError("matrix is not unimodular")
    return LaurentPolynomial.from_terms(
        f.rank, [(mat_vec(matrix, e), c) for e, c in f.terms]
    )
