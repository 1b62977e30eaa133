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
from math import gcd, lcm
from operator import index
from typing import Iterable, Mapping, NoReturn, Optional, Sequence

from .exactlat import MAX_RANK, DomainError, IntVec, inverse_unimodular, mat_vec
from . import polyhedra

_XYZ = ("x", "y", "z")


class ParseError(DomainError):
    """Malformed polynomial text; ``position`` is a 0-based index into it."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})", position=position)
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
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            acc[exp] = acc[exp] + c if exp in acc else c
        return LaurentPolynomial(rank, tuple(sorted(item for item in acc.items() if item[1])))

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
        num, den = c.numerator, c.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if not factors:
            body = mag
        elif den == 1 and (num == 1 or num == -1):
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors)
        if not parts:
            parts.append(body if num > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if num > 0 else f"- {body}")
    return " ".join(parts)


# One token per match, its text in group 1: a coefficient such as 2/3
# (numerator in group 2, denominator 3), a factor such as *x^-2 (star 4,
# name 5, exponent sign 6 and digits 7), an operator that no coefficient or
# factor absorbed (8), or any other non-space character (9), parentheses
# included, which is an error. Whitespace may stand inside a coefficient or
# factor wherever the grammar allows it between tokens. ASCII only, so no
# other script's digits or letters pass.
_TOKEN = re.compile(r"\s*((\d+)(?:\s*/\s*(\d+))?|(\*\s*)?([A-Za-z]\w*)(?:\s*\^\s*([-+]?)\s*(\d+))?|([-+*/^])|(\S))", re.ASCII)
_ZN = re.compile(r"z(\d+)", re.ASCII)
_XYZ_NAMES = {name: (i, "xyz") for i, name in enumerate(_XYZ)}  # name -> (index, style)


def _token_position(text: str, index: int, group: int = 1) -> int:
    """Start of that group of the index-th token of text, or len(text) past the last token."""
    for k, m in enumerate(_TOKEN.finditer(text)):
        if k == index:
            return m.start(group)
    return len(text)


def _numeral(digits: str, text: str, index: int, group: int) -> int:
    """``int(digits)`` for that group of the index-th token, or ParseError there."""
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"a numeral of {len(digits)} digits is too long", _token_position(text, index, group)) from None


def parse(text: str, rank: Optional[int] = None) -> LaurentPolynomial:
    """Parse polynomial text.

    The accepted grammar, over ASCII text only::

        polynomial  := term (("+" | "-") term)*
        term        := sign* (coefficient ("*" factor)* | factor ("*" factor)*)
        sign        := "+" | "-"
        coefficient := digits ("/" digits)?
        factor      := variable ("^" sign? digits)?

    Whitespace (spaces, tabs, newlines) may stand between any two tokens.
    A run of signs multiplies out (``x - -y`` is ``x + y``), a coefficient
    ``n/d`` needs a nonzero denominator, and a variable may repeat within a
    term (``x^2*x^-1`` is ``x``). Ranks up to three use x, y, z; general
    rank uses z1..zn, and the two styles do not mix. The rank is the highest
    variable index used unless ``rank`` is given (ValueError below 0 or
    above ``MAX_RANK``). Raises :class:`ParseError` with a position on
    malformed input, a numeral too long for ``int()`` or a ``z<n>`` past
    ``MAX_RANK`` among it; a character outside the grammar anywhere in the
    text, parentheses included, is reported before any other error.
    """
    if rank is not None and not 0 <= rank <= MAX_RANK:
        raise ValueError(f"rank {rank} is negative" if rank < 0 else f"rank {rank} exceeds the limit of {MAX_RANK}")

    def fail(message: str, at: Optional[int] = None, group: int = 1) -> NoReturn:
        raise ParseError(message, _token_position(text, i if at is None else at, group))

    tokens = _TOKEN.findall(text)  # (text, numerator, denominator, star, name, sign, exponent, operator, stray)
    for i, token in enumerate(tokens):
        if bad := token[8]:
            fail("parentheses are not part of the grammar" if bad in "()" else f"unexpected character {bad!r}")
    if not tokens:
        raise ParseError("empty polynomial", len(text))
    end = len(tokens)
    tokens.append(("",) * 9)  # the sentinel that ends every read
    terms: list[tuple[dict[int, int], int | Fraction]] = []
    names = dict(_XYZ_NAMES)  # each name's (index, style), read once
    style: Optional[str] = None
    top, top_at = -1, 0  # highest variable index and the token that first used it
    i = 0
    while True:
        sign = 1
        while tokens[i][7] in ("+", "-"):
            if tokens[i][7] == "-":
                sign = -sign
            i += 1
        _, num, den, star, name, _, _, _, _ = tokens[i]
        coeff = sign
        if num:
            coeff *= _numeral(num, text, i, 2)
            if den:
                if not (d := _numeral(den, text, i, 3)):
                    fail("zero denominator", i, 3)
                coeff = Fraction(coeff, d)
            i += 1
            if tokens[i][7] == "/" and not den:  # a '/' that found no digits after it
                fail("expected a denominator", i + 1)
            if tokens[i][7] == "*":
                fail("expected a variable", i + 1)
            name = tokens[i][3] and tokens[i][4]  # only a factor after '*' goes on with the term
        elif star or not name:
            fail("expected a variable")
        exps: dict[int, int] = {}
        while name:
            if name not in names:
                m = _ZN.fullmatch(name)
                if not m:
                    fail(f"unknown variable {name!r}", i, 5)
                idx = _numeral(m[1], text, i, 5) - 1
                if idx < 0:
                    fail("variable indices start at z1", i, 5)
                if idx >= MAX_RANK:
                    fail(f"variable indices end at z{MAX_RANK}", i, 5)
                names[name] = idx, "zn"
            idx, kind = names[name]
            if style is None:
                style = kind
            elif style != kind:
                fail("cannot mix x/y/z and z1..zn variable names", i, 5)
            if idx > top:
                top, top_at = idx, i
            _, _, _, _, _, sign, digits, _, _ = tokens[i]
            power = 1
            if digits:
                power = -_numeral(digits, text, i, 7) if sign == "-" else _numeral(digits, text, i, 7)
            exps[idx] = exps.get(idx, 0) + power
            i += 1
            _, _, _, star, name, _, _, op, _ = tokens[i]
            if op == "^" and not digits:
                fail("expected an integer exponent", i + 2 if tokens[i + 1][7] in ("+", "-") else i + 1)
            if op == "*":
                fail("expected a variable after '*'", i + 1)
            if not star:
                name = ""
        terms.append((exps, coeff))
        if i == end:
            break
        if tokens[i][7] not in ("+", "-"):
            fail("expected '+' or '-' between terms")
    if rank is None:
        rank = max(top + 1, 1)
    elif top >= rank:
        fail(f"variable index exceeds rank {rank}", top_at, 5)
    zeros = [0] * rank
    return LaurentPolynomial.from_terms(rank, [(tuple(map(exps.get, range(rank), zeros)), c) for exps, c in terms])


# -- geometry ----------------------------------------------------------------


def newton_polytope(f: LaurentPolynomial) -> polyhedra.Polyhedron:
    """Convex hull of the support.

    The integer exponents go to the hull as they are, with no Fraction
    copies. In rank 2, where the mutation graph and the dual counts hull
    large supports, the support is first cut down to its vertices by the
    chain that orders them, :func:`polyhedra.convex_cycle`; in every other
    rank the hull's one kernel pass drops the other points. The polytope is
    kept as the cone over it, so a full-dimensional one carries the
    incidence of that pass.
    """
    if f.is_zero():
        raise DomainError("the zero polynomial has no Newton polytope")
    support = f.support()  # sorted, as every polynomial's terms are
    if f.rank == 2:
        support = polyhedra.convex_cycle(support)
    return polyhedra.hull(support)


def divide_exact(a: LaurentPolynomial, b: LaurentPolynomial) -> Optional[LaurentPolynomial]:
    """The Laurent polynomial q with a = q*b, or None if none exists.

    Monomial divisors always divide. Otherwise the lexicographically
    smallest remainder term is peeled off until none is left (a zero
    dividend has none). If a = q*b, then Newton(a) = Newton(q) + Newton(b),
    so every exponent of q lies in the box min_i(a) - min_i(b) <= e_i <=
    max_i(a) - max_i(b), and the peel visits exactly those of q. A candidate
    outside that finite box therefore proves non-divisibility, and the peel,
    whose candidates increase strictly, always stops. No hull is needed.

    The peel runs on integers. It divides A = l*a, l the lcm of a's
    denominators, by the primitive integer polynomial B = b/content(b).
    By Gauss's lemma the product of two primitive polynomials is primitive
    (times a monomial, for Laurent ones), so if A = Q*B with Q rational,
    then Q = content(Q)*Q' with Q' primitive, content(Q) = content(A) is
    an integer, and Q is integral. So a peeled coefficient that is not an
    integer proves non-divisibility, and q = Q/(l*content(b)) at the end.
    """
    a._check(b)
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    eb, cb = min(b.terms)
    if b.is_monomial():  # one shift, in half the peel's time; mutations divide by monomials often
        q = {tuple(x - y for x, y in zip(e, eb)): c / cb for e, c in a.terms}
        return LaurentPolynomial.from_terms(a.rank, q)
    box = [(min(x) - min(y), max(x) - max(y)) for x, y in zip(zip(*a.support()), zip(*b.support()))]
    la = lcm(*(c.denominator for _, c in a.terms))
    lb = lcm(*(c.denominator for _, c in b.terms))
    g = gcd(*(c.numerator for _, c in b.terms))  # content(b) = g/lb, as each c is in lowest terms
    primitive = [(e, c.numerator * (lb // c.denominator) // g) for e, c in b.terms]
    cb = primitive[0][1]  # b.terms[0] is min(b.terms)
    remainder = {e: c.numerator * (la // c.denominator) for e, c in a.terms}
    quotient: dict[IntVec, int] = {}
    while remainder:
        er = min(remainder)
        eq = tuple(x - y for x, y in zip(er, eb))
        if not all(lo <= x <= hi for x, (lo, hi) in zip(eq, box)):
            return None
        cq, rest = divmod(remainder[er], cb)
        if rest:
            return None
        quotient[eq] = cq
        for e, c in primitive:
            key = tuple(x + y for x, y in zip(e, eq))
            val = remainder.get(key, 0) - cq * c
            if val:
                remainder[key] = val
            else:
                remainder.pop(key, None)
    scale = Fraction(lb, la * g)  # 1/(l*content(b))
    return LaurentPolynomial(a.rank, tuple((e, c * scale) for e, c in quotient.items()))  # peeled in increasing order


def act_unimodular(f: LaurentPolynomial, matrix: Sequence[Sequence[int]]) -> LaurentPolynomial:
    """Monomial change of variables: exponent e becomes matrix @ e. An int
    matrix of determinant +-1 maps the terms one to one; only their order changes."""
    matrix = [tuple(map(index, row)) for row in matrix]
    if len(matrix) != f.rank or any(len(row) != f.rank for row in matrix):
        raise ValueError("matrix shape does not match rank")
    inverse_unimodular(matrix)  # ValueError("matrix is not unimodular") unless det = +-1
    return LaurentPolynomial(f.rank, tuple(sorted((mat_vec(matrix, e), c) for e, c in f.terms)))
