"""Exact integer and rational linear algebra over lattices.

Vectors are tuples of Python ints (lattice points) or ``Fraction``s
(rational points); matrices are row-major tuples of int tuples. Python's
arbitrary-precision integers keep every result exact, so nothing in this
module (or anything built on it) ever touches a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

IntVec = tuple[int, ...]
QVec = tuple[Fraction, ...]
IntMat = tuple[tuple[int, ...], ...]
MAX_RANK = 1000  # the longest exponent vector read from outside; a kernel pass starts from as many unit vectors


class DomainError(ValueError):
    """The input is outside the construction's domain: a failed hypothesis,
    not a misused call. ``str()`` is the message and ``payload`` is
    ``{"error": str(self), **fields}``, the JSON that the CLI exits 1 with."""

    def __init__(self, message: str, **fields):
        super().__init__(message)
        self.fields = fields

    @property
    def payload(self) -> dict:
        return {"error": str(self), **self.fields}


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vneg(u):
    return tuple(-a for a in u)


def vscale(c, u):
    return tuple(c * a for a in u)


def unit_vector(rank: int, i: int) -> IntVec:
    return tuple(1 if j == i else 0 for j in range(rank))


def content(v: Iterable[int]) -> int:
    """gcd of the coordinates; 0 for the zero vector."""
    return gcd(*v)


def primitive_vector(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its coordinates."""
    g = content(v)
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return tuple(a // g for a in v)


def exact_fraction(c) -> Fraction:
    """``Fraction(c)``, but a float (read as its binary value) or a bool (as 0 or 1) raises TypeError."""
    if isinstance(c, (float, bool)):
        raise TypeError(f"exact number needed (int, Fraction or string), got {c!r}")
    return Fraction(c)


def exact_int(c) -> int:
    """The integer that ``c`` (an int, a Fraction or a string such as "3"
    or "6/2") stands for; ValueError if it is not integral, instead of
    truncating it as ``int`` would, and TypeError for a float or a bool."""
    q = exact_fraction(c)
    if q.denominator != 1:
        raise ValueError(f"expected an integer, got {c!r}")
    return q.numerator


def primitive_from_rational(v: Sequence) -> IntVec:
    """Primitive integer vector pointing along a rational vector.

    Coordinates are ints or Fractions, never floats: a float raises
    TypeError rather than being read as its exact binary value.
    """
    try:
        d = lcm(*(c.denominator for c in v))
    except AttributeError:
        raise TypeError(f"exact coordinates needed (ints or Fractions), got {tuple(v)!r}") from None
    return primitive_vector(tuple(int(c * d) for c in v))


def lex_positive(v: Sequence[int]) -> IntVec:
    """The vector or its negative, whichever has positive leading entry."""
    return tuple(v) if next((a for a in v if a), 0) > 0 else vneg(v)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of ``(a*i + b) // m`` over ``0 <= i < n``, for n >= 0, m >= 1
    and any a, b: the Euclid-like reduction (Graham-Knuth-Patashnik,
    *Concrete Mathematics*, 3.5) splits off a // m and b // m, then counts
    the points under the remaining line with its axes swapped, so (m, a)
    becomes (a, m mod a) and the sum takes O(log m) steps."""
    if n < 0 or m < 1:
        raise ValueError("floor_sum needs n >= 0 and m >= 1")
    total = 0
    while True:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


# -- matrices ---------------------------------------------------------------


def transpose(a):
    return tuple(zip(*a))


def mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def inverse_unimodular(a: Sequence[Sequence[int]]) -> IntMat:
    """Exact inverse of a matrix with determinant +/-1, else ValueError.

    Fraction-free Gauss-Jordan elimination (Bareiss) of m = [a | I], in
    place, pivoting in a's columns: pivot p at (c, c), after pivot ``prev``,
    turns every other row into ``(p*row - row[c]*m[c]) / prev``, exactly
    (Sylvester's identity). A singular a runs out of pivots; any other ends
    as [d*I | d*a^-1] with d = +/-det(a).
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse needs a square matrix")
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            raise ValueError("matrix is not unimodular")
        m[c], m[piv] = m[piv], m[c]
        row = m[c]
        p = row[c]
        for i, other in enumerate(m):
            if i != c:
                f = other[c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(other, row)]
        prev = p
    if abs(prev) != 1:
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(prev * x for x in row[n:]) for row in m)


def adapted_basis(u: Sequence[int]) -> tuple[IntVec, tuple[IntVec, ...]]:
    """Splitting of the lattice along a primitive functional u.

    Returns (w, kernel) where u(w) = 1, the kernel vectors span
    ker u, and [kernel..., w] is a unimodular basis. Deterministic:
    built by folding coordinates with xgcd, kernel vectors normalized
    lex-positive.
    """
    u = tuple(u)
    if content(u) != 1:
        raise ValueError("adapted basis requires a primitive functional")
    n = len(u)
    g = 0
    g_col: IntVec | None = None
    kernel: list[IntVec] = []
    for i, b in enumerate(u):
        e_i = unit_vector(n, i)
        if b == 0:
            kernel.append(e_i)
        elif g == 0:
            g = abs(b)
            g_col = e_i if b > 0 else vneg(e_i)
        else:
            g2, x, y = xgcd(g, b)
            kernel.append(vsub(vscale(b // g2, g_col), vscale(g // g2, e_i)))
            g_col = vadd(vscale(x, g_col), vscale(y, e_i))
            g = g2
    assert g == 1 and g_col is not None
    kernel = [lex_positive(k) for k in kernel]
    return g_col, tuple(kernel)
