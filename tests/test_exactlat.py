import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import determinant, matrix_rank
from laumut.exactlat import (
    adapted_basis,
    content,
    dot,
    exact_int,
    floor_sum,
    inverse_unimodular,
    lex_positive,
    mat_mul,
    mat_vec,
    primitive_from_rational,
    primitive_vector,
    transpose,
    xgcd,
)
from laumut.laurent import LaurentPolynomial, act_unimodular


def random_unimodular(rng, n, steps=12):
    """Product of elementary row operations, so |det| = 1 by construction."""
    if n == 1:
        return ((rng.choice([-1, 1]),),)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return tuple(tuple(row) for row in m)


def test_primitive_vector_examples():
    assert primitive_vector((2, 4, 6)) == (1, 2, 3)
    assert primitive_vector((0, 0, -5)) == (0, 0, -1)
    assert primitive_vector((3, 5)) == (3, 5)


def test_primitive_vector_zero_rejected():
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


def test_primitive_vector_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        v = tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 4)))
        if not any(v):
            continue
        p = primitive_vector(v)
        assert primitive_vector(p) == p
        assert content(p) == 1


def test_primitive_from_rational_clears_denominators():
    assert primitive_from_rational((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert primitive_from_rational((Fraction(-2), Fraction(4))) == (-1, 2)


def test_xgcd():
    rng = random.Random(11)
    for _ in range(500):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        if a == 0 and b == 0:
            continue
        g, x, y = xgcd(a, b)
        assert g > 0
        assert a % g == 0 and b % g == 0
        assert a * x + b * y == g


def test_exact_rational_arithmetic_round_trip():
    rng = random.Random(3)
    for _ in range(1000):
        a = Fraction(rng.randint(-2**63, 2**63), rng.randint(1, 2**63))
        b = Fraction(rng.randint(-2**63, 2**63), rng.randint(1, 2**63))
        assert (a + b) - b == a


def test_determinant_and_inverse_on_random_unimodular():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = random_unimodular(rng, n)
        assert abs(determinant(a)) == 1
        inv = inverse_unimodular(a)
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert mat_mul(a, inv) == eye
        assert mat_mul(inv, a) == eye


@pytest.mark.parametrize(
    "a",
    [((1, 1), (1, 1)), ((2, 0), (0, 1)), ((0, 0), (0, 0)), ((1, 2, 3), (4, 5, 6), (7, 8, 9)), ((1, 0), (0, 1), (0, 0))],
    ids=["ones", "det2", "zero", "rank2", "not_square"],
)
def test_inverse_refuses_a_matrix_that_is_not_unimodular(a):
    # One elimination over [a | I], pivoting only in a's own columns: a
    # singular matrix such as ((1, 1), (1, 1)) runs out of pivots there,
    # and ((2, 0), (0, 1)) ends with the last pivot d = 2, so |d| = 1 fails.
    with pytest.raises(ValueError):
        inverse_unimodular(a)


def test_inverse_exists_exactly_for_determinant_one(act_unimodular_oracle):
    # act_unimodular checks its matrix with the same elimination.
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 4)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        f = LaurentPolynomial.from_terms(n, {tuple(rng.randint(-2, 2) for _ in range(n)): 1 for _ in range(3)})
        if abs(determinant(a)) == 1:
            assert mat_mul(a, inverse_unimodular(a)) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            assert act_unimodular(f, a) == act_unimodular_oracle(f, a)
        else:
            with pytest.raises(ValueError):
                inverse_unimodular(a)
            with pytest.raises(ValueError, match="matrix is not unimodular"):
                act_unimodular(f, a)


def test_matrix_rank():
    assert matrix_rank([(1, 2), (2, 4)]) == 1
    assert matrix_rank([(1, 0), (0, 1)]) == 2
    assert matrix_rank([(0, 0)]) == 0
    assert matrix_rank([]) == 0
    assert matrix_rank([(Fraction(1, 2), Fraction(1, 3)), (3, 2)]) == 1
    assert matrix_rank([(0, 1, 2), (0, 2, 4), (0, 0, 0), (1, 0, Fraction(-5, 7))]) == 2


def test_determinant_matches_the_leibniz_formula():
    def leibniz(a):
        total = 0
        for perm in permutations(range(len(a))):
            sign = (-1) ** sum(perm[i] > perm[j] for i in range(len(a)) for j in range(i + 1, len(a)))
            term = sign
            for i, j in enumerate(perm):
                term *= a[i][j]
            total += term
        return total

    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            a[-1] = [2 * x for x in a[0]]
        assert determinant(a) == leibniz(a)
        assert matrix_rank(a) == n or determinant(a) == 0
    assert determinant([]) == 1
    with pytest.raises(ValueError):
        inverse_unimodular(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        inverse_unimodular(((1, 2), (2, 4)))


def test_adapted_basis_examples():
    w, kernel = adapted_basis((0, 1, 0))
    assert w == (0, 1, 0)
    assert kernel == ((1, 0, 0), (0, 0, 1))
    w, kernel = adapted_basis((2, 3))
    assert w == (-1, 1)
    assert kernel == ((3, -2),)
    w, kernel = adapted_basis((1, 0))
    assert w == (1, 0)
    assert kernel == ((0, 1),)


def test_adapted_basis_rejects_non_primitive():
    with pytest.raises(ValueError):
        adapted_basis((2, 4))


def test_adapted_basis_properties():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 4)
        u = tuple(rng.randint(-8, 8) for _ in range(n))
        if not any(u):
            continue
        u = primitive_vector(u)
        w, kernel = adapted_basis(u)
        assert dot(u, w) == 1
        assert len(kernel) == n - 1
        for k in kernel:
            assert dot(u, k) == 0
            assert lex_positive(k) == k
        basis = transpose(list(kernel) + [w])
        assert abs(determinant(basis)) == 1


def test_transpose_involution():
    m = ((1, 2, 3), (4, 5, 6))
    assert transpose(transpose(m)) == m
    assert mat_vec(m, (1, 0, 0)) == (1, 4)


def test_exact_int_refuses_non_integral_values():
    assert [exact_int(c) for c in ("3", "-6/2", Fraction(4), 7)] == [3, -3, 4, 7]
    for c in ("1/2", "-3/2", Fraction(5, 3), "0.5"):
        with pytest.raises(ValueError):
            exact_int(c)
    # A float is refused even when integral, as hull refuses float rays.
    with pytest.raises(TypeError):
        exact_int(2.0)


def test_primitive_from_rational_takes_ints_and_fractions_but_no_floats():
    assert primitive_from_rational((2, 4, -6)) == (1, 2, -3)
    assert primitive_from_rational((Fraction(1, 2), 1, Fraction(-3, 4))) == (2, 4, -3)
    # Fraction(0.1) would be 3602879701896397/2**55: refuse rather than guess.
    with pytest.raises(TypeError):
        primitive_from_rational((1, 0.1))


def test_floor_sum_matches_brute_force():
    def brute(n, m, a, b):
        return sum((a * i + b) // m for i in range(n))

    cases = [(0, 7, 3, -5), (0, 1, 10**4, 10**4), (5, 1, -3, 4), (9, 1, 10**4, -(10**4))]
    rng = random.Random(77)
    for _ in range(3000):
        n = rng.randint(0, 40)
        m = rng.choice([1, rng.randint(1, 9), rng.randint(1, 10**4)])
        cases.append((n, m, rng.randint(-(10**4), 10**4), rng.randint(-(10**4), 10**4)))
    for n, m, a, b in cases:
        assert floor_sum(n, m, a, b) == brute(n, m, a, b), (n, m, a, b)
    for bad in ((-1, 3, 1, 1), (4, 0, 1, 1), (4, -2, 1, 1)):
        with pytest.raises(ValueError):
            floor_sum(*bad)
