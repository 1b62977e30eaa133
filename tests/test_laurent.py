import random
import re
import sys
from fractions import Fraction
from math import comb

import pytest

from conftest import random_unimodular
from laumut import polyhedra
from laumut.laurent import (
    LaurentPolynomial,
    ParseError,
    act_unimodular,
    divide_exact,
    newton_polytope,
    parse,
    to_string,
)
from laumut.exactlat import inverse_unimodular, mat_mul
from laumut.polyhedra import minkowski_sum


def random_poly(rng, rank, terms=5, span=4, positive=False):
    out = {}
    while len(out) < terms:
        e = tuple(rng.randint(-span, span) for _ in range(rank))
        c = rng.randint(1, 9) if positive else rng.choice([-3, -2, -1, 1, 2, 3])
        out[e] = Fraction(c)
    return LaurentPolynomial.from_terms(rank, out)


def test_parse_basic():
    f = parse("x^-1*y + 2*y + x*y + y^-1")
    assert f.rank == 2
    assert len(f.support()) == 4
    assert f.coefficient((0, 1)) == 2
    assert f.coefficient((-1, 1)) == 1
    assert f.coefficient((5, 5)) == 0


def test_parse_cancellation_gives_zero():
    assert parse("x - x").is_zero()
    assert parse("x + -1*x").is_zero()
    assert to_string(LaurentPolynomial.zero(2)) == "0"


def test_parse_rational_coefficients():
    h = parse("-3/2*x^-2*y + y^-1")
    assert h.coefficient((-2, 1)) == Fraction(-3, 2)
    assert h.coefficient((0, -1)) == 1


def test_parse_merges_repeated_variables():
    assert parse("x^2*x^-1") == parse("x")


def test_parse_zn_style():
    f = parse("z1*z4 + z2^-3")
    assert f.rank == 4
    assert f.coefficient((1, 0, 0, 1)) == 1
    assert f.coefficient((0, -3, 0, 0)) == 1


def test_parse_explicit_rank_pads():
    f = parse("y + x", rank=3)
    assert f.rank == 3
    assert f.coefficient((0, 1, 0)) == 1


@pytest.mark.parametrize(
    "text,fragment,position",
    [
        ("(x+1)", "parentheses", 0),
        ("x + X", "unknown variable", 4),
        ("x*z1", "cannot mix", 2),
        ("z0", "indices start at z1", 0),
        ("z1 + z1001", "indices end at z1000", 5),
        ("", "empty polynomial", 0),
        ("1/0", "zero denominator", 2),
        ("x^^2", "integer exponent", 2),
        ("x^1.5", "unexpected character", 3),
        ("3x", "between terms", 1),
        ("x + ", "expected a variable", 4),
        ("1/", "expected a denominator", 2),
        ("2*", "expected a variable", 2),
        ("x*3", "expected a variable after '*'", 2),
        ("x^-", "expected an integer exponent", 3),
        ("x + \u0663", "unexpected character", 4),
        ("\u0661 + x", "unexpected character", 0),
        ("x^\u0662", "unexpected character", 2),
        ("x +\u00a0y", "unexpected character", 3),
    ],
)
def test_parse_errors(text, fragment, position):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert fragment in str(info.value)
    assert info.value.position == position


def test_parse_bounds_the_rank():
    # The rank sizes every exponent tuple and a kernel pass squares it, so
    # past MAX_RANK parse refuses before it builds any tuple.
    assert parse("z1000").rank == parse("x", rank=1000).rank == 1000
    with pytest.raises(ParseError) as info:
        parse("z1001")
    assert info.value.position == 0
    with pytest.raises(ValueError, match="rank 1001 exceeds"):
        parse("x", rank=1001)


@pytest.mark.parametrize("text", ["1", "x", "(x"])
def test_parse_refuses_a_negative_rank_before_it_scans(text):
    # A constant used to fail as "variable index exceeds rank -1 (at position 0)".
    with pytest.raises(ValueError, match=r"^rank -1 is negative$") as info:
        parse(text, rank=-1)
    assert not isinstance(info.value, ParseError)


def test_parse_rank_exceeded_reports_position():
    with pytest.raises(ParseError) as info:
        parse("x*y", rank=1)
    assert "exceeds rank 1" in str(info.value)
    assert info.value.position == 2


def random_coefficient(rng):
    """A nonzero Fraction: an integer of up to 20 digits or a quotient n/d."""
    num = rng.choice([1, 2, 9, 10, 99, 10**6 + 3, 10**19 + 7]) * rng.choice([-1, 1])
    den = rng.choice([1, 1, 2, 3, 7, 10, 12, 10**9 + 9])
    return Fraction(num, den)


def test_to_string_round_trip(to_string_oracle):
    # Small integer coefficients, then n/d and multi-digit ones; the bytes
    # must also match the printer that formats through Fraction arithmetic.
    rng = random.Random(7)
    for trial in range(150):
        rank = rng.randint(1, 4)
        f = random_poly(rng, rank, terms=rng.randint(1, 6))
        if trial >= 50:
            f = LaurentPolynomial.from_terms(rank, [(e, random_coefficient(rng)) for e in f.support()])
        text = to_string(f)
        assert text == to_string_oracle(f) == str(f)
        assert parse(text, rank=rank) == f
    assert to_string(parse("-3/2*x + 12345678901234567890*y - 7/100")) == "-7/100 + 12345678901234567890*y - 3/2*x"


SPACES = ("", "", " ", "  ", "\t", " \t ")


def random_text(rng, kinds):
    """Well-formed polynomial text, with sign runs, n/d and multi-digit
    coefficients, repeated variables, signed exponents and mixed spacing.
    ``kinds`` collects which of these the text contains."""
    rank = rng.randint(1, 6)
    style = "xyz" if rank <= 3 and rng.random() < 0.5 else "zn"
    kinds.add(style)
    names = ("x", "y", "z")[:rank] if style == "xyz" else tuple(f"z{i + 1}" for i in range(rank))

    def sp():
        return rng.choice(SPACES)

    out = ""
    for k in range(rng.randint(1, 5)):
        signs = [rng.choice("+-") for _ in range(rng.randint(1 if k else 0, 3))]
        if len(signs) > 1:
            kinds.add("sign run")
        out += "".join(s + sp() for s in signs)
        factors = []
        for _ in range(rng.randint(0, 4)):
            name = rng.choice(names)
            if name in factors:
                kinds.add("repeated variable")
            roll = rng.random()
            if roll < 0.3:
                factors.append(name)
            elif roll < 0.45:
                factors.append(f"{name}{sp()}^{sp()}+{rng.randint(0, 12)}")
                kinds.add("^+")
            elif roll < 0.55:
                factors.append(f"{name}^-0")
                kinds.add("^-0")
            else:
                factors.append(f"{name}^{sp()}{rng.choice(['', '-'])}{rng.randint(0, 12)}")
        coefficient = None
        roll = rng.random()
        if not factors or roll < 0.3:
            coefficient = str(rng.choice([0, 1, 7, 12, 305, 10**12 + 1]))
            if len(coefficient) > 1:
                kinds.add("multi-digit")
        elif roll < 0.5:
            coefficient = f"{rng.randint(0, 40)}{sp()}/{sp()}{rng.randint(1, 40)}"
            kinds.add("n/d")
            if signs.count("-") % 2:
                kinds.add("negative numerator")
        term = ([coefficient] if coefficient is not None else []) + factors
        out += (sp() + "*" + sp()).join(term) + sp()
    if "\t" in out:
        kinds.add("tab")
    if not any(c in out for c in " \t"):
        kinds.add("no whitespace")
    return out


def parse_outcome(parser, text, rank=None):
    try:
        return parser(text, rank)
    except ParseError as err:
        return str(err), err.position


def test_parse_matches_the_per_token_parser(parse_oracle):
    rng = random.Random(1300)
    kinds = set()
    for _ in range(400):
        text = random_text(rng, kinds)
        f = parse(text)
        assert f == parse_oracle(text), text
        rank = rng.randint(1, 6)
        assert parse_outcome(parse, text, rank) == parse_outcome(parse_oracle, text, rank), text
    assert kinds == {
        "xyz", "zn", "sign run", "repeated variable", "^+", "^-0", "multi-digit", "n/d",
        "negative numerator", "tab", "no whitespace",
    }


def test_parse_errors_match_the_per_token_parser(parse_oracle):
    # One character replaced, inserted or deleted: both parsers raise the
    # same message at the same position, or accept with equal results.
    rng = random.Random(1400)
    alphabet = "0123456789xyzZw+-*/^()._#= \t"
    messages = set()
    for _ in range(1500):
        text = random_text(rng, set())
        i = rng.randrange(len(text) + 1)
        edit = rng.choice(["replace", "insert", "delete"])
        if edit == "insert" or i == len(text):
            text = text[:i] + rng.choice(alphabet) + text[i:]
        elif edit == "replace":
            text = text[:i] + rng.choice(alphabet) + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:]
        got = parse_outcome(parse, text)
        assert got == parse_outcome(parse_oracle, text), text
        if isinstance(got, tuple):
            messages.add(got[0].split(" (at")[0].split("'")[0])
    assert len(messages) >= 10, messages


def test_parse_matches_the_rescanning_parser(rescan_parse_oracle):
    # Strings of grammar tokens and stray characters (parentheses, ".",
    # "#", a non-break space, another script's digit), each parsed with its
    # inferred rank and with a given one. Reporting a stray character up
    # front gives the same polynomials, messages and positions as turning
    # the first failure into a rescan of the tokens for one.
    rng = random.Random(2200)
    pieces = "x y z z1 z3 z0 w 1 0 12 / ^ - + * + - x ( ) . # \xa0 \u0663".split(" ") + [" ", "\t"]
    # Fragments that start, end or split a coefficient or factor token.
    pieces += ["^-", "^ +", " ^ ", "*x", "2/3", "/0", "x^2", "z3^-4", "z10", "007"]
    seen = set()
    for _ in range(4000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 10)))
        for rank in (None, rng.randint(1, 4)):
            got = parse_outcome(parse, text, rank)
            assert got == parse_outcome(rescan_parse_oracle, text, rank), (text, rank)
            seen.add("accepted" if isinstance(got, LaurentPolynomial) else re.sub(r" '.*'$", "", got[0].split(" (at")[0]))
    assert seen >= {
        "accepted", "parentheses are not part of the grammar", "unexpected character", "expected a variable",
        "expected '+' or '-' between terms", "variable index exceeds rank 1", "empty polynomial",
        "expected a variable after", "expected an integer exponent", "expected a denominator", "zero denominator",
    }, seen


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000, reason="int() reads 5,000 digits here"
)
@pytest.mark.parametrize(
    "template, position", [("x^N + y", 2), ("1/N*x", 2), ("2 * x ^ - N", 10), ("z1 + zN", 5)],
    ids=["exponent", "denominator", "spaced_exponent", "variable_index"],
)
def test_a_long_numeral_inside_a_token_is_reported_where_it_starts(template, position):
    # The exponent, the denominator and the z index share a token with the
    # variable or numerator before them; the error points at the numeral.
    with pytest.raises(ParseError) as info:
        parse(template.replace("N", "1" * 5000))
    assert str(info.value) == f"a numeral of 5000 digits is too long (at position {position})"
    assert info.value.position == position


def test_newton_polytope_vertices():
    f = parse("x^-1*y + 2*y + x*y + y^-1")
    p = newton_polytope(f)
    # the interior point (0,1) is dropped
    assert set(p.vertices) == {(-1, 1), (1, 1), (0, -1)}
    assert p.rays == ()
    with pytest.raises(ValueError):
        newton_polytope(LaurentPolynomial.zero(2))


def test_divide_exact_examples():
    a = parse("x^-1 + 2 + x")
    b = parse("1 + x")
    assert divide_exact(a, b) == parse("x^-1 + 1")
    assert divide_exact(parse("1 + x"), parse("x")) == parse("x^-1 + 1")
    assert divide_exact(parse("1 + x"), parse("1 + x + x^2")) is None
    assert divide_exact(LaurentPolynomial.zero(1), b) == LaurentPolynomial.zero(1)
    with pytest.raises(ZeroDivisionError):
        divide_exact(b, LaurentPolynomial.zero(1))


def test_divide_exact_random_products():
    rng = random.Random(13)
    for positive in (True, False):
        for _ in range(40):
            rank = rng.randint(1, 3)
            q = random_poly(rng, rank, terms=rng.randint(1, 4), positive=positive)
            b = random_poly(rng, rank, terms=rng.randint(1, 4), positive=positive)
            got = divide_exact(q * b, b)
            assert got == q


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_divide_exact_matches_the_newton_hull_bound(hull_bound_divide, rank):
    # Every other dividend is a product q*b with one term added or dropped.
    # A divisor with two or more terms divides no monomial, so exactly
    # those are non-divisible.
    rng = random.Random(40 + rank)
    refused = 0
    for i in range(160):
        b = random_poly(rng, rank, terms=rng.randint(2, 4), span=2)
        q = random_poly(rng, rank, terms=rng.randint(1, 3), span=2)
        a = q * b
        if i % 2 and rng.random() < 0.5:
            a = a + random_poly(rng, rank, terms=1, span=4)
        elif i % 2:
            e, c = rng.choice(a.terms)
            a = a - LaurentPolynomial.monomial(rank, e, c)
        got = divide_exact(a, b)
        assert got == hull_bound_divide(a, b)
        assert got == (q if i % 2 == 0 else None)
        refused += got is None
    assert refused == 80


# Divisors whose smallest term has a coefficient other than +-1 and whose
# content is not 1, so the integer peel must first make them primitive;
# the last in each rank is a monomial.
_NON_PRIMITIVE_DIVISORS = {
    1: ["2 + 4*x", "6 - 4*x^-1 + 10*x^2", "3/2*x^-2"],
    2: ["3*z1 - 6*z2", "1/2*z1^3*z2^-1 + z2", "-4*x*y^2"],
    3: ["2/3*x + 4/3*y^-1 - 2*z", "6*x^-1 + 9*x*y*z^2", "5/7*x^-1*z"],
    4: ["4*z1^-1 + 6*z2*z4 - 2*z3^2", "1/3*z1 + 2/9*z4^-2", "-2/5*z2^3*z3^-1"],
}


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_divide_exact_matches_the_fraction_peel(divide_exact_oracle, rank):
    # Each exact product q*b comes with a copy that has one term added or
    # changed, which no non-monomial b divides: b would divide a unit.
    rng = random.Random(3400 + rank)
    divisors = [parse(text, rank) for text in _NON_PRIMITIVE_DIVISORS[rank]]
    refused = 0
    for i in range(120):
        b = divisors[i % len(divisors)]
        q = LaurentPolynomial.from_terms(rank, {
            tuple(rng.randint(-2, 2) for _ in range(rank)): Fraction(rng.choice([-5, -3, -1, 1, 2, 7]), rng.choice([1, 2, 3, 4]))
            for _ in range(rng.randint(1, 4))
        })
        a = q * b
        assert divide_exact(a, b) == divide_exact_oracle(a, b) == q
        e = tuple(rng.randint(-3, 3) for _ in range(rank))
        perturbed = a + LaurentPolynomial.monomial(rank, e, Fraction(rng.choice([-1, 1]), rng.choice([1, 2, 3])))
        got = divide_exact(perturbed, b)
        assert got == divide_exact_oracle(perturbed, b)
        assert (got is None) == (not b.is_monomial())
        refused += got is None
    assert refused == 80
    zero = LaurentPolynomial.zero(rank)
    for b in divisors:  # monomial and not: the peel of an empty remainder is the zero quotient
        assert divide_exact(zero, b) == divide_exact_oracle(zero, b) == zero
    assert divide_exact(parse("1 + x"), parse("2 + 2*x")) == LaurentPolynomial.constant(1, Fraction(1, 2))


def test_act_unimodular_exponent_map():
    f = parse("x^2*y^3")
    # exponents transform as columns: [[1,0],[1,1]] @ (2,3) = (2,5)
    g = act_unimodular(f, ((1, 0), (1, 1)))
    assert g == parse("x^2*y^5")


def test_act_unimodular_group_action():
    rng = random.Random(17)
    for _ in range(30):
        rank = rng.randint(1, 4)
        f = random_poly(rng, rank)
        a = random_unimodular(rng, rank)
        b = random_unimodular(rng, rank)
        assert act_unimodular(act_unimodular(f, a), b) == act_unimodular(f, mat_mul(b, a))
        back = act_unimodular(act_unimodular(f, a), inverse_unimodular(a))
        assert back == f


def test_act_unimodular_matches_from_terms(act_unimodular_oracle):
    rng = random.Random(23)
    for _ in range(30):
        rank = rng.randint(1, 4)
        terms = {e: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)) for e in random_poly(rng, rank).support()}
        f = LaurentPolynomial.from_terms(rank, terms)
        a = random_unimodular(rng, rank)
        assert act_unimodular(f, a) == act_unimodular_oracle(f, a)
    f = parse("1/2*x + y^2")
    with pytest.raises(ValueError):
        act_unimodular(f, ((1, 1), (1, -1)))
    # Determinant 1 over the rationals, but the exponents would not stay integral.
    with pytest.raises(TypeError):
        act_unimodular(f, ((2, 0), (0, Fraction(1, 2))))


def test_act_unimodular_rejects_singular():
    with pytest.raises(ValueError):
        act_unimodular(parse("x + y"), ((1, 0), (0, 2)))


def test_newton_of_product_is_minkowski_sum():
    rng = random.Random(19)
    for _ in range(15):
        rank = rng.randint(1, 3)
        f = random_poly(rng, rank, terms=rng.randint(1, 4), positive=True)
        g = random_poly(rng, rank, terms=rng.randint(1, 4), positive=True)
        left = newton_polytope(f * g)
        right = minkowski_sum(newton_polytope(f), newton_polytope(g))
        assert left == right


def test_pow():
    f = parse("1 + x")
    assert f ** 3 == parse("1 + 3*x + 3*x^2 + x^3")
    assert f ** 0 == LaurentPolynomial.constant(1, 1)
    m = parse("2*x^3")
    assert m ** -2 == parse("1/4*x^-6")
    with pytest.raises(ValueError):
        f ** -1


@pytest.mark.parametrize("n", [1, 2, 3, 32, 33])
def test_pow_stops_squaring_at_the_top_bit(monkeypatch, n):
    squarings = []
    mul = LaurentPolynomial.__mul__

    def counted(a, b):
        squarings.append(a is b)
        return mul(a, b)

    monkeypatch.setattr(LaurentPolynomial, "__mul__", counted)
    got = parse("1 + x") ** n
    # g**33 squares g five times, up to g**32, and never builds g**64.
    assert squarings.count(True) == n.bit_length() - 1
    assert len(squarings) == n.bit_length() - 1 + bin(n).count("1")
    assert got == LaurentPolynomial.from_terms(1, {(k,): comb(n, k) for k in range(n + 1)})


def _line_support(rng):
    """2-6 points on one lattice line, not necessarily consecutive."""
    base = (rng.randint(-3, 3), rng.randint(-3, 3))
    step = rng.choice([(1, 0), (0, 1), (1, 1), (2, 1), (1, -2), (-3, 2)])
    ts = rng.sample(range(-4, 5), rng.randint(2, 6))
    return [(base[0] + t * step[0], base[1] + t * step[1]) for t in ts]


def _lattice_support(rng):
    """Every lattice point of a small rectangle or right triangle, so each
    edge carries points strictly between its ends."""
    a, b = rng.randint(1, 4), rng.randint(1, 4)
    pts = [(x, y) for x in range(a + 1) for y in range(b + 1)]
    if rng.random() < 0.5:
        pts = [(x, y) for x, y in pts if b * x + a * y <= a * b]
    return pts


def _newton_supports():
    rng = random.Random(29)
    out = []
    for _ in range(100):
        out.append((1, [(e,) for e in rng.sample(range(-6, 7), rng.randint(1, 6))]))
    box = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    for size in (1, 2, 3, 4):
        for _ in range(25):
            out.append((2, rng.sample(box, size)))
    for _ in range(50):
        out.append((2, _line_support(rng)))
    for _ in range(40):
        out.append((2, _lattice_support(rng)))
    for _ in range(60):
        out.append((2, rng.sample(box, rng.randint(5, 20))))
    return out


def test_newton_polytope_hulls_only_the_extreme_points(monkeypatch, support_hull):
    hulled = []
    full_hull = polyhedra.hull

    def spy(points, rays=()):
        hulled.append(sorted(points))
        return full_hull(points, rays)

    monkeypatch.setattr(polyhedra, "hull", spy)
    supports = _newton_supports()
    assert len(supports) >= 300
    for rank, support in supports:
        f = LaurentPolynomial.from_terms(rank, {e: 1 for e in support})
        hulled.clear()
        p = newton_polytope(f)
        assert p == support_hull(f), support
        if rank == 2:  # only rank 2 is cut to its vertices before the hull
            assert hulled == [sorted(p.vertices)], support


def test_floats_are_refused_as_coefficients_and_exponents():
    # Fraction(0.1) would be exact binary: denominator 2**55.
    with pytest.raises(TypeError):
        LaurentPolynomial.constant(1, 0.1)
    with pytest.raises(TypeError):
        LaurentPolynomial.monomial(2, (1, 0), 0.5)
    with pytest.raises(TypeError):
        LaurentPolynomial.from_terms(1, [((0,), 1), ((1,), 2.0)])
    with pytest.raises(TypeError):
        LaurentPolynomial.from_terms(1, {(1.5,): 1})
    f = LaurentPolynomial.from_terms(2, {(1, 0): Fraction(1, 3), (0, 1): 2})
    assert f.terms == (((0, 1), Fraction(2)), ((1, 0), Fraction(1, 3)))
    assert all(type(c) is Fraction for _, c in f.terms)
    assert LaurentPolynomial.constant(1, 2) == LaurentPolynomial.monomial(1, (0,), Fraction(2))
