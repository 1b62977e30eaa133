import random
from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest

from conftest import WORKED_POLYGONS, random_mutable_pair, random_poly, random_unimodular, recession_cone, seeded_family_cases, views
from laumut.deformation import build_family, verify_main_theorem
from laumut.exactlat import (
    inverse_unimodular,
    mat_vec,
    transpose,
)
from laumut.laurent import (
    LaurentPolynomial,
    act_unimodular,
    newton_polytope,
    parse,
)
from laumut.mutation import (
    MutationError,
    MutationSpec,
    apply_mutation,
    facet_mutation_spec,
    is_mutation,
    polygon_facets,
)
from laumut.polyhedra import (
    contains_origin_interior,
    dual_ehrhart_counts,
    hull,
    minkowski_sum,
    polar_dual,
)


def _random_levelled_pair(rng, rank, levels, failing):
    """A spec and a polynomial occupying exactly ``levels`` in its adapted
    frame; positive levels carry q * g^level except those in ``failing``,
    which carry an arbitrary slice."""
    basis = random_unimodular(rng, rank)
    direction = tuple(inverse_unimodular(basis)[-1])
    g = random_poly(rng, rank - 1, terms=rng.randint(2, 3), positive=True)
    spec = MutationSpec.from_adapted(direction, basis, g)
    terms = []
    for level in levels:
        part = random_poly(rng, rank - 1, terms=rng.randint(1, 2))
        if level > 0 and level not in failing:
            part = part * g ** level
        terms += [(e + (level,), c) for e, c in part.terms]
    return act_unimodular(LaurentPolynomial.from_terms(rank, terms), basis), spec


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_is_mutation_matches_per_level_powers(rank, per_level_powers):
    rng = random.Random(40 + rank)
    shapes = {"both": range(-3, 4), "positive": range(0, 4), "negative": range(-3, 0), "zero": [0]}
    seen = set()
    for i in range(48):
        shape = list(shapes)[i % 4]
        # Gaps between levels keep the running power moving past empty ones.
        levels = [lv for lv in shapes[shape] if lv in (0, -3, 3) or rng.random() < 0.6]
        levels = levels or [0]
        positive = [lv for lv in levels if lv > 0]
        failing = {lv for lv in positive if rng.random() < 0.3}
        f, spec = _random_levelled_pair(rng, rank, levels, failing)
        got = is_mutation(f, spec)
        want = per_level_powers(f, spec)
        assert got == want
        assert got[1].mutated == want[1].mutated
        seen.add((shape, got[0]))
    assert {("both", False), ("positive", False), ("negative", True), ("zero", True)} <= seen


def test_from_direction_worked_example():
    spec = MutationSpec.from_direction((0, 1), parse("1 + x", rank=2))
    assert spec.direction == (0, 1)
    assert spec.divisor == parse("1 + x", rank=1)
    assert spec.divisor_in_ambient() == parse("1 + x", rank=2)
    cols = transpose(spec.basis)
    # kernel column pairs to zero, last column to one
    assert sum(a * b for a, b in zip((0, 1), cols[0])) == 0
    assert sum(a * b for a, b in zip((0, 1), cols[1])) == 1


def test_from_direction_rejects_divisor_off_kernel():
    with pytest.raises(ValueError):
        MutationSpec.from_direction((0, 1), parse("1 + y"))


def test_spec_validation():
    with pytest.raises(ValueError):
        MutationSpec.from_adapted((0, 2), ((1, 0), (0, 1)), parse("1 + x"))
    with pytest.raises(ValueError):
        MutationSpec.from_adapted((0, 1), ((1, 0), (0, 2)), parse("1 + x"))
    with pytest.raises(ValueError):
        MutationSpec.from_adapted((0, 1), ((1, 0), (0, 1)), LaurentPolynomial.zero(1))


SPEC_1_PLUS_X = MutationSpec.from_direction((0, 1), parse("1 + x", rank=2))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MutationSpec.from_dict({**SPEC_1_PLUS_X.to_dict(), "rank": "3"}), "direction length does not match rank"),
        (
            lambda: MutationSpec.from_adapted((0, 1), ((1, 0), (0, 1), (0, 0)), parse("1 + x")),
            "basis must be a square matrix of the full rank",
        ),
        (lambda: MutationSpec.from_adapted((0, 1), ((0, 1), (1, 0)), parse("1 + x")), "basis is not adapted"),
        (
            lambda: MutationSpec.from_adapted((0, 1), ((1, 0), (0, 1)), parse("1 + x", rank=2)),
            "divisor must have rank one less than the ambient rank",
        ),
        (lambda: MutationSpec.from_direction((0, 1), parse("1 + x", rank=1)), "divisor rank does not match the direction"),
        (lambda: is_mutation(parse("x + y + z"), SPEC_1_PLUS_X), "polynomial rank does not match the mutation spec"),
    ],
    ids=["dict_rank", "basis_shape", "basis_not_adapted", "divisor_rank", "direction_divisor_rank", "polynomial_rank"],
)
def test_spec_and_polynomial_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_spec_transports_by_the_inverse_of_its_basis(act_unimodular_oracle):
    # from_direction and inverse() hand the spec the inverse they know, and
    # replace() inverts the new basis; to_adapted must equal the checked
    # change of variables by the inverse basis in every case.
    rng = random.Random(77)
    for rank in (2, 3, 4):
        for _ in range(10):
            f, spec = random_mutable_pair(rng, rank)
            ambient = MutationSpec.from_direction(spec.direction, spec.divisor_in_ambient())
            moved = replace(spec, basis=ambient.basis)
            for s in (spec, spec.inverse(), ambient, ambient.inverse(), moved):
                assert s.to_adapted(f) == act_unimodular_oracle(f, inverse_unimodular(s.basis))
    with pytest.raises(ValueError):
        spec.to_adapted(parse("x + y", rank=rank - 1))


@pytest.mark.parametrize("rank, kmax", [(2, 6), (3, 6), (4, 4)])
def test_mutation_keeps_the_classical_periods(period_oracle, rank, kmax):
    # The period reads every coefficient, where the polytope invariants read
    # only the support. Of the 20 pairs, 17, 7 and 1 in ranks 2, 3 and 4
    # have a nonzero period past pi(0) = 1.
    rng = random.Random(170 + rank)
    nonzero = 0
    for _ in range(20):
        f, spec = random_mutable_pair(rng, rank)
        periods = period_oracle(f, kmax)
        assert period_oracle(apply_mutation(f, spec), kmax) == periods
        nonzero += any(periods[1:])
    assert nonzero > 0


def test_is_mutation_failure_level():
    f = parse("x^-1*y + 2*y + x*y + y^-1")
    spec = MutationSpec.from_direction((0, 1), parse("1 + x^2", rank=2))
    ok, check = is_mutation(f, spec)
    assert not ok
    assert check.failing_levels() == [1]
    with pytest.raises(MutationError) as info:
        apply_mutation(f, spec)
    assert info.value.level == 1


def test_dual_counts_match_box_scan_on_random_rank3_pairs(box_scan):
    # The box scan costs the volume of the dual's dilated bounding box, so
    # pairs whose box exceeds 10,000 points at k = 3 are passed over.
    rng = random.Random(131)
    checked = 0
    while checked < 4:
        f, spec = random_mutable_pair(rng, 3)
        polytopes = [newton_polytope(f), newton_polytope(apply_mutation(f, spec))]
        if not all(contains_origin_interior(p) for p in polytopes):
            continue
        boxes = [
            prod(2 * int(3 * max(abs(v[i]) for v in polar_dual(p).vertices)) + 1 for i in range(3))
            for p in polytopes
        ]
        if max(boxes) > 10_000:
            continue
        counts = [dual_ehrhart_counts(p, 3) for p in polytopes]
        assert counts == [box_scan(p, 3) for p in polytopes]
        assert counts[0] == counts[1]
        checked += 1


def test_family_slices_match_cone_level_slice(level_slice_oracle):
    # The family reads Delta_0 and Delta_inf off the level points of
    # Delta(f); the oracle cuts them out of sigma's facets instead.
    for f, spec in seeded_family_cases():
        fam = build_family(f, spec)
        assert views(fam.delta0) == views(level_slice_oracle(fam.sigma, fam.direction, 1))
        assert views(fam.delta_inf) == views(level_slice_oracle(fam.sigma, fam.direction, -1))
        assert recession_cone(fam.delta0) == fam.tail and recession_cone(fam.delta_inf) == fam.tail


@pytest.mark.parametrize("rank,kmax", [(2, 6), (3, 4), (4, 3)])
def test_dual_counts_invariant_under_unimodular_maps(rank, kmax):
    # verify relies on this: it counts dual lattice points in the family's adapted frame.
    rng = random.Random(70 + rank)
    checked = 0
    while checked < 6:
        p = newton_polytope(random_poly(rng, rank, terms=rank + 3))
        if not contains_origin_interior(p):
            continue
        a = random_unimodular(rng, rank)
        assert dual_ehrhart_counts(hull([mat_vec(a, v) for v in p.vertices]), kmax) == dual_ehrhart_counts(p, kmax)
        checked += 1


def test_verify_dual_counts_match_ambient_coordinates():
    rng = random.Random(3)
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    while True:
        f, spec = random_mutable_pair(rng, 3)
        if spec.basis != identity and contains_origin_interior(newton_polytope(f)):
            break
    counts = verify_main_theorem(f, spec, kmax=4).checks[-1].details
    assert counts["input"] == dual_ehrhart_counts(newton_polytope(f), 4)
    assert counts["mutated"] == dual_ehrhart_counts(newton_polytope(apply_mutation(f, spec)), 4)


def test_worked_mutation_and_involution():
    f = parse("x^-1*y + 2*y + x*y + y^-1")
    spec = MutationSpec.from_direction((0, 1), parse("1 + x", rank=2))
    ok, check = is_mutation(f, spec)
    assert ok and check.low == -1 and check.high == 1
    g = apply_mutation(f, spec)
    assert g == parse("x^-1*y + y + y^-1 + x*y^-1")
    assert apply_mutation(g, spec.inverse()) == f


def test_monomial_divisor_always_mutable():
    rng = random.Random(23)
    spec = MutationSpec.from_direction((0, 1), parse("x^2", rank=2))
    for _ in range(10):
        f = random_poly(rng, 2, terms=5)
        ok, _ = is_mutation(f, spec)
        assert ok


def test_zero_polynomial_rejected():
    spec = MutationSpec.from_direction((0, 1), parse("1 + x", rank=2))
    with pytest.raises(ValueError):
        is_mutation(LaurentPolynomial.zero(2), spec)


def test_random_involution_rank2():
    rng = random.Random(29)
    for _ in range(60):
        f, spec = random_mutable_pair(rng, 2)
        ok, _ = is_mutation(f, spec)
        assert ok
        g = apply_mutation(f, spec)
        assert apply_mutation(g, spec.inverse()) == f


def test_random_involution_rank3():
    rng = random.Random(31)
    for _ in range(25):
        f, spec = random_mutable_pair(rng, 3)
        g = apply_mutation(f, spec)
        assert apply_mutation(g, spec.inverse()) == f


def test_conjugation_equivariance():
    rng = random.Random(37)
    for _ in range(25):
        rank = rng.choice([2, 3])
        f, spec = random_mutable_pair(rng, rank)
        a = random_unimodular(rng, rank)
        u2 = mat_vec(transpose(inverse_unimodular(a)), spec.direction)
        basis2 = tuple(
            tuple(sum(a[i][k] * spec.basis[k][j] for k in range(rank)) for j in range(rank))
            for i in range(rank)
        )
        spec2 = MutationSpec.from_adapted(u2, basis2, spec.divisor)
        left = apply_mutation(act_unimodular(f, a), spec2)
        right = act_unimodular(apply_mutation(f, spec), a)
        assert left == right


def test_newton_slices_shift_by_divisor_polytope():
    rng = random.Random(41)
    for _ in range(20):
        f, spec = random_mutable_pair(rng, 2)
        g = apply_mutation(f, spec)
        inv = inverse_unimodular(spec.basis)
        fa = act_unimodular(f, inv)
        ga = act_unimodular(g, inv)
        dp = newton_polytope(spec.divisor)
        sf, sg = {}, {}
        for h, levels in ((fa, sf), (ga, sg)):
            for e, c in h.terms:
                levels.setdefault(e[-1], []).append((e[:-1], c))
        assert set(sf) == set(sg)
        for i, terms in sf.items():
            before = newton_polytope(LaurentPolynomial.from_terms(fa.rank - 1, terms))
            after = newton_polytope(LaurentPolynomial.from_terms(ga.rank - 1, sg[i]))
            if i > 0:
                scaled = dp
                for _ in range(i - 1):
                    scaled = minkowski_sum(scaled, dp)
                assert minkowski_sum(after, scaled) == before
            elif i < 0:
                scaled = dp
                for _ in range(-i - 1):
                    scaled = minkowski_sum(scaled, dp)
                assert after == minkowski_sum(before, scaled)
            else:
                assert after == before


def test_polygon_facets_worked_example():
    p = newton_polytope(parse("x^-1 + x^-1*y + y + y^-1 + x*y^-1"))
    facets = polygon_facets(p)
    assert [fc.vertices[0] for fc in facets] == [
        (-1, 0),
        (0, -1),
        (1, -1),
        (0, 1),
        (-1, 1),
    ]
    top = facets[3]
    assert top.direction == (0, 1)
    assert top.height == 1
    assert all(fc.height > 0 for fc in facets)
    assert all(type(c) is int for fc in facets for c in (fc.height, *fc.vertices[0], *fc.vertices[1]))


def test_polygon_facets_rejects_bad_input():
    with pytest.raises(ValueError):
        polygon_facets(hull([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))]))
    with pytest.raises(ValueError):
        polygon_facets(hull([(Fraction(0), Fraction(0))], [(1, 0), (0, 1)]))
    with pytest.raises(ValueError):
        polygon_facets(hull([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1))]))


def test_facet_mutation_spec_square():
    square = hull([(Fraction(a), Fraction(b)) for a in (-1, 1) for b in (-1, 1)])
    spec = facet_mutation_spec(square, 1)
    assert spec.direction == (1, 0)
    assert spec.divisor_in_ambient() == parse("1 + y")


def test_facet_mutation_spec_top_edge():
    p = newton_polytope(parse("x^-1 + x^-1*y + y + y^-1 + x*y^-1"))
    spec = facet_mutation_spec(p, 3)
    assert spec.direction == (0, 1)
    assert spec.divisor_in_ambient() == parse("1 + x", rank=2)


def test_facet_mutation_spec_matches_the_adapted_basis_oracle(facet_spec_oracle):
    rng = random.Random(2600)
    for text in WORKED_POLYGONS:
        for m in [((1, 0), (0, 1))] + [random_unimodular(rng, 2) for _ in range(4)]:
            p = newton_polytope(act_unimodular(parse(text), m))
            for facet in polygon_facets(p):
                spec, expected = facet_mutation_spec(p, facet.index), facet_spec_oracle(facet)
                assert spec == expected and spec.to_dict() == expected.to_dict(), (text, facet)


def test_facet_mutation_spec_errors():
    p = newton_polytope(parse("x^-1 + x^-1*y + y + y^-1 + x*y^-1"))
    with pytest.raises(ValueError):
        facet_mutation_spec(p, 17)
    shifted = hull([(v[0] + 5, v[1]) for v in p.vertices])
    with pytest.raises(ValueError):
        facet_mutation_spec(shifted, 0)
    nonprim = hull([(Fraction(2), Fraction(0)), (Fraction(-2), Fraction(2)), (Fraction(0), Fraction(-2))])
    with pytest.raises(ValueError):
        facet_mutation_spec(nonprim, 0)


def test_spec_dict_round_trip():
    spec = MutationSpec.from_direction((2, 3), parse("1 + 2*x^3*y^-2 + x^6*y^-4"))
    again = MutationSpec.from_dict(spec.to_dict())
    assert again == spec


def test_spec_from_dict_refuses_non_integral_entries():
    data = MutationSpec.from_direction((0, 1), parse("1 + x", rank=2)).to_dict()
    assert data["direction"] == ["0", "1"] and data["basis"][0][0] == "1"
    with pytest.raises(ValueError):
        MutationSpec.from_dict({**data, "direction": ["0", "3/2"]})
    basis = [["3/2", "0"], ["0", "1"]]
    with pytest.raises(ValueError):
        MutationSpec.from_dict({**data, "basis": basis})


def test_spec_from_dict_refuses_rank_zero():
    # The divisor has rank one less than the spec: rank 0 asks parse for rank -1, which it refuses before scanning.
    data = MutationSpec.from_direction((0, 1), parse("1 + x", rank=2)).to_dict()
    with pytest.raises(ValueError, match="rank -1 is negative"):
        MutationSpec.from_dict({**data, "rank": 0})


def test_spec_constructors_refuse_non_integers_instead_of_truncating():
    # int() would build the mutation along (0, 1) from (1/2, 1) and read a rank of 2.9 as 2.
    g = parse("1 + x", rank=2)
    with pytest.raises(ValueError):
        MutationSpec.from_direction((Fraction(1, 2), 1), g)
    with pytest.raises(TypeError):
        MutationSpec.from_direction((0.0, 1), g)
    basis = ((1, 0), (0, 1))
    with pytest.raises(TypeError):
        MutationSpec.from_adapted((0, 1.7), basis, parse("1 + x"))
    with pytest.raises(ValueError):
        MutationSpec.from_adapted((0, 1), ((Fraction(3, 2), 0), (0, 1)), parse("1 + x"))
    data = MutationSpec.from_direction((0, 1), g).to_dict()
    with pytest.raises(ValueError):
        MutationSpec.from_dict({**data, "rank": "29/10"})
    with pytest.raises(TypeError):
        MutationSpec.from_dict({**data, "rank": 2.9})
    # Ints, integral Fractions and integral strings still pass.
    spec = MutationSpec.from_direction(("0", Fraction(2, 2)), g)
    assert spec == MutationSpec.from_direction((0, 1), g)
    assert MutationSpec.from_adapted(("0", "1"), (("1", 0), (0, "2/2")), parse("1 + x")) == spec
    assert MutationSpec.from_dict({**data, "rank": "2"}) == spec


def test_check_dict_shape():
    f = parse("x^-1*y + 2*y + x*y + y^-1")
    spec = MutationSpec.from_direction((0, 1), parse("1 + x", rank=2))
    _, check = is_mutation(f, spec)
    d = check.to_dict()
    assert d["is_mutation"] is True
    assert d["low"] == -1 and d["high"] == 1
    assert {lv["level"] for lv in d["levels"]} == {1}
