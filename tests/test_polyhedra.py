import hashlib
import random
import re
from dataclasses import astuple
from fractions import Fraction
from math import comb, gcd

import pytest

from conftest import WORKED_POLYGONS, dot_incidence, fraction_vertex_cycle, matrix_rank, pairwise_refinement_cells, normalized_volume_2d, recession_cone, seeded_family_cases, span_rank_dim, views
from laumut import polyhedra
from laumut.deformation import build_family, verify_main_theorem
from laumut.exactlat import (
    dot,
    inverse_unimodular,
    mat_vec,
    primitive_vector,
    transpose,
    unit_vector,
    vadd,
    vneg,
    vscale,
)
from laumut.laurent import LaurentPolynomial, act_unimodular, divide_exact, newton_polytope, parse
from laumut.mutation import MutationSpec, polygon_facets
from laumut.polyhedra import (
    AdmissibilityVerdict,
    Cone,
    Polyhedron,
    STATUS_NO,
    STATUS_YES,
    cone_over,
    contains_origin_interior,
    dual_cone,
    dual_ehrhart_counts,
    extreme_rays,
    from_halfspaces,
    hull,
    is_admissible_pair,
    is_lattice_polyhedron,
    is_minkowski_sum,
    kernel_slice,
    lattice_cycle,
    level_slice,
    minkowski_sum,
    polar_dual,
    verify_admissibility,
)


def V(*pts):
    return [tuple(Fraction(c) for c in p) for p in pts]


def vertex_set(p):
    return {tuple(v) for v in p.vertices}


def random_polytope(rng, rank=2):
    pts = []
    for _ in range(rng.randint(1, 7)):
        pts.append(
            tuple(Fraction(rng.randint(-10, 10), rng.choice([1, 1, 2, 3])) for _ in range(rank))
        )
    return hull(pts)


def random_cone(rng, rank):
    gens = []
    for _ in range(rng.randint(1, rank + 2)):
        g = tuple(rng.randint(-5, 5) for _ in range(rank))
        if any(g):
            gens.append(g)
    return Cone.from_generators(rank, gens)


# -- hull ----------------------------------------------------------------------


def test_hull_unit_square():
    p = hull(V((1, 1), (1, -1), (-1, 1), (-1, -1)))
    assert vertex_set(p) == {(-1, -1), (-1, 1), (1, -1), (1, 1)}
    assert p.rays == ()
    assert set(p.halfspaces) == {
        ((1, 0), Fraction(-1)),
        ((-1, 0), Fraction(-1)),
        ((0, 1), Fraction(-1)),
        ((0, -1), Fraction(-1)),
    }


def test_hull_drops_boundary_point():
    p = hull(V((-1, 1), (0, 1), (1, 1), (0, -1)))
    assert vertex_set(p) == {(-1, 1), (1, 1), (0, -1)}


def test_hull_with_rays():
    p = hull(V((-1, 1), (1, 1)), [(-1, 2), (1, 2)])
    assert vertex_set(p) == {(-1, 1), (1, 1)}
    assert set(p.rays) == {(-1, 2), (1, 2)}
    assert len(p.halfspaces) == 3


def test_hull_empty_points_rejected():
    with pytest.raises(ValueError):
        hull([])


def test_hull_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        hull(V((0, 0), (1, 1, 1)))


def test_hull_single_point():
    p = hull(V((0, 0)))
    assert vertex_set(p) == {(0, 0)}
    assert span_rank_dim(p) == 0


# -- Minkowski sums and tailcones ------------------------------------------------


def test_minkowski_segments():
    a = hull(V((-1,), (0,)))
    b = hull(V((0,), (1,)))
    assert vertex_set(minkowski_sum(a, b)) == {(-1,), (1,)}


def test_minkowski_point_translation():
    q = hull(V((0, 0), (2, 0), (0, 2)))
    p = hull(V((3, -1)))
    assert minkowski_sum(p, q) == hull(V((3, -1), (5, -1), (3, 1)))


def test_minkowski_commutative_associative():
    rng = random.Random(41)
    for _ in range(25):
        a, b, c = (random_polytope(rng) for _ in range(3))
        assert minkowski_sum(a, b) == minkowski_sum(b, a)
        assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(a, minkowski_sum(b, c))


def test_tailcone_examples():
    assert recession_cone(hull(V((1, 1), (0, 0)))) == Cone.from_generators(2, [])
    p = hull(V((-1, 1), (1, 1)), [(-1, 2), (1, 2)])
    assert recession_cone(p) == Cone.from_generators(2, [(-1, 2), (1, 2)])


def test_tail_of_sum_is_sum_of_tails():
    rng = random.Random(43)
    ray_pool = [(1, 0), (0, 1), (1, 2), (-1, 2), (2, 1)]
    for _ in range(20):
        p = hull(
            [(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))) for _ in range(3)],
            rng.sample(ray_pool, rng.randint(0, 2)),
        )
        q = hull(
            [(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))) for _ in range(3)],
            rng.sample(ray_pool, rng.randint(0, 2)),
        )
        lhs = recession_cone(minkowski_sum(p, q))
        rhs = Cone.from_generators(2, list(p.rays) + list(q.rays))
        assert lhs == rhs


# -- duality ---------------------------------------------------------------------


def test_dual_cone_examples():
    orthant = Cone.from_generators(2, [(1, 0), (0, 1)])
    assert dual_cone(orthant) == orthant
    c = Cone.from_generators(2, [(-1, 2), (1, 2)])
    assert dual_cone(c) == Cone.from_generators(2, [(-2, 1), (2, 1)])
    halfplane = Cone.from_generators(2, [(1, 0), (-1, 0), (0, 1)])
    d = dual_cone(halfplane)
    assert d == Cone.from_generators(2, [(0, 1)])
    assert d.rays == ((0, 1),)


def test_double_dual_random():
    rng = random.Random(47)
    for _ in range(60):
        c = random_cone(rng, rng.randint(2, 4))
        assert dual_cone(dual_cone(c)) == c


def test_cone_equality_is_semantic():
    a = Cone.from_generators(2, [(1, 0), (0, 1)])
    b = Cone.from_generators(2, [(1, 0), (1, 1), (0, 1)])
    assert a == b
    assert a != Cone.from_generators(2, [(1, 0), (1, 1)])


def test_cone_dict_round_trip():
    c = Cone.from_generators(3, [(1, 0, 0), (1, 2, 0), (1, 0, 3)])
    assert Cone.from_dict(c.to_dict()) == c


def test_cone_from_dict_refuses_a_non_integral_rank():
    rays = [["1", "0"], ["0", "1"]]
    assert Cone.from_dict({"rank": "2", "rays": rays}).rank == 2
    with pytest.raises(ValueError):
        Cone.from_dict({"rank": "29/10", "rays": rays})
    with pytest.raises(TypeError):
        Cone.from_dict({"rank": 2.9, "rays": rays})


REFINED_P = hull(V((-1, -1), (0, 1)) + [(Fraction(-1, 2), Fraction(1))])
REFINED_Q = hull(V((-1, 1)) + [(Fraction(1, 2), Fraction(1))])
REFINED = is_admissible_pair(REFINED_P, REFINED_Q)


def forged_first_cell(**fields):
    cells = REFINED.certificate["cells"]
    cert = {"kind": "refinement", "cells": [dict(cells[0], **fields)] + cells[1:]}
    return AdmissibilityVerdict(STATUS_YES, "forged", certificate=cert)


@pytest.mark.parametrize(
    "evidence",
    [
        AdmissibilityVerdict(STATUS_YES, "forged", certificate={"which": 0}),
        AdmissibilityVerdict(STATUS_YES, "forged", certificate={"kind": "lattice_polyhedron", "which": 5}),
        AdmissibilityVerdict(STATUS_YES, "forged", certificate={"kind": "lattice_polyhedron", "which": "0"}),
        AdmissibilityVerdict(STATUS_YES, "forged", certificate={"kind": "refinement"}),
        forged_first_cell(vertex_pair=(["abc", "0"], REFINED.certificate["cells"][0]["vertex_pair"][1])),
        forged_first_cell(vertex_pair=(["1/0", "0"], REFINED.certificate["cells"][0]["vertex_pair"][1])),
        forged_first_cell(cell_rays=[[1.5, 0]] + REFINED.certificate["cells"][0]["cell_rays"][1:]),
        AdmissibilityVerdict(STATUS_NO, "forged", witness=(1, 1, 1)),
        {"rank": -2},
        {"rank": 1002, "rays": []},
        forged_first_cell(vertex_pair=(["0", "0"], REFINED.certificate["cells"][0]["vertex_pair"][1])),
        forged_first_cell(vertex_pair=(["-1/2", "1"], ["1/2", "1"])),
        forged_first_cell(cell_rays=REFINED.certificate["cells"][1]["cell_rays"]),
        AdmissibilityVerdict(STATUS_YES, "forged", certificate={"kind": "made_up"}),
        AdmissibilityVerdict(STATUS_YES, "forged", certificate={"kind": "lattice_polyhedron", "which": -1}),
        AdmissibilityVerdict(STATUS_YES, "forged", certificate={"kind": "lattice_polyhedron", "which": True}),
        forged_first_cell(cell_rays=[[False, True]] + REFINED.certificate["cells"][0]["cell_rays"][1:]),
    ],
    ids=["no_kind", "which_out_of_range", "which_a_string", "no_cells", "vertex_not_a_number",
         "vertex_over_zero", "float_cell_ray", "witness_too_long", "cone_of_negative_rank",
         "cone_past_the_rank_limit", "pair_not_vertices", "pair_both_fractional", "cell_of_another_pair",
         "unknown_kind", "which_negative", "which_a_bool", "bool_cell_ray"],
)
def test_readers_refuse_malformed_evidence(evidence):
    # Malformed evidence is refused: False from the admissibility checker, on
    # a pair whose genuine verdict it accepts, and ValueError from the cone
    # reader. It used to raise KeyError, IndexError, TypeError,
    # ValueError or ZeroDivisionError, or to build a cone of negative rank.
    # Well-formed but false evidence is refused too: a pair that is not a
    # vertex pair, a pair with no lattice vertex, a cell on which the pair
    # does not attain both minima, and a certificate of no known kind.
    # A lattice certificate is read on a pair whose second polytope is a
    # lattice one, so only its index "which" can be at fault: -1 and True
    # index the pair as 1 does, but "which" names p or q as 0 or 1. A cell
    # ray of bools is the genuine (0, 1) read as numbers, and is refused.
    assert REFINED.certificate["kind"] == "refinement" and verify_admissibility(REFINED_P, REFINED_Q, REFINED)
    lattice_pair = (REFINED_P, hull(V((-1, 1), (1, 1))))
    genuine = AdmissibilityVerdict(STATUS_YES, "lattice", certificate={"kind": "lattice_polyhedron", "which": 1})
    assert verify_admissibility(*lattice_pair, genuine)
    if isinstance(evidence, dict):
        with pytest.raises(ValueError):
            Cone.from_dict(evidence)
    else:
        lattice = evidence.certificate and evidence.certificate.get("kind") == "lattice_polyhedron"
        assert verify_admissibility(*(lattice_pair if lattice else (REFINED_P, REFINED_Q)), evidence) is False


def test_cone_from_dict_refuses_non_integral_rays():
    assert Cone.from_dict({"rank": 2, "rays": [["2/2", "1"], ["-1", "1"]]}).rays == ((-1, 1), (1, 1))
    with pytest.raises(ValueError):
        Cone.from_dict({"rank": 2, "rays": [["1/2", "1"], ["-1", "1"]]})


# -- the cone a polyhedron is kept as ---------------------------------------------


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_polyhedron_views_match_the_fraction_oracle(dehomogenize_oracle, rank):
    # The vertices, rays and halfspaces read off the cone of each
    # constructor's output equal the Fraction fields it dehomogenizes to,
    # for bounded, unbounded and flat polyhedra alike.
    rng = random.Random(2100 + rank)
    seen = set()
    for _ in range(40):
        pts = [
            tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(rank))
            for _ in range(rng.randint(1, rank + 3))
        ]
        rays = [tuple(rng.randint(0, 2) for _ in range(rank)) for _ in range(rng.randint(0, 2))]
        p = hull(pts, [r for r in rays if any(r)])
        outputs = [p, from_halfspaces(p.halfspaces, rank)]
        if contains_origin_interior(p):
            outputs.append(polar_dual(p))
        if not p.rays and span_rank_dim(p) == rank and min(v[-1] for v in p.vertices) < 0 < max(v[-1] for v in p.vertices):
            sigma = cone_over(p, 0)
            outputs += [level_slice(sigma, kernel_slice(sigma), sign) for sign in (1, -1)]
        for out in outputs:
            assert views(out) == dehomogenize_oracle(out.cone)
            seen.add("flat" if span_rank_dim(out) < rank else "unbounded" if out.rays else "bounded")
    assert seen == {"bounded", "unbounded", "flat"}


@pytest.mark.parametrize(
    "cone",
    [
        Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (0, -1, 0)]),
        Cone.from_generators(3, [(0, 1, 0), (0, 0, 1)]),
        Cone.from_generators(3, []),
    ],
    ids=["line_at_height_0", "no_point", "origin"],
)
def test_polyhedron_refuses_a_cone_with_a_line_or_no_point(dehomogenize_oracle, cone):
    with pytest.raises(ValueError):
        dehomogenize_oracle(cone)
    with pytest.raises(ValueError):
        Polyhedron(cone)


@pytest.mark.parametrize(
    "gens",
    [[(1, 0, 0), (-1, 0, 0), (1, 1, 0)], [(-1, 1), (1, 0)]],
    ids=["line_across_heights", "below_height_0"],
)
def test_polyhedron_refuses_a_cone_below_height_0(gens):
    # Read as before, the first gave the vertex (0, 0) twice, and the second
    # a polytope whose halfspaces x >= -1 and x >= 0 left its vertex -1 out.
    with pytest.raises(ValueError):
        Polyhedron(Cone.from_generators(len(gens[0]), gens))


# -- cone_over / slices -----------------------------------------------------------


def test_cone_over_triangle():
    p = hull(V((-1, 1), (1, 1), (0, -1)))
    c = cone_over(p, 0)
    assert set(c.rays) == {(1, -1, 1), (1, 1, 1), (1, 0, -1)}


def test_cone_over_origin():
    c = cone_over(hull(V((0, 0))), 0)
    assert c.rays == ((1, 0, 0),)


def test_cone_over_parallelogram():
    p = hull(V((-1, 1), (0, 1), (0, -1), (1, -1)))
    c = cone_over(p, 0)
    assert set(c.rays) == {(1, -1, 1), (1, 0, 1), (1, 0, -1), (1, 1, -1)}


def test_cone_over_rejects_unbounded():
    with pytest.raises(ValueError):
        cone_over(hull(V((0, 0)), [(1, 0)]), 0)


@pytest.mark.parametrize("height_index", [1, 2, -1])
def test_cone_over_takes_the_height_first(height_index):
    # The height coordinate comes first, where the cone is the polytope's own.
    p = hull(V((-1, 1), (1, 1), (0, -1)))
    assert cone_over(p) is p.cone
    with pytest.raises(ValueError, match="height_index out of range"):
        cone_over(p, height_index)


def test_slice_tailcones_match_kernel_slice(level_slice_oracle):
    rng = random.Random(53)
    tried = 0
    while tried < 15:
        p = random_polytope(rng)
        if not contains_origin_interior(p):
            continue
        tried += 1
        sigma = cone_over(p, 0)
        u = (0, 0, 1)
        tau = kernel_slice(sigma)
        for sign in (1, -1):
            s = level_slice(sigma, tau, sign)
            assert s == level_slice_oracle(sigma, u, sign)
            assert recession_cone(s) == tau


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_level_slice_matches_hull_and_facet_oracles(rank, hull_slice_oracle, level_slice_oracle, kernel_slice_oracle):
    # Halfspaces are not printed, so the views are compared field by field.
    # kernel_slice refuses a cone with rays on one side only; there the
    # oracle gives the tail that level_slice is handed.
    rng = random.Random(90 + rank)
    u = unit_vector(rank + 1, rank)
    seen = {"bounded": 0, "unbounded": 0}
    while min(seen.values()) < 6:
        straddle = rng.random() < 0.5
        low = -4 if straddle else 1
        pts = [
            tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2])) for _ in range(rank - 1))
            + (Fraction(rng.randint(low, 4), rng.choice([1, 1, 3])),)
            for _ in range(rank + rng.randint(1, 4))
        ]
        p = hull(pts)
        if span_rank_dim(p) < rank:
            continue
        sigma = cone_over(p, 0)
        if min(v[-1] for v in p.vertices) < 0 < max(v[-1] for v in p.vertices):
            tail = kernel_slice(sigma)
            assert astuple(tail) == astuple(kernel_slice_oracle(sigma))
        else:
            with pytest.raises(ValueError):
                kernel_slice(sigma)
            tail = kernel_slice_oracle(sigma)
        seen["unbounded" if tail.rays else "bounded"] += 1
        for sign in (1, -1):
            if not any(sign * v[-1] > 0 for v in p.vertices):
                with pytest.raises(ValueError):
                    level_slice(sigma, tail, sign)
                continue
            s = level_slice(sigma, tail, sign)
            assert views(s) == views(hull_slice_oracle(p.vertices, sign, tail))
            assert views(s) == views(level_slice_oracle(sigma, u, sign))
            assert recession_cone(s) == tail


LINE = Cone.from_generators(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, -1, 1)])
EQUATION = Cone.from_generators(3, [(1, 0, 1), (1, 1, -1)])
ABOVE = cone_over(hull(V((0, 1), (1, 2), (-1, 2))), 0)
LINE_ACROSS_LEVELS = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)])


@pytest.mark.parametrize(
    "cone,sign",
    [(LINE, 1), (EQUATION, 1), (ABOVE, -1), (LINE_ACROSS_LEVELS, 1)],
    ids=["line", "equation", "no_ray_at_level", "line_across_levels"],
)
def test_level_slice_preconditions(kernel_slice_oracle, cone, sign):
    # The line and equation cones have rays at level 1, so only their shape
    # refuses them: a cone with a line or an equation carries no incidence.
    # The line across levels (along x_last) leaves a pointed tail and no
    # opposite facet normals. kernel_slice refuses every one of these
    # cones, so the oracle gives the tail.
    assert cone.incidence is None or cone is ABOVE
    tail = kernel_slice_oracle(cone)
    with pytest.raises(ValueError):
        level_slice(cone, tail, sign)


@pytest.mark.parametrize(
    "cone",
    [
        LINE,
        EQUATION,
        ABOVE,
        cone_over(hull(V((0, -1), (1, -2), (-1, 0))), 0),
        LINE_ACROSS_LEVELS,
        # The half-space y >= 0 cut by x_last = 0: a line, and a slice that has one too.
        Cone.from_generators(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)]),
        # The incidence is what the read-off needs: a cone built without it is refused.
        Cone(3, ABOVE.rays, ABOVE.facet_normals),
    ],
    ids=["line", "equation", "no_ray_below", "no_ray_above", "line_across_levels", "half_space", "no_incidence"],
)
def test_kernel_slice_preconditions(kernel_slice_oracle, cone):
    kernel_slice_oracle(cone)  # the one-pass oracle takes any cone
    with pytest.raises(ValueError):
        kernel_slice(cone)


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_kernel_slice_read_off_matches_the_one_pass_oracle(kernel_slice_oracle, rank):
    # Every pointed full-dimensional cone of the corpus, and the cone over
    # every full-dimensional one of 60 seeded polytopes with the height at
    # each coordinate, carries the exact incidence; the others carry none.
    # Those with rays on both sides of x_last = 0 are sliced and compared
    # field by field with the oracle.
    corpus, _ = cone_corpus(rank)
    rng = random.Random(7300 + rank)
    lifted = [random_polytope(rng, rank - 1) for _ in range(60)]
    cones = [Cone.from_generators(rank, rows) for rows in corpus]
    cones += [
        Cone.from_generators(rank, [g[1:h + 1] + g[:1] + g[h + 1:] for g in p.cone.rays])
        for p in lifted if span_rank_dim(p) == rank - 1 for h in range(rank)
    ]
    shapes = set()
    for cone in cones:
        if has_opposite_pair(cone.rays) or has_opposite_pair(cone.facet_normals):
            assert cone.incidence is None
            continue
        assert cone.incidence == dot_incidence(cone)
        if min(r[-1] for r in cone.rays) < 0 < max(r[-1] for r in cone.rays):
            tau = kernel_slice(cone)
            assert astuple(tau) == astuple(kernel_slice_oracle(cone))
            # Two facets restricting to one normal of the slice are read as one.
            restricted = [primitive_vector(n[:-1]) for n in cone.facet_normals]
            shapes.add("shared" if len(set(restricted)) < len(restricted) else "sliced")
        else:
            with pytest.raises(ValueError):
                kernel_slice(cone)
            shapes.add("one-sided")
    # In rank 2 both facets of a slice restrict to its one normal.
    assert shapes == {2: {"shared", "one-sided"}, 5: {"sliced", "one-sided"}}.get(rank, {"sliced", "shared", "one-sided"})


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_continued_pass_matches_a_cold_pass(rank):
    # A pass started from a pointed full-dimensional cone of the corpus, of
    # this rank or of one less taken at 0 in a new first coordinate, and
    # given the rows of another corpus entry, stores the fields of one cold
    # pass over the cone's rays and those rows together, incidence included.
    rng = random.Random(7400 + rank)
    corpus, _ = cone_corpus(rank)
    starts = [(Cone.from_generators(rank, rows), ()) for rows in corpus]
    starts += [(Cone.from_generators(rank - 1, rows), (0,)) for rows in cone_corpus(rank - 1)[0]]
    shapes = set()
    for start, lift in starts:
        if start.incidence is None:
            with pytest.raises(ValueError):
                Cone.from_generators(rank, corpus[5], start)
            continue
        rows = rng.choice(corpus)
        got = Cone.from_generators(rank, rows, start)
        assert astuple(got) == astuple(Cone.from_generators(rank, [lift + r for r in start.rays] + rows))
        assert got.incidence is None or got.incidence == dot_incidence(got)
        line, flat = has_opposite_pair(got.rays), has_opposite_pair(got.facet_normals)
        shapes.add((len(lift), "line" if line else "flat" if flat else "pointed"))
    assert shapes == {(0, "line"), (0, "pointed"), (1, "line"), (1, "flat"), (1, "pointed")}
    with pytest.raises(ValueError):
        Cone.from_generators(rank + 2, [], Cone.from_generators(rank, [unit_vector(rank, i) for i in range(rank)]))


# -- lattice tests and duals ------------------------------------------------------


def test_is_lattice_polyhedron():
    assert is_lattice_polyhedron(hull(V((0, 0), (1, 0))))
    assert not is_lattice_polyhedron(hull([(Fraction(1, 2), Fraction(0))]))


def test_contains_origin_interior():
    assert contains_origin_interior(hull(V((1, 1), (1, -1), (-1, 1), (-1, -1))))
    assert not contains_origin_interior(hull(V((0, 0), (1, 0), (0, 1))))
    assert not contains_origin_interior(hull(V((-1,), (0,))))
    assert not contains_origin_interior(hull(V((0, 0)), [(1, 0), (0, 1)]))


def test_polar_dual_square():
    square = hull(V((1, 1), (1, -1), (-1, 1), (-1, -1)))
    assert vertex_set(polar_dual(square)) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert polar_dual(polar_dual(square)) == square


def test_polar_dual_needs_interior_origin():
    with pytest.raises(ValueError):
        polar_dual(hull(V((0, 0), (1, 0), (0, 1))))


def test_dual_ehrhart_counts_square():
    square = hull(V((1, 1), (1, -1), (-1, 1), (-1, -1)))
    # dual is the diamond; k-th dilate holds 2k^2+2k+1 lattice points
    assert dual_ehrhart_counts(square, 4) == [5, 13, 25, 41]


SHEARS = (((1, 0), (0, 1)), ((1, 1), (0, 1)), ((1, 2), (0, 1)), ((2, 3), (1, 2)))


@pytest.mark.parametrize("shear", SHEARS)
def test_dual_counts_match_box_scan_on_sheared_polygons(box_scan, shear):
    for text in WORKED_POLYGONS:
        p = newton_polytope(act_unimodular(parse(text), shear))
        assert dual_ehrhart_counts(p, 6) == box_scan(p, 6)


def test_dual_counts_match_box_scan_with_rational_dual_vertices(box_scan):
    for p in (
        hull(V((2, 0), (0, 2), (-2, -2))),
        hull(V((Fraction(1, 2), 0), (0, Fraction(1, 3)), (-1, Fraction(-2, 5)))),
        hull(V((3, 1, 0), (0, 2, 1), (-1, -1, 2), (-1, 0, -3))),
    ):
        assert not is_lattice_polyhedron(polar_dual(p))
        assert dual_ehrhart_counts(p, 5) == box_scan(p, 5)


@pytest.mark.parametrize("rank,kmax", [(1, 12), (2, 12), (3, 40), (4, 12)])
def test_dual_counts_of_reflexive_simplex_closed_form(rank, kmax):
    # conv(e_1..e_r, -(e_1+...+e_r)) has as polar dual a translate of
    # (r+1) times the standard simplex: C((r+1)k + r, r) points in its k-th dilate.
    verts = [tuple(Fraction(int(i == j)) for j in range(rank)) for i in range(rank)]
    simplex = hull(verts + [(Fraction(-1),) * rank])
    assert dual_ehrhart_counts(simplex, kmax) == [comb((rank + 1) * k + rank, rank) for k in range(1, kmax + 1)]


@pytest.mark.parametrize("shear", SHEARS)
def test_dual_counts_of_worked_polygons_follow_pick_to_large_k(polar_dual_oracle, shear):
    # The worked polygons are reflexive, so their polar duals are lattice
    # polygons, and by Pick and Ehrhart the k-th dilate of one with
    # normalized volume V and B boundary points holds V/2 k^2 + B/2 k + 1.
    for text in WORKED_POLYGONS:
        p = newton_polytope(act_unimodular(parse(text), shear))
        dual = polar_dual_oracle(p)
        assert is_lattice_polyhedron(dual)
        volume = normalized_volume_2d(dual)
        cycle = lattice_cycle(dual)
        boundary = sum(gcd(*(b - a for a, b in zip(v, w))) for v, w in zip(cycle, cycle[1:] + cycle[:1]))
        assert dual_ehrhart_counts(p, 400) == [volume / 2 * k * k + Fraction(boundary, 2) * k + 1 for k in range(1, 401)]


def random_origin_polytope(rng, rank):
    """A random full-dimensional polytope with rational vertices and the
    origin in its interior."""
    while True:
        pts = [
            tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])) for _ in range(rank))
            for _ in range(rng.randint(rank + 1, rank + 5))
        ]
        p = hull(pts)
        if contains_origin_interior(p):
            return p


@pytest.mark.parametrize("rank,kmax,cases", [(1, 12, 150), (2, 16, 200), (3, 6, 150), (4, 3, 100)])
def test_dual_counts_and_polar_duals_match_the_kernel_oracles(fibre_walk, polar_dual_oracle, rank, kmax, cases):
    rng = random.Random(1500 + rank)
    rational_duals = 0
    for _ in range(cases):
        p = random_origin_polytope(rng, rank)
        dual = polar_dual(p)
        expected = polar_dual_oracle(p)
        assert (dual.vertices, dual.rays, dual.halfspaces) == (expected.vertices, expected.rays, expected.halfspaces)
        assert dual_ehrhart_counts(p, kmax) == fibre_walk(p, kmax)
        rational_duals += not is_lattice_polyhedron(dual)
    assert rational_duals > cases // 2


# -- double description kernel ------------------------------------------------------


def random_constraints(rng, rank, kinds):
    """A shuffled constraint list; zero rows, repeated rows and +/- pairs
    (equations) are mixed in, and some lists leave the last coordinate
    free so that lineality survives to the end. ``kinds`` collects which
    of these the list contains."""
    rows = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(0, rank + 5))]
    if rng.random() < 0.25:
        rows = [r[:-1] + (0,) for r in rows]
    extra = []
    for r in rows:
        roll = rng.random()
        if roll < 0.15:
            extra.append(r)
            kinds.add("duplicate")
        elif roll < 0.3 and any(r):
            extra.append(vneg(r))
            kinds.add("equation")
    rows += extra + [(0,) * rank] * rng.randint(0, 2)
    rng.shuffle(rows)
    if rng.random() < 0.5:
        rows.sort()
    if any(not any(r) for r in rows):
        kinds.add("zero")
    if matrix_rank(rows) < rank:
        kinds.add("lineality")
    return rows


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_extreme_rays_match_recomputed_tight_sets(recompute_dd, rank):
    rng = random.Random(4000 + rank)
    kinds = set()
    for _ in range(80):
        cons = random_constraints(rng, rank, kinds)
        tight = []
        rays, lineality = extreme_rays(cons, rank, tight=tight)
        assert (rays, lineality) == recompute_dd(cons, rank)
        # The masks the pass carried are the tight sets, recomputed by dot products.
        nonzero = [a for a in cons if any(a)]
        assert tight == [sum(1 << j for j, a in enumerate(nonzero) if not dot(a, r)) for r in rays]
    assert kinds == {"duplicate", "equation", "zero", "lineality"}


def test_extreme_rays_match_recomputed_tight_sets_on_worked_polygons(recompute_dd, polar_dual_oracle, monkeypatch):
    # Record the homogenised hull and from_halfspaces inputs that the
    # Newton polytopes of the worked polygons and the kernel's polar duals
    # of them produce, the rank-3 cones of the worked families under each
    # shear, and the rank-4 and rank-5 cones of the seeded rank-3 and
    # rank-4 families.
    calls = []

    def recording(constraints, rank, **kwargs):
        calls.append((list(constraints), rank))
        return extreme_rays(constraints, rank, **kwargs)

    monkeypatch.setattr(polyhedra, "extreme_rays", recording)
    for text in WORKED_POLYGONS:
        for shear in SHEARS:
            polar_dual_oracle(newton_polytope(act_unimodular(parse(text), shear)))
    for text in WORKED_POLYGONS[:2]:
        for shear in SHEARS:
            u = mat_vec(transpose(inverse_unimodular(shear)), (0, 1))
            spec = MutationSpec.from_direction(u, act_unimodular(parse("1 + x", rank=2), shear))
            assert verify_main_theorem(act_unimodular(parse(text), shear), spec).passed
    for f, spec in seeded_family_cases():
        if f.rank > 2:
            build_family(f, spec)
    assert len(calls) > 100
    for constraints, rank in calls:
        assert extreme_rays(constraints, rank) == recompute_dd(constraints, rank)


def random_generators(rng, rank, kinds):
    """``random_constraints`` rows, sometimes with an interior generator (a
    positive combination of two others) or a scaled copy of one added."""
    rows = random_constraints(rng, rank, kinds)
    nonzero = [r for r in rows if any(r)]
    if len(nonzero) >= 2 and rng.random() < 0.3:
        a, b = rng.sample(nonzero, 2)
        rows.append(vadd(vscale(rng.randint(1, 3), a), b))
        kinds.add("interior")
    if nonzero and rng.random() < 0.2:
        rows.append(vscale(2, nonzero[0]))
        kinds.add("duplicate")
    return rows


def structure(cone):
    return cone.rank, cone.rays, cone.facet_normals


def has_opposite_pair(vectors):
    return any(vneg(v) in vectors for v in vectors)


def cone_corpus(rank):
    """Generator (or normal) lists of every kind in ``random_generators``,
    plus the trivial cone, the whole space and scaled copies of a normal.
    Returns the lists and the kinds they cover."""
    rng = random.Random(9000 + rank)
    basis = [unit_vector(rank, i) for i in range(rank)]
    # the trivial cone, twice; the whole space, by +/- a basis and by a simplex
    corpus = [[], [(0,) * rank], basis + [vneg(e) for e in basis], basis + [(-1,) * rank]]
    kinds = set()
    corpus += [random_generators(rng, rank, kinds) for _ in range(100)]
    # Scaled copies n, 2n, 3n of one normal: pointed, with a line, and flat
    # as normals; from normals they collapse before the kernel pass.
    e0, rest = basis[0], basis[1:]
    corpus += [basis + [vscale(2, e0), vscale(3, e0)], [e0, vscale(2, e0), vscale(3, e0)]]
    corpus += [rest + [e0, vscale(-2, e0), vscale(3, e0)]]
    corpus += [rows + [vscale(2, rows[0]), vscale(3, rows[0])] for rows in corpus[4:24] if rows and any(rows[0])]
    return corpus, kinds


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_one_pass_conversions_match_the_multi_pass_oracles(multi_pass_cones, rank):
    # Fields are compared as stored, not with the semantic Cone ==.
    from_generators_oracle, from_normals_oracle = multi_pass_cones
    corpus, kinds = cone_corpus(rank)
    shapes = set()
    for rows in corpus:
        got = Cone.from_generators(rank, rows)
        assert structure(got) == structure(from_generators_oracle(rank, rows))
        shapes.add("line" if has_opposite_pair(got.rays) else "pointed")
        got = dual_cone(Cone.from_generators(rank, rows))
        assert structure(got) == structure(from_normals_oracle(rank, rows))
        shapes.add("flat" if has_opposite_pair(got.facet_normals) else "full-dimensional")
    assert kinds == {"duplicate", "equation", "zero", "lineality", "interior"}
    assert shapes == {"line", "pointed", "full-dimensional", "flat"}


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_dual_cone_swap_matches_the_generator_oracle(dual_cone_oracle, rank):
    # The oracle spans the facet normals with a kernel pass. Its rays may
    # pick other representatives modulo a line, so it is compared
    # semantically on every cone and field by field where both the cone
    # and its dual are pointed: there every member is a primitive extreme ray.
    corpus, _ = cone_corpus(rank)
    shapes = set()
    for rows in corpus:
        for cone in (Cone.from_generators(rank, rows), dual_cone(Cone.from_generators(rank, rows))):
            got, want = dual_cone(cone), dual_cone_oracle(cone)
            assert got == want
            line, flat = has_opposite_pair(cone.rays), has_opposite_pair(cone.facet_normals)
            if not line and not flat:
                assert structure(got) == structure(want)
            shapes.add((line, flat))
            assert structure(dual_cone(got)) == structure(cone)
    # (line, flat): in rank 1 a cone cannot have both.
    assert shapes == {(False, False), (True, False), (False, True)} | ({(True, True)} if rank > 1 else set())


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_irredundant_reads_kernel_masks_like_the_dot_product_oracle(irredundant_oracle, rank):
    # Both read-offs: generators against the facet normals of their pass,
    # and normals against the rays of theirs. Both are deduplicated
    # primitive vectors, so scaled copies of a normal collapse before the
    # pass. The masks must be the exact tight sets of their rays.
    def unpack(picked, rays):
        # Each vector comes with its tight set: bit i marks the i-th ray.
        if picked is None:
            return None
        vectors, masks = picked
        assert masks == [sum(1 << i for i, r in enumerate(rays) if not dot(v, r)) for v in vectors]
        return vectors

    rng = random.Random(9100 + rank)
    kinds, shapes = set(), set()
    for _ in range(100):
        rows = random_generators(rng, rank, kinds)
        gens = sorted({primitive_vector(r) for r in rows if any(r)})
        tight = []
        dual_r, dual_l = extreme_rays(gens, rank, tight=tight)
        assert tight == [sum(1 << j for j, g in enumerate(gens) if not dot(g, d)) for d in dual_r]
        normals = sorted(dual_r + dual_l + [vneg(l) for l in dual_l])
        got = unpack(polyhedra._irredundant(gens, tight, rank - 1 - len(dual_l)), dual_r)
        assert got == irredundant_oracle(gens, normals)
        shapes.add("line" if got is None else "pointed")
        if dual_l and got is not None:
            shapes.add("lower-dimensional")
        normals = sorted({primitive_vector(r) for r in rows if any(r)})
        tight = []
        ray_r, ray_l = extreme_rays(normals, rank, tight=tight)
        assert tight == [sum(1 << j for j, n in enumerate(normals) if not dot(n, r)) for r in ray_r]
        if ray_l:
            continue
        if len(normals) < len({r for r in rows if any(r)}):
            shapes.add("scaled normals")
        got = unpack(polyhedra._irredundant(normals, tight, rank - 1), ray_r)
        assert got == irredundant_oracle(normals, ray_r)
        shapes.add("flat" if got is None else "full-dimensional")
    assert kinds == {"duplicate", "equation", "zero", "lineality", "interior"}
    assert shapes == {"line", "pointed", "lower-dimensional", "scaled normals", "flat", "full-dimensional"}


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_cone_over_matches_the_kernel_oracle(cone_over_oracle, rank):
    # The polytope's own cone equals the lifted vertices canonicalized by
    # the kernel, on every dimension from a point up.
    rng = random.Random(7100 + rank)
    dims = set()
    for _ in range(60):
        p = random_polytope(rng, rank)
        dims.add(span_rank_dim(p))
        assert structure(cone_over(p, 0)) == structure(cone_over_oracle(p))
    assert dims == set(range(rank + 1))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_minkowski_check_matches_the_hull(rank):
    # The oracle hulls every vertex sum. Each true sum is perturbed: shifted
    # by a lattice vector, a vertex dropped, a point or a ray added, its
    # rays dropped; and p + p stands in for p + q.
    rng = random.Random(7200 + rank)
    tails = [(), (unit_vector(rank, 0),), (unit_vector(rank, 0), unit_vector(rank, rank - 1))]
    rejected = 0
    for _ in range(40):
        p = hull(random_polytope(rng, rank).vertices, rng.choice(tails))
        q = hull(random_polytope(rng, rank).vertices, rng.choice(tails))
        r = minkowski_sum(p, q)
        assert is_minkowski_sum(p, q, r) and is_minkowski_sum(q, p, r)
        outside = vadd(max(r.vertices, key=sum), (Fraction(1, 2),) * rank)
        forged = [
            hull([vadd(v, unit_vector(rank, rng.randrange(rank))) for v in r.vertices], r.rays),
            hull(r.vertices[1:] or [outside], r.rays),
            hull(r.vertices + (outside,), r.rays),
            hull(r.vertices, r.rays + ((1,) * rank,)),
            hull(r.vertices),
            minkowski_sum(p, p),
        ]
        for bad in forged:
            assert is_minkowski_sum(p, q, bad) == (bad == minkowski_sum(p, q))
            rejected += bad != r
    assert rejected >= 120


def test_extreme_rays_bounds_the_rank():
    # A pass starts from rank unit vectors of length rank: past the
    # homogenization of MAX_RANK it refuses before building them.
    rays, lineality = extreme_rays([], 1001)
    assert rays == [] and len(lineality) == 1001
    with pytest.raises(ValueError, match="rank 1002 exceeds"):
        extreme_rays([], 1002)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_extreme_rays_are_extreme(rank):
    # Checked with plain sums and ranks only: every ray lies in the cone
    # and its tight constraints have corank one modulo the lineality space.
    def pair(u, v):
        return sum(a * b for a, b in zip(u, v))

    rng = random.Random(7000 + rank)
    for _ in range(60):
        cons = random_constraints(rng, rank, set())
        rows = [c for c in cons if any(c)]
        rays, lineality = extreme_rays(cons, rank)
        assert len(lineality) == rank - matrix_rank(rows)
        assert all(pair(c, l) == 0 for c in rows for l in lineality)
        assert len(set(rays)) == len(rays)
        for r in rays:
            assert all(pair(c, r) >= 0 for c in rows)
            tight = [c for c in rows if pair(c, r) == 0]
            assert matrix_rank(tight) == rank - len(lineality) - 1


def kernel_conversion_records(rank, shapes):
    """The stored fields of seeded conversions in ``rank``: hulls of point
    sets of every codimension, cones with lineality of every dimension,
    passes continuing a cone of this rank or one less, and
    ``from_halfspaces`` inputs (an error's message where one is refused).
    ``shapes`` collects the codimensions and lineality dimensions seen."""
    rng = random.Random(3300 + rank)

    def vec():
        return tuple(rng.randint(-3, 3) for _ in range(rank))

    records = []
    for dim in range(rank + 1):
        for _ in range(4):
            base, span = vec(), [vec() for _ in range(dim)]
            pts = []
            for _ in range(rank + 4):
                pt = base
                for s in span:
                    pt = vadd(pt, vscale(Fraction(rng.randint(-4, 4), rng.choice([1, 2])), s))
                pts.append(pt)
            p = hull(pts)
            shapes.add(("codimension", rank - span_rank_dim(p)))
            records.append((p.vertices, p.halfspaces, p.cone.facet_normals, p.cone.rays))
    for dim in range(rank + 1):
        for _ in range(4):
            lines = [vec() for _ in range(dim)]
            gens = lines + [vneg(v) for v in lines] + [vec() for _ in range(rng.randint(0, rank + 3))]
            if rng.random() < 0.3:
                gens = [g[:-1] + (0,) for g in gens]
            cone = Cone.from_generators(rank, gens)
            shapes.add(("lineality", sum(vneg(r) in cone.rays for r in cone.rays) // 2))
            records.append((cone.rays, cone.facet_normals, cone.incidence))
    for lift in ((), (0,)):
        for _ in range(4):
            start = Cone.from_generators(rank - len(lift), [vec()[len(lift):] for _ in range(rank + 3)])
            if start.incidence is not None:
                cone = Cone.from_generators(rank, [vec() for _ in range(rng.randint(1, rank + 3))], start)
                shapes.add(("continued", len(lift)))
                records.append((cone.rays, cone.facet_normals, cone.incidence))
    for i in range(16):
        box = [(vscale(s, unit_vector(rank, j)), Fraction(-5)) for j in range(rank) for s in (1, -1)] if i % 2 else []
        halfspaces = box + [(vec(), Fraction(rng.randint(-6, 6), rng.choice([1, 2]))) for _ in range(rng.randint(1, rank + 4))]
        try:
            p = from_halfspaces(halfspaces, rank)
        except ValueError as error:
            records.append(str(error))
        else:
            records.append((p.vertices, p.rays, p.halfspaces))
    return records


# sha256 of the repr of the records of ranks 2 to 6, as the kernel gave them
# when it inserted generators in tuple order.
KERNEL_CONVERSIONS_SHA256 = "151cc19e764778993abb1ef4642407c447e65abe8297a1e8b51892992c8e3f8b"


def test_conversions_do_not_depend_on_insertion_order():
    # A pass's lineality basis is the one with a free coordinate each, and
    # its rays vanish on those coordinates, so no insertion order shows.
    shapes, records = set(), []
    for rank in range(2, 7):
        records.append(kernel_conversion_records(rank, shapes))
    assert hashlib.sha256(repr(records).encode()).hexdigest() == KERNEL_CONVERSIONS_SHA256
    assert {("codimension", d) for d in range(7)} | {("lineality", d) for d in range(7)} <= shapes
    assert {("continued", 0), ("continued", 1)} <= shapes


def test_farthest_first_insertion_creates_few_rays(monkeypatch):
    # Outer points span most of the cone early, so later ones cut few of
    # its rays: in tuple order this hull's pass creates 857 rays.
    rng = random.Random(2012)
    points = [tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(30)]
    step, created = polyhedra._dd_step, 0

    def counting(rays, masks, vals, bit, need):
        nonlocal created
        survivors = step(rays, masks, vals, bit, need)
        created += len(survivors) - sum(val >= 0 for val in vals)
        return survivors

    monkeypatch.setattr(polyhedra, "_dd_step", counting)
    p = hull(points)
    assert (len(p.vertices), len(p.halfspaces)) == (29, 271)
    assert created <= 600


# -- polygon walks -----------------------------------------------------------------


def test_lattice_cycle_ccw_from_lex_min():
    p = hull(V((-1, 1), (1, 1), (0, -1)))
    assert lattice_cycle(p) == [(-1, 1), (0, -1), (1, 1)]
    a, b, c = lattice_cycle(p)
    assert [f.vertices for f in polygon_facets(p)] == [(a, b), (b, c), (c, a)]


def test_lattice_cycle_reads_the_int_generators():
    # The cycle comes from the cone's generators at height 1: the Fraction
    # vertices of a fresh hull are never built.
    p = hull([(0, 0), (2, 0), (1, 1), (0, 2)])
    cycle = lattice_cycle(p)
    assert "vertices" not in vars(p)
    assert cycle == [(0, 0), (2, 0), (0, 2)]
    assert all(type(c) is int for v in cycle for c in v)


def test_lattice_cycle_of_random_lattice_polygons():
    # Oracle-free: a counterclockwise convex cycle turns left at every
    # vertex and sweeps every other vertex counterclockwise from the start.
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    rng = random.Random(61)
    checked = 0
    while checked < 200:
        pts = V(*[(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(3, 12))])
        p = hull(pts)
        if len(p.vertices) < 3:
            continue
        checked += 1
        cyc = lattice_cycle(p)
        m = len(cyc)
        assert cyc[0] == min(p.vertices)
        assert sorted(cyc) == sorted(p.vertices)
        assert all(cross(cyc[i], cyc[(i + 1) % m], cyc[(i + 2) % m]) > 0 for i in range(m))
        assert all(cross(cyc[0], cyc[i], cyc[i + 1]) > 0 for i in range(1, m - 1))


def test_fraction_vertex_cycle_segment_and_point():
    assert fraction_vertex_cycle(hull(V((1, 0), (-1, 0)))) == V((-1, 0), (1, 0))
    assert fraction_vertex_cycle(hull(V((2, 3)))) == V((2, 3))


@pytest.mark.parametrize(
    "p",
    [
        hull([(Fraction(0),), (Fraction(1),)]),
        hull(V((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))),
        hull(V((0, 0), (1, 0), (0, 1)), [(1, 1)]),
        hull(V((0, 0), (1, 0), (Fraction(1, 2), 1))),
        hull(V((1, 0), (-1, 0))),
        hull(V((2, 3))),
    ],
    ids=["rank 1", "rank 3", "ray", "rational triangle", "segment", "point"],
)
def test_lattice_cycle_rejects_what_is_not_a_lattice_polygon(p):
    with pytest.raises(ValueError, match="a lattice polygon"):
        lattice_cycle(p)


def test_normalized_volume():
    square = hull(V((1, 1), (1, -1), (-1, 1), (-1, -1)))
    assert normalized_volume_2d(square) == 8
    diamond = hull(V((1, 0), (-1, 0), (0, 1), (0, -1)))
    assert normalized_volume_2d(diamond) == 4


# -- H-rep construction -------------------------------------------------------------


def test_from_halfspaces_round_trip():
    rng = random.Random(59)
    for _ in range(40):
        p = random_polytope(rng, rank=rng.choice([2, 2, 3]))
        assert from_halfspaces(p.halfspaces, p.rank) == p


def test_from_halfspaces_empty():
    with pytest.raises(ValueError):
        from_halfspaces([((1, 0), Fraction(1)), ((-1, 0), Fraction(1))], 2)


def test_from_halfspaces_line():
    with pytest.raises(ValueError):
        from_halfspaces([((0, 1), Fraction(0))], 2)


def test_from_halfspaces_zero_normal():
    # 0 >= c is empty for c > 0 and holds everywhere for c <= 0.
    with pytest.raises(ValueError, match="empty polyhedron"):
        from_halfspaces([((0, 0), 1)], 2)
    square = hull(V((0, 0), (1, 0), (0, 1), (1, 1)))
    assert from_halfspaces(list(square.halfspaces) + [((0, 0), -1)], 2) == square


def test_polyhedron_dict_round_trip():
    p = hull(V((-1, 1), (1, 1)), [(-1, 2), (1, 2)])
    assert Polyhedron.from_dict(p.to_dict()) == p


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_polyhedron_dict_prints_the_fraction_vertices(rank):
    # to_dict prints each vertex from its int generator; the Fraction view
    # must print the same strings in the same order, signs and lowest terms
    # included.
    rng = random.Random(4400 + rank)
    for _ in range(80):
        p = random_polytope(rng, rank)
        if rng.random() < 0.3:
            p = hull(p.vertices, [(1,) + tuple(rng.randint(-3, 3) for _ in range(rank - 1))])
        assert p.to_dict()["vertices"] == [[str(c) for c in v] for v in p.vertices]


def test_polyhedron_from_dict_refuses_non_integral_rays():
    with pytest.raises(ValueError):
        Polyhedron.from_dict({"rank": 2, "vertices": [["0", "0"]], "rays": [["1/2", "1"]]})


# -- admissible pairs ----------------------------------------------------------------


def test_admissible_pair_worked_triple():
    tau = [(2, -1), (2, 1)]
    delta01 = hull(V((0, 0), (0, 1)), tau)
    delta_inf = hull(V((1, 0)), tau)
    v1 = is_admissible_pair(delta01, delta_inf)
    assert v1.status == STATUS_YES
    assert "lattice" in v1.reason or v1.certificate["kind"] == "lattice_polyhedron"
    assert verify_admissibility(delta01, delta_inf, v1)

    p = hull([(Fraction(1, 2),)])
    q = hull([(Fraction(1, 3),)])
    v2 = is_admissible_pair(p, q)
    assert v2.status == STATUS_NO
    assert v2.witness == (1,)
    assert verify_admissibility(p, q, v2)

    r = hull([(Fraction(0),)])
    v3 = is_admissible_pair(p, r)
    assert v3.status == STATUS_YES
    assert verify_admissibility(p, r, v3)


def test_a_witness_serializes_as_strings():
    half = hull([(Fraction(1, 2),)])
    assert is_admissible_pair(half, half).to_dict() == {
        "status": "no",
        "reason": "functional with fractional minima 1/2 and 1/2",
        "witness": ["1"],
    }


def test_admissible_pair_tailcone_mismatch():
    p = hull(V((0, 0)), [(1, 0)])
    q = hull(V((0, 0)), [(0, 1)])
    v = is_admissible_pair(p, q)
    assert v.status == STATUS_NO
    assert v.witness is None
    assert "tailcone" in v.reason
    assert verify_admissibility(p, q, v)


def test_admissible_pair_refinement_certificate():
    # both polyhedra fractional, pointed tails: decided by the refinement
    p = hull([(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1))])
    q = hull([(Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 2))])
    v = is_admissible_pair(q, p)
    if v.status == STATUS_YES and v.certificate["kind"] == "refinement":
        assert verify_admissibility(q, p, v)
    # a genuinely fractional-everywhere pair is refused with a witness
    w = is_admissible_pair(
        hull([(Fraction(1, 2), Fraction(1, 2))]), hull([(Fraction(1, 3), Fraction(1, 3))])
    )
    assert w.status == STATUS_NO
    assert verify_admissibility(
        hull([(Fraction(1, 2), Fraction(1, 2))]), hull([(Fraction(1, 3), Fraction(1, 3))]), w
    )


def test_admissible_pair_thin_cell_is_no_in_every_padded_rank():
    # The two fractional vertices sit on a shallow chain whose inner normal
    # cones only contain functionals with a coordinate beyond 10, so a scan
    # of the box up to 10 finds no witness (and runs about 500 s in rank 5).
    # The walk builds one in the cell, with the pair padded by zero
    # coordinates up to rank 6.
    F = Fraction
    chain = [(F(0), F(0)), (F(11, 2), F(-1, 2)), (F(35, 2), F(-3, 2)), (F(24), F(-2)), (F(12), F(6))]
    for rank in range(2, 7):
        pad = (F(0),) * (rank - 2)
        p, q = hull([x + pad for x in chain]), hull([(F(1, 2), F(1, 2)) + pad])
        v = is_admissible_pair(p, q)
        assert (v.status, v.witness) == (STATUS_NO, (25, 276) + (0,) * (rank - 2))
        assert v.reason == "functional with fractional minima -1/2 and 301/2"
        assert verify_admissibility(p, q, v)


def test_admissible_pair_needs_the_x_plus_y_start():
    # e1 is integral on (0, 1/2) and e2 on (1/2, 0): only e1 + e2 is fractional on both.
    p, q = hull([(Fraction(1, 2), Fraction(0))]), hull([(Fraction(0), Fraction(1, 2))])
    v = is_admissible_pair(p, q)
    assert (v.status, v.witness) == (STATUS_NO, (1, 1))
    assert verify_admissibility(p, q, v)


def test_admissible_pair_witness_scan_skips_functionals_unbounded_on_the_tail():
    # Both polyhedra recede along (-1, 0), so (1, 1), (1, 0) and (1, -1) are
    # unbounded below on that ray; the start e1 is one of them, and the walk
    # leaves it for a functional bounded on the tail with two fractional minima.
    F = Fraction
    p = hull([(F(1, 2), F(1, 2))], [(-1, 0)])
    q = hull([(F(1, 3), F(1, 3))], [(-1, 0)])
    v = is_admissible_pair(p, q)
    assert v.status == STATUS_NO and dot(v.witness, (-1, 0)) >= 0
    assert verify_admissibility(p, q, v)
    forged = AdmissibilityVerdict(STATUS_NO, "forged", witness=(1, 1))
    assert not verify_admissibility(p, q, forged)


def random_refinement_pair(rng, rank, kind):
    """Two polyhedra with rational vertices and one tail, which is empty
    for "bounded". For "flat" both lie in hyperplanes x_last = c, so p + q
    is flat; its tail, if any, lies in x_last = 0."""
    tail = []
    if kind != "bounded":
        for _ in range(rng.randint(kind == "unbounded", 2)):
            ray = (rng.randint(1, 2),) + tuple(rng.randint(-2, 2) for _ in range(rank - 1))
            tail.append(ray[:-1] + (0,) if kind == "flat" else ray)
    pair = []
    for _ in range(2):
        level = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        pts = []
        for _ in range(rng.randint(1, rank + 3)):
            pt = tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(rank))
            pts.append(pt[:-1] + (level,) if kind == "flat" else pt)
        pair.append(hull(pts, tail))
    return pair


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_refinement_cells_match_the_pairwise_oracle(monkeypatch, rank):
    # The cells are read off one hull of p + q; the oracle runs one kernel
    # pass per vertex pair. The pairs and their order agree, and so does
    # each cell as a cone. Where p + q is full-dimensional (its cone keeps
    # an incidence) the normal lists agree; where it is flat, a cell may be
    # spanned by other generators of the same cone, which give the walk
    # another step. The verdicts of both agree, and so do their witnesses
    # where p + q is full-dimensional.
    rng = random.Random(7400 + rank)
    pairs = [random_refinement_pair(rng, rank, ("bounded", "unbounded", "flat")[i % 3]) for i in range(60)]
    shapes, verdicts = set(), set()
    for p, q in pairs + ([(REFINED_P, REFINED_Q)] if rank == 2 else []):
        got, want = polyhedra._refinement_cells(p, q), pairwise_refinement_cells(p, q)
        assert [(v, w) for v, w, _ in got] == [(v, w) for v, w, _ in want]
        for mine, theirs in zip(got, want):
            assert Cone.from_generators(rank, mine[2]) == Cone.from_generators(rank, theirs[2])
        full = minkowski_sum(p, q).cone.incidence is not None
        if full:
            assert got == want
        shapes.add((bool(p.rays), full))
        verdict = is_admissible_pair(p, q)
        with monkeypatch.context() as patch:
            patch.setattr(polyhedra, "_refinement_cells", pairwise_refinement_cells)
            old = is_admissible_pair(p, q)
        assert verdict.status == old.status
        if full:
            assert (verdict.reason, verdict.witness) == (old.reason, old.witness)
        assert verify_admissibility(p, q, verdict)
        verdicts.add(verdict.status if verdict.certificate is None else verdict.certificate["kind"])
    assert shapes == {(False, True), (True, True), (False, False), (True, False)}
    assert verdicts >= {STATUS_NO, "lattice_polyhedron"} | ({"refinement"} if rank == 2 else set())


# sha256 prefixes of the "y"/"n" status strings that an independent decision,
# a scan of the functionals with coordinates up to 10, gives on each rank's
# corpus below (81, 132, 142 and 146 "no" out of 150).
SCAN_STATUSES = {2: "7de906ad4305c55e", 3: "7eb31b0a5e00fcee", 4: "304b1db78179374a", 5: "aff2522d0c77a25d"}
# The largest coordinate of the witnesses the walks from their starts reach on
# each corpus, and sha256 prefixes of the repr of the list of those witnesses.
WALK_MAX = {2: 125, 3: 3534, 4: 13168, 5: 957857}
WALK_WITNESSES = {2: "6ee9a5c31316e644", 3: "80f46ef6d7f650d8", 4: "b5dfd2d231a49eaa", 5: "c097cf2a8c34bc0b"}


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_admissible_pair_decides_the_seeded_corpus(rank):
    # Every verdict re-checks: a "yes" lists every refinement cell with an
    # integral vertex, and a "no" witness has fractional minima on both, so
    # it lies in the cell of its two minimizers, neither of them integral.
    # The statuses are the scan's, and the witnesses those of the walk. A
    # refinement cell holds only the fields the checker reads (6 and 2 such
    # verdicts in ranks 2 and 3, none above).
    rng = random.Random(99 + rank)
    statuses, witnesses, cells = "", [], []
    for i in range(150):
        p, q = random_refinement_pair(rng, rank, ("bounded", "unbounded", "flat")[i % 3])
        verdict = is_admissible_pair(p, q)
        assert verify_admissibility(p, q, verdict)
        statuses += verdict.status[0]
        if verdict.status == STATUS_NO:
            witnesses.append(verdict.witness)
        elif verdict.certificate["kind"] == "refinement":
            cells += verdict.certificate["cells"]
    assert (len(cells) > 0) == (rank <= 3)
    assert all(cell.keys() == {"vertex_pair", "cell_rays"} for cell in cells)
    assert hashlib.sha256(statuses.encode()).hexdigest()[:16] == SCAN_STATUSES[rank]
    assert max(max(map(abs, u)) for u in witnesses) == WALK_MAX[rank]
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest()[:16] == WALK_WITNESSES[rank]


def test_verify_admissibility_refuses_an_unknown_verdict():
    # No verdict but "yes" and "no" is re-derivable, so "unknown" is refused
    # on every pair, among them a lattice pair and a pair with unequal tails.
    unknown = AdmissibilityVerdict("unknown", "forged")
    pairs = [
        (hull(V((0, 0), (1, 0))), hull(V((0, 1)))),
        (hull(V((0, 0)), [(1, 0)]), hull(V((0, 0)), [(0, 1)])),
        (REFINED_P, REFINED_Q),
        (hull([(Fraction(1, 2), Fraction(1, 2))]), hull([(Fraction(1, 3), Fraction(1, 3))])),
    ]
    for p, q in pairs:
        assert verify_admissibility(p, q, is_admissible_pair(p, q))
        assert verify_admissibility(p, q, unknown) is False


def test_hull_rejects_line_spanning_rays():
    with pytest.raises(ValueError):
        hull([(Fraction(0), Fraction(0))], [(0, 1), (0, -1)])


def test_hull_rejects_zero_ray():
    with pytest.raises(ValueError):
        hull(V((0, 0)), [(1, 0), (0, 0)])


SIGMA = cone_over(hull(V((-1, 1), (1, 1), (0, -1))), 0)
SIGMA_TAIL = kernel_slice(SIGMA)
SQUARE = hull(V((1, 1), (1, -1), (-1, 1), (-1, -1)))
SEGMENT = hull(V((0, 0), (1, 2)))
OCTAHEDRON = hull(V((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)))


@pytest.mark.parametrize(
    "convert,passes",
    [
        (lambda: hull(V((1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0))), 1),
        (lambda: hull(V((0, 0), (1, 0)), [(1, 1), (-1, 1)]), 1),
        (lambda: from_halfspaces(SQUARE.halfspaces, 2), 1),
        # The polar dual is the dual of the polytope's cone, and a rank-r
        # dual count canonicalizes the cones over r - 2 projections.
        (lambda: polar_dual(SQUARE), 0),
        (lambda: dual_ehrhart_counts(SQUARE, 6), 0),
        (lambda: dual_ehrhart_counts(OCTAHEDRON, 6), 1),
        # Both slices are read off sigma's incidence.
        (lambda: kernel_slice(SIGMA), 0),
        # A level slice of a pointed full-dimensional cone is read off its rays and facets.
        (lambda: level_slice(SIGMA, SIGMA_TAIL, 1), 0),
        (lambda: Cone.from_generators(3, [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]), 1),
        # A cone with a line takes a second pass for its lineality basis.
        (lambda: Cone.from_generators(2, [(1, 0), (-1, 0), (0, 1)]), 2),
        # A flat homogenization (here the segment x = 0, 0 <= y <= 1) has an
        # equation, so the cone its normals span has a line: a second pass.
        (lambda: from_halfspaces([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)], 2), 2),
        # The cone over a polytope, full-dimensional or flat, is its own.
        (lambda: cone_over(SQUARE, 0), 0),
        (lambda: cone_over(SEGMENT), 0),
        # Exact division bounds the quotient by a box, not a Newton polytope.
        (lambda: divide_exact(parse("x^2*y + 2*x*y^2 + y^3 + x^2 + x*y"), parse("x + y")), 0),
        # A dual cone swaps the two sides.
        (lambda: dual_cone(SIGMA), 0),
        # Cut out by normals, a cone with a line (here the half-plane
        # y >= 0) is the dual of a pointed cone, so the pass from its
        # normals reads both sides.
        (lambda: pytest.raises(ValueError, from_halfspaces, [((0, 1), 0)], 2), 1),
        # The common refinement is read off one hull of p + q, not a pass
        # per vertex pair (3 x 2 here).
        (lambda: is_admissible_pair(REFINED_P, REFINED_Q), 1),
    ],
    ids=[
        "hull", "hull_rays", "from_halfspaces", "polar_dual", "dual_counts_rank2", "dual_counts_rank3",
        "kernel_slice", "level_slice", "from_generators",
        "from_generators_line", "from_halfspaces_equation", "cone_over", "cone_over_segment",
        "divide_exact", "dual_cone", "from_halfspaces_line", "refinement_cells",
    ],
)
def test_conversions_run_one_kernel_pass_per_dualization(monkeypatch, convert, passes):
    calls = []

    def counted(constraints, rank, **kwargs):
        calls.append(rank)
        return extreme_rays(constraints, rank, **kwargs)

    monkeypatch.setattr(polyhedra, "extreme_rays", counted)
    convert()
    assert len(calls) == passes


SQUARE = hull(V((1, 0), (0, 1), (-1, 0), (0, -1)))
SEGMENT = hull(V((0,), (1,)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dot((1, 2), (1, 2, 3)), "dimension mismatch: 2 vs 3"),
        (lambda: LaurentPolynomial.from_terms(2, {(1,): 1}), "exponent (1,) has length 1, expected 2"),
        (lambda: parse("x + y") * parse("x + y + z"), "rank mismatch: 2 vs 3"),
        (lambda: act_unimodular(parse("x + y"), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "matrix shape does not match rank"),
        (lambda: extreme_rays([(1, 0)], 3), "constraint of length 2 in rank 3"),
        (lambda: minkowski_sum(SEGMENT, SQUARE), "rank mismatch in Minkowski sum"),
        (lambda: is_minkowski_sum(SEGMENT, SQUARE, SQUARE), "rank mismatch in Minkowski sum"),
        (lambda: is_admissible_pair(SEGMENT, SQUARE), "rank mismatch in admissible pair test"),
        (lambda: dual_ehrhart_counts(SQUARE, 0), "kmax must be at least 1"),
    ],
    ids=["dot", "from_terms", "mul", "act_unimodular", "extreme_rays", "minkowski_sum", "is_minkowski_sum", "admissible_pair", "kmax"],
)
def test_input_guards(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_cone_compares_unequal_to_other_types_and_polynomials_repr():
    assert (SQUARE.cone == 0) is False
    assert repr(parse("x + 1/2*y")) == "LaurentPolynomial(2, '1/2*y + x')"


def test_verify_admissibility_rejects_tampered_witness():
    p = hull([(Fraction(1, 2),)])
    q = hull([(Fraction(1, 3),)])
    fake = AdmissibilityVerdict(STATUS_NO, "forged", witness=(2,))
    # u = 2 gives minima 1 and 2/3; the first is integral, so the claim fails
    assert not verify_admissibility(p, q, fake)


def test_verify_admissibility_rejects_incomplete_refinement():
    # (1/2,1/2) and (1/3,1/3) are not admissible; a refinement certificate
    # with no cells proves nothing about them.
    p = hull([(Fraction(1, 2), Fraction(1, 2))])
    q = hull([(Fraction(1, 3), Fraction(1, 3))])
    assert is_admissible_pair(p, q).status == STATUS_NO
    forged = AdmissibilityVerdict(STATUS_YES, "forged", certificate={"kind": "refinement", "cells": []})
    assert not verify_admissibility(p, q, forged)
    # A genuine certificate with any one cell left out is rejected too.
    p = hull(V((-1, -1), (0, 1)) + [(Fraction(-1, 2), Fraction(1))])
    q = hull(V((-1, 1)) + [(Fraction(1, 2), Fraction(1))])
    v = is_admissible_pair(p, q)
    assert v.status == STATUS_YES and v.certificate["kind"] == "refinement"
    assert verify_admissibility(p, q, v)
    cells = v.certificate["cells"]
    for i in range(len(cells)):
        cert = {"kind": "refinement", "cells": cells[:i] + cells[i + 1:]}
        assert not verify_admissibility(p, q, AdmissibilityVerdict(STATUS_YES, v.reason, certificate=cert))


def test_verify_admissibility_rejects_non_integral_cell_rays():
    p = hull(V((-1, -1), (0, 1)) + [(Fraction(-1, 2), Fraction(1))])
    q = hull(V((-1, 1)) + [(Fraction(1, 2), Fraction(1))])
    v = is_admissible_pair(p, q)
    assert v.status == STATUS_YES and v.certificate["kind"] == "refinement"
    # Each coordinate moves a third away from zero, so int() would
    # truncate it back to the genuine ray.
    def off(c):
        return str(Fraction(c) + (Fraction(1, 3) if Fraction(c) >= 0 else Fraction(-1, 3)))

    cells = [dict(cell, cell_rays=[[off(c) for c in r] for r in cell["cell_rays"]]) for cell in v.certificate["cells"]]
    forged = AdmissibilityVerdict(STATUS_YES, v.reason, certificate={"kind": "refinement", "cells": cells})
    assert not verify_admissibility(p, q, forged)


def test_hull_of_int_points_equals_hull_of_fractions():
    rng = random.Random(11)
    for rank in (1, 2, 3):
        for _ in range(10):
            pts = [tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(rank + 3)]
            rays = [unit_vector(rank, 0)] if rng.random() < 0.3 else []
            a = hull(pts, rays)
            b = hull([tuple(Fraction(c) for c in p) for p in pts], rays)
            assert (a.rank, a.vertices, a.rays, a.halfspaces) == (b.rank, b.vertices, b.rays, b.halfspaces)
            assert all(type(c) is Fraction for v in a.vertices for c in v)


def test_floats_are_refused_at_the_exact_boundary():
    with pytest.raises(TypeError):
        hull([(0, 0), (1, 0), (0.5, 1)])
    with pytest.raises(TypeError):
        hull([(Fraction(0), 0.0)])
    # Fraction(0.1) would be the binary value 3602879701896397/2**55.
    with pytest.raises(TypeError):
        Polyhedron.from_dict({"rank": 1, "vertices": [[0.1]], "rays": []})
    with pytest.raises(TypeError):
        from_halfspaces([((1,), 0.1), ((-1,), -1)], 1)
    # A JSON true or false is not the number 1 or 0.
    with pytest.raises(TypeError):
        Cone.from_dict({"rank": True, "rays": [[True]]})
    with pytest.raises(TypeError):
        Polyhedron.from_dict({"rank": 1, "vertices": [[False]], "rays": []})
    with pytest.raises(TypeError):
        from_halfspaces([((1,), True), ((-1,), -2)], 1)
    assert Polyhedron.from_dict({"rank": 1, "vertices": [["1/10"]]}).vertices == ((Fraction(1, 10),),)
    assert from_halfspaces([((1,), Fraction(1, 10)), ((-1,), -1)], 1).vertices == ((Fraction(1, 10),), (Fraction(1),))
