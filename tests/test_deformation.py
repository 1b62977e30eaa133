import json
import os
import random
import subprocess
import sys
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import dot_incidence, random_mutable_pair, recession_cone, seeded_family_cases
from laumut import deformation, polyhedra
from laumut.deformation import (
    FamilyError,
    VerificationReport,
    build_family,
    check_hypotheses,
    general_fiber_is_toric,
    verify_main_theorem,
)
from laumut.exactlat import dot
from laumut.laurent import newton_polytope, parse
from laumut.mutation import MutationSpec, apply_mutation
from laumut.polyhedra import (
    Cone,
    Polyhedron,
    contains_origin_interior,
    extreme_rays,
    hull,
    is_admissible_pair,
    kernel_slice,
    verify_admissibility,
)

F = Fraction
TAIL_RAYS = [(2, -1), (2, 1)]


def worked_spec():
    return MutationSpec.from_direction((0, 1), parse("1 + x", rank=2))


def worked_family():
    return build_family(parse("x^-1*y + 2*y + x*y + y^-1"), worked_spec())


def test_general_fiber_is_toric():
    assert general_fiber_is_toric(hull([(F(0), F(1))], TAIL_RAYS))
    assert not general_fiber_is_toric(hull([(F(1, 2), F(0))]))
    segment = hull([(F(1), F(0)), (F(1), F(1))], TAIL_RAYS)
    assert not general_fiber_is_toric(segment)


def test_build_family_worked_example():
    fam = worked_family()
    assert sorted(fam.tail.rays) == TAIL_RAYS
    assert set(fam.delta0.vertices) == {(1, -1), (1, 1)}
    assert set(fam.delta_inf.vertices) == {(1, 0)}
    assert sorted(fam.delta0.rays) == sorted(fam.delta_inf.rays) == TAIL_RAYS
    assert set(fam.delta00.vertices) == {(1, -1), (1, 0)}
    assert set(fam.delta01.vertices) == {(0, 0), (0, 1)}
    assert sorted(fam.delta00.rays) == TAIL_RAYS
    assert recession_cone(fam.delta00) == fam.tail
    assert sorted(fam.sigma.rays) == [(1, -1, 1), (1, 0, -1), (1, 1, 1)]
    assert sorted(fam.sigma_inf.rays) == [
        (1, -1, 1),
        (1, 0, -1),
        (1, 0, 1),
        (1, 1, -1),
    ]
    assert [v.status for v in fam.admissibility] == ["yes", "yes"]
    assert general_fiber_is_toric(fam.delta_inf)
    assert fam.direction == (0, 0, 1)
    assert fam.grading == (1, 0, 0)


@pytest.mark.parametrize(
    "text,inserted",
    [("x^-1*y + 2*y + x*y + y^-1", [3, 2, 2, 2]), ("x^-1 + x^-1*y + y + y^-1 + x*y^-1", [5, 1, 2, 3])],
    ids=["x^-1*y + 2*y + x*y + y^-1", "x^-1 + x^-1*y + y + y^-1 + x*y^-1"],
)
def test_family_kernel_passes(monkeypatch, text, inserted):
    # build_family runs one pass each for Delta(f), whose cone is sigma,
    # Delta_0^0, Delta_0^1 and sigma_inf; verify adds Delta(mutated). The
    # tail cones, Delta_0 and Delta_inf are read off the incidences of the
    # cones' own passes, and exact division, the decomposition check and the
    # rank-2 dual counts run no kernel pass. The gluing passes continue the
    # descriptions of tau and Delta_0^0, so each inserts only its new
    # generators: the mutated terms at positive levels, the divisor's terms,
    # and the down sums (F3: 2 + 2 + 2, F4: 1 + 2 + 3, against 4 + 4 + 6 and
    # 3 + 4 + 6 in cold passes).
    calls = []

    def counted(constraints, rank, **kwargs):
        calls.append(len(constraints))
        return extreme_rays(constraints, rank, **kwargs)

    monkeypatch.setattr(polyhedra, "extreme_rays", counted)
    build_family(parse(text), worked_spec())
    assert calls == inserted
    calls.clear()
    verify_main_theorem(parse(text), worked_spec())
    assert calls == inserted + [4]


def test_continued_gluing_matches_the_cold_oracle(cold_gluing_oracle):
    # Delta_0^0 and Delta_0^1 continue tau's description at height 0, and
    # sigma_inf continues Delta_0^0's cone with the height moved last; the
    # oracle runs each as one cold pass over its full generator list. Every
    # stored field must agree, and every incidence must be the exact one.
    ranks = set()
    for f, spec in seeded_family_cases():
        fam = build_family(f, spec)
        cold = cold_gluing_oracle(fam, spec.to_adapted(apply_mutation(f, spec)))
        for got, want in zip((fam.delta00.cone, fam.delta01.cone, fam.sigma_inf), cold):
            assert astuple(got) == astuple(want)
            assert got.incidence == dot_incidence(got)
        assert fam.tail.incidence == dot_incidence(fam.tail)
        ranks.add(spec.rank)
    assert ranks == {2, 3, 4}


def test_family_tails_match_the_one_pass_oracle(kernel_slice_oracle):
    # sigma is the Newton hull's own cone: it carries the exact incidence,
    # from which tau is read with no kernel pass. The oracle cuts tau out of
    # sigma's facet normals with one; every field must agree.
    sigmas = [newton_polytope(parse("x + x^-1")).cone]
    for f, spec in seeded_family_cases():
        fam = build_family(f, spec)
        assert fam.sigma.incidence is not None and astuple(fam.tail) == astuple(kernel_slice_oracle(fam.sigma))
        sigmas.append(fam.sigma)
    assert len(sigmas) == 48
    for sigma in sigmas:
        assert sigma.incidence == dot_incidence(sigma)
        assert astuple(kernel_slice(sigma)) == astuple(kernel_slice_oracle(sigma))


def test_verify_raises_on_a_mutated_cone_it_cannot_slice(monkeypatch):
    # Mutation keeps the origin interior, so sigma' is pointed and
    # full-dimensional and always slices; a sigma' without the incidence
    # of such a cone is a fault, and kernel_slice raises.
    built = []

    def stripped(f):
        cone = newton_polytope(f).cone
        built.append(cone)
        return Polyhedron(cone if len(built) == 1 else Cone(cone.rank, cone.rays, cone.facet_normals))

    monkeypatch.setattr(deformation, "newton_polytope", stripped)
    with pytest.raises(ValueError, match="kernel slice needs a pointed full-dimensional cone"):
        verify_main_theorem(parse("x^-1*y + 2*y + x*y + y^-1"), worked_spec())


@pytest.mark.parametrize("rank, seeds", [(2, 150), (3, 150), (4, 100)])
def test_mutation_keeps_the_origin_interior(rank, seeds):
    # Akhtar-Coates-Galkin-Kasprzyk (arXiv:1212.1785): mutation acts on the
    # dual side by m -> m - h(m)*u, h(m) the minimum of m on Newton(g). So
    # min of m on supp f' is min of m - h(m)*u on supp f, and the origin
    # stays interior; that is why verify always takes both dual counts.
    rng = random.Random(1212 + rank)
    pairs = 0
    for _ in range(seeds):
        f, spec = random_mutable_pair(rng, rank)
        hyp = check_hypotheses(f, spec)
        if hyp.failures:
            continue
        pairs += 1
        mutated = hyp.report.mutated
        assert contains_origin_interior(newton_polytope(spec.to_adapted(mutated)))
        divisor = spec.divisor_in_ambient().support()
        for _ in range(20):
            m = tuple(rng.randint(-3, 3) for _ in range(rank))
            if not any(m):
                continue
            h = min(dot(m, e) for e in divisor)
            moved = tuple(a - h * b for a, b in zip(m, spec.direction))
            assert min(dot(m, e) for e in mutated.support()) == min(dot(moved, e) for e in f.support())
    assert pairs >= 30


def _verify_with_the_mutated_polytope_moved(monkeypatch, shift):
    built = []

    def shifted(f):
        built.append(f)
        p = newton_polytope(f)
        return p if len(built) == 1 else hull([shift(v) for v in p.vertices])

    monkeypatch.setattr(deformation, "newton_polytope", shifted)
    verify_main_theorem(parse("x^-1*y + 2*y + x*y + y^-1"), worked_spec())


def test_verify_refuses_a_mutated_polytope_without_the_origin(monkeypatch):
    # The counts always run once the hypotheses hold; a mutated polytope
    # that lost the origin is a fault, so the polar dual raises. Moved along
    # the first coordinate only, it still straddles x_last = 0 and slices.
    with pytest.raises(ValueError, match="polar dual needs the origin in the interior"):
        _verify_with_the_mutated_polytope_moved(monkeypatch, lambda v: (v[0] + 5,) + v[1:])


def test_verify_refuses_a_mutated_polytope_above_the_level_zero_slice(monkeypatch):
    # Moved along every coordinate, it lies above x_last = 0, so sigma' has
    # no ray below it and kernel_slice raises before the counts.
    with pytest.raises(ValueError, match="kernel slice needs a pointed full-dimensional cone"):
        _verify_with_the_mutated_polytope_moved(monkeypatch, lambda v: tuple(c + 5 for c in v))


FORGED_DELTA0 = """
import sys
from laumut import deformation
from laumut.laurent import parse
from laumut.mutation import MutationSpec
from laumut.polyhedra import hull

if not sys.flags.optimize:
    sys.exit("expected to run under -O")
real = deformation.level_slice
built = []


def forged(sigma, tail, sign):
    # The first slice the family builds is Delta_0; shift it by (0, 1).
    p = real(sigma, tail, sign)
    built.append(sign)
    if len(built) > 1:
        return p
    return hull([(v[0], v[1] + 1) for v in p.vertices], p.rays)


deformation.level_slice = forged
try:
    deformation.build_family(
        parse("x^-1*y + 2*y + x*y + y^-1"), MutationSpec.from_direction((0, 1), parse("1 + x", rank=2))
    )
except AssertionError as exc:
    print("rejected:", exc)
else:
    sys.exit("a forged Delta_0 was accepted")
"""


def test_decomposition_check_survives_optimize():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORGED_DELTA0], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected: divisor decomposition must rebuild the +1 slice\n"


def test_build_family_segment_fiber():
    fam = build_family(parse("x^-1 + x^-1*y + y + y^-1 + x*y^-1"), worked_spec())
    assert set(fam.delta00.vertices) == {(1, -1)}
    assert set(fam.delta_inf.vertices) == {(1, 0), (1, 1)}
    assert not general_fiber_is_toric(fam.delta_inf)
    assert sorted(fam.sigma_inf.rays) == [
        (1, -1, 0),
        (1, -1, 1),
        (1, 0, -1),
        (1, 2, -1),
    ]


def test_build_family_constant_divisor_recovers_sigma():
    f = parse("x^-1*y + 2*y + x*y + y^-1")
    spec = MutationSpec.from_direction((0, 1), parse("1", rank=2))
    fam = build_family(f, spec)
    assert set(fam.delta01.vertices) == {(0, 0)}
    assert fam.sigma_inf == fam.sigma


def test_build_family_hypothesis_failures():
    with pytest.raises(FamilyError) as info:
        build_family(parse("x + y"), worked_spec())
    assert info.value.failures == [
        "mutation:non-divisible levels [1]",
        "origin:not in the interior of the Newton polytope",
        "levels:divided exponents must straddle zero",
    ]


def count_admissibility_calls(monkeypatch) -> list:
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return is_admissible_pair(p, q)

    monkeypatch.setattr(deformation, "is_admissible_pair", counted)
    return calls


def test_build_family_decides_each_pair_once(monkeypatch):
    calls = count_admissibility_calls(monkeypatch)
    fam = worked_family()
    assert len(calls) == 2
    assert [v.status for v in fam.admissibility] == ["yes", "yes"]


def test_both_family_pairs_are_certified_by_the_lattice_slice():
    """Delta_0^1 is the divisor's Newton polytope at grading 0, a lattice
    polytope in both pairs, so the gluing needs no other certificate."""
    f3, f4 = "x^-1*y + 2*y + x*y + y^-1", "x^-1 + x^-1*y + y + y^-1 + x*y^-1"
    cases = [(parse(f3), worked_spec()), (parse(f4), worked_spec())]
    rng = random.Random(1205)
    cases += [random_mutable_pair(rng, rank) for rank in (2, 3, 4) for _ in range(15)]
    built = []
    for f, spec in cases:
        try:
            fam = build_family(f, spec)
        except FamilyError:
            continue
        built.append(spec.rank)
        pairs = ((fam.delta00, fam.delta01), (fam.delta01, fam.delta_inf))
        for (a, b), verdict in zip(pairs, fam.admissibility):
            assert verdict.status == "yes"
            assert verdict.certificate["kind"] == "lattice_polyhedron"
            assert verify_admissibility(a, b, verdict)
        assert fam.admissibility[1].certificate["which"] == 0
    assert {2, 3, 4} <= set(built) and len(built) >= 20


def test_verify_main_theorem_passes():
    rep = verify_main_theorem(parse("x^-1*y + 2*y + x*y + y^-1"), worked_spec())
    assert rep.passed
    assert [c.name for c in rep.checks] == [
        "hypotheses",
        "family",
        "mutation_cone_match",
        "tailcone_preserved",
        "fiber_class",
        "dual_lattice_counts",
    ]
    assert all(c.status == "pass" for c in rep.checks)
    assert parse(rep.data["mutated"]) == parse("x^-1*y + y + y^-1 + x*y^-1")
    rays = {tuple(int(c) for c in r) for r in rep.data["sigma_infinity_rays_grading_last"]}
    assert rays == {(-1, 1, 1), (0, 1, 1), (0, -1, 1), (1, -1, 1)}


def test_verify_main_theorem_hypothesis_failure_skips_rest():
    rep = verify_main_theorem(parse("x + y"), worked_spec())
    assert not rep.passed
    assert rep.checks[0].status == "fail"
    assert all(c.status == "skipped" for c in rep.checks[1:])
    assert len(rep.checks) == 6


def test_verify_main_theorem_kmax():
    rep = verify_main_theorem(parse("x^-1*y + 2*y + x*y + y^-1"), worked_spec(), kmax=3)
    counts = rep.checks[-1].details
    assert counts["input"] == [9, 25, 49]
    assert counts["mutated"] == [9, 25, 49]


def test_report_json_round_trip():
    rep = verify_main_theorem(parse("x^-1*y + 2*y + x*y + y^-1"), worked_spec())
    again = VerificationReport.from_dict(json.loads(json.dumps(rep.to_dict())))
    assert again.passed == rep.passed
    assert again.checks == rep.checks
    assert again.data == rep.data


def test_report_from_dict_refuses_a_passed_its_checks_contradict():
    # passed is read off the checks, so a report cannot claim a pass its checks deny, nor the reverse.
    failed = verify_main_theorem(parse("x + y"), worked_spec()).to_dict()
    assert VerificationReport.from_dict(failed).passed is False
    with pytest.raises(ValueError, match="passed"):
        VerificationReport.from_dict({**failed, "passed": True})
    honest = verify_main_theorem(parse("x^-1*y + 2*y + x*y + y^-1"), worked_spec()).to_dict()
    assert VerificationReport.from_dict(honest).passed is True
    with pytest.raises(ValueError, match="passed"):
        VerificationReport.from_dict({**honest, "passed": False})


def forged_report(edit, f="x^-1*y + 2*y + x*y + y^-1"):
    """A verify payload with its checks edited and ``passed`` read off them, as the reader reads it."""
    checks = edit(verify_main_theorem(parse(f), worked_spec()).to_dict()["checks"])
    return {"passed": all(c["status"] == "pass" for c in checks), "checks": checks, "data": {}}


@pytest.mark.parametrize(
    "report",
    [
        forged_report(lambda c: []),
        forged_report(lambda c: c[:1]),
        forged_report(lambda c: [c[0], {**c[1], "name": "families"}] + c[2:]),
        forged_report(lambda c: [c[0], c[2], c[1]] + c[3:]),
        forged_report(lambda c: c[:-1]),
        forged_report(lambda c: [{**c[0], "status": "ok"}] + c[1:]),
        forged_report(lambda c: c[:-1] + [{**c[-1], "status": "ok"}]),
        forged_report(lambda c: c[:-1] + [{**c[-1], "status": "skipped"}]),
        forged_report(lambda c: c[:1], "x + y"),
        forged_report(lambda c: c[:1] + [{**x, "status": "pass"} for x in c[1:]], "x + y"),
    ],
    ids=["empty", "hypotheses_only", "renamed", "reordered", "one_short", "hypotheses_ok", "counts_ok",
         "skipped_after_passed_hypotheses", "failed_hypotheses_only", "passed_after_failed_hypotheses"],
)
def test_report_from_dict_refuses_what_verify_never_emits(report):
    # verify emits the hypotheses and five consequences, in order: the five
    # pass or fail after passed hypotheses, and are skipped after failed ones.
    with pytest.raises(ValueError, match="the report"):
        VerificationReport.from_dict(report)


def test_family_dict_shape():
    fam = worked_family()
    d = fam.to_dict()
    assert d["general_fiber_is_toric"] is True
    assert parse(d["polynomial"]) == parse("x^-1*y + 2*y + x*y + y^-1")
    assert [r for r in d["tail"]["rays"]] == [["2", "-1"], ["2", "1"]]
    assert d["admissibility"][0]["status"] == "yes"


def test_cosection_choice_does_not_change_cone():
    # second adapted frame: same kernel vector, section shifted by it
    f = parse("x^-1*y + 2*y + x*y + y^-1")
    spec1 = worked_spec()
    spec2 = MutationSpec.from_adapted((0, 1), ((1, 1), (0, 1)), parse("1 + x"))
    assert spec2.divisor_in_ambient() == spec1.divisor_in_ambient()
    fam1 = build_family(f, spec1)
    fam2 = build_family(f, spec2)
    # frames differ by the shear fixing grading and deformation coordinates
    m = ((1, 0, 0), (0, 1, -1), (0, 0, 1))
    mapped = [
        tuple(sum(m[i][j] * r[j] for j in range(3)) for i in range(3))
        for r in fam1.sigma_inf.rays
    ]
    assert Cone.from_generators(3, mapped) == fam2.sigma_inf


def test_mutated_polynomial_admits_inverse_family():
    f = parse("x^-1*y + 2*y + x*y + y^-1")
    spec = worked_spec()
    g = apply_mutation(f, spec)
    fam_g = build_family(g, spec.inverse())
    fam_f = build_family(f, spec)
    assert fam_g.tail == fam_f.tail
    rep = verify_main_theorem(g, spec.inverse())
    assert rep.passed
