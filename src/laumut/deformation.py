"""Flat toric families attached to mutations.

A polynomial f with 0 interior to its Newton polytope spans a cone
sigma over Delta(f) placed at height 1 along a new grading coordinate
(put first). Slicing sigma by the divided-variable functional u at
levels +1, 0, -1 produces polyhedra Delta_0, tau, Delta_inf in the
(grading, kernel) coordinates; the slice at level +-1 is the hull of
(1, x)/|i| over the points (x, i) on that side, plus tau's rays. A
divisor g that makes f mutable splits Delta_0 into a Minkowski sum
Delta_0^0 + Delta_0^1, and regluing the pieces with opposite signs of
the divided coordinate yields a second cone sigma_inf describing the
other end of the family. Delta_0^1 is the divisor's Newton polytope at
grading 0, a lattice polytope, and it belongs to both pairs the gluing
needs, (Delta_0^0, Delta_0^1) and (Delta_0^1, Delta_inf); so both are
certified admissible by the lattice-polyhedron certificate and the
gluing cannot fail once the hypotheses hold. The central verification
is that sigma_inf equals the cone built the same way from the mutated
polynomial; dual lattice counts, being unimodular invariants, are taken
in this frame.

Family coordinates are (grading, kernel..., divided); slice coordinates
drop the divided one, so they are simply the first n coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .exactlat import IntVec, primitive_from_rational, unit_vector, vadd
from .laurent import LaurentPolynomial, newton_polytope, to_string
from .mutation import MutationCheck, MutationSpec, is_mutation
from .polyhedra import (
    AdmissibilityVerdict,
    Cone,
    Polyhedron,
    cone_over,
    contains_origin_interior,
    dual_ehrhart_counts,
    hull,
    is_admissible_pair,
    is_lattice_polyhedron,
    is_minkowski_sum,
    kernel_slice,
)


class FamilyError(ValueError):
    """A hypothesis needed for the family construction fails.

    ``failures`` lists short machine-readable reasons.
    """

    def __init__(self, message: str, failures: Optional[list] = None):
        super().__init__(message)
        self.failures = failures or []


def general_fiber_is_toric(delta_inf: Polyhedron) -> bool:
    """Whether the -1 slice degenerates to a single lattice point, which
    makes the far fiber itself a toric variety."""
    return len(delta_inf.vertices) == 1 and is_lattice_polyhedron(delta_inf)


@dataclass(frozen=True)
class FamilyData:
    """Everything the cone construction produces for one mutation."""

    f: LaurentPolynomial
    spec: MutationSpec
    sigma: Cone  # over Delta(f) in the adapted frame, grading first
    direction: IntVec  # divided-coordinate functional on the family space
    grading: IntVec
    tail: Cone
    delta0: Polyhedron
    delta_inf: Polyhedron
    delta00: Polyhedron
    delta01: Polyhedron
    admissibility: tuple[AdmissibilityVerdict, AdmissibilityVerdict]
    sigma_inf: Cone

    def to_dict(self) -> dict:
        return {
            "polynomial": to_string(self.f),
            "spec": self.spec.to_dict(),
            "sigma": self.sigma.to_dict(),
            "direction": [str(c) for c in self.direction],
            "grading": [str(c) for c in self.grading],
            "tail": self.tail.to_dict(),
            "delta0": self.delta0.to_dict(),
            "delta_inf": self.delta_inf.to_dict(),
            "delta00": self.delta00.to_dict(),
            "delta01": self.delta01.to_dict(),
            "admissibility": [v.to_dict() for v in self.admissibility],
            "sigma_infinity": self.sigma_inf.to_dict(),
            "general_fiber_is_toric": general_fiber_is_toric(self.delta_inf),
        }


@dataclass(frozen=True)
class Hypotheses:
    """The family hypotheses for one mutation, checked once.

    ``report`` holds the per-level divisions and the mutated polynomial;
    ``newton`` is Delta(f) in the adapted frame. The family construction
    reuses both instead of dividing or hulling again.
    """

    failures: list[str]
    details: dict
    report: MutationCheck
    newton: Polyhedron


def check_hypotheses(f: LaurentPolynomial, spec: MutationSpec) -> Hypotheses:
    """Divisibility of the positive levels, the origin inside Delta(f), and levels on both sides of zero."""
    ok, report = is_mutation(f, spec)
    failures = []
    details: dict = {"mutation": report.to_dict()}
    if not ok:
        failures.append("mutation:non-divisible levels " + str(report.failing_levels()))
    nf = newton_polytope(spec.to_adapted(f))
    origin_ok = contains_origin_interior(nf)
    details["origin_interior"] = origin_ok
    if not origin_ok:
        failures.append("origin:not in the interior of the Newton polytope")
    levels_ok = report.low < 0 < report.high
    details["levels"] = {"low": report.low, "high": report.high, "straddles_zero": levels_ok}
    if not levels_ok:
        failures.append("levels:divided exponents must straddle zero")
    return Hypotheses(failures, details, report, nf)


def build_family(f: LaurentPolynomial, spec: MutationSpec) -> FamilyData:
    """Run the whole construction; FamilyError on any hypothesis failure."""
    hyp = check_hypotheses(f, spec)
    if hyp.failures:
        raise FamilyError("; ".join(hyp.failures), hyp.failures)
    return _family(f, spec, hyp, spec.to_adapted(hyp.report.mutated))


def _level_slice(points: Iterable, sign: int, tail: Cone) -> Polyhedron:
    """The level-``sign`` slice of the pointed cone over ``points`` (divided
    exponent last): the hull of each (1, x)/|i| with sign * i > 0, plus ``tail``."""
    pts = [tuple(Fraction(c, abs(e[-1])) for c in (1,) + e[:-1]) for e in points if sign * e[-1] > 0]
    return hull(pts, tail.rays)


def _family(f: LaurentPolynomial, spec: MutationSpec, hyp: Hypotheses, mutated_adapted: LaurentPolynomial) -> FamilyData:
    n = spec.rank
    sigma = cone_over(hyp.newton, 0)
    u = (0,) * n + (1,)
    grading = unit_vector(n + 1, 0)
    tail = kernel_slice(sigma, u)
    delta0 = _level_slice(hyp.newton.vertices, 1, tail)
    delta_inf = _level_slice(hyp.newton.vertices, -1, tail)

    # The mutated terms at a positive level i are those of the quotient f_i / g^i.
    delta00 = _level_slice(mutated_adapted.support(), 1, tail)
    pts01 = [(0,) + e for e in spec.divisor.support()]
    delta01 = hull(pts01, tail.rays)
    if not is_minkowski_sum(delta00, delta01, delta0):
        raise AssertionError("divisor decomposition must rebuild the +1 slice")

    # Both pairs contain the lattice polytope delta01, and every slice is a
    # hull over tail.rays, so both verdicts are "yes" by the lattice certificate.
    adm = (is_admissible_pair(delta00, delta01), is_admissible_pair(delta01, delta_inf))
    gens = [r + (0,) for r in tail.rays]
    gens += [primitive_from_rational(v + (1,)) for v in delta00.vertices]
    # Height -1 carries Delta_0^1 + Delta_inf; the cone keeps only its extreme vertex sums.
    gens += [primitive_from_rational(vadd(v, w) + (-1,)) for v in delta01.vertices for w in delta_inf.vertices]
    sigma_inf = Cone.from_generators(n + 1, gens)
    return FamilyData(
        f=f,
        spec=spec,
        sigma=sigma,
        direction=u,
        grading=grading,
        tail=tail,
        delta0=delta0,
        delta_inf=delta_inf,
        delta00=delta00,
        delta01=delta01,
        admissibility=adm,
        sigma_inf=sigma_inf,
    )


# -- theorem verification ------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    details: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "details": self.details}


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    checks: tuple[CheckResult, ...]
    data: dict
    family: Optional[FamilyData] = field(default=None, compare=False, repr=False)  # not serialized

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "data": self.data,
        }

    @staticmethod
    def from_dict(d: dict) -> "VerificationReport":
        return VerificationReport(
            bool(d["passed"]),
            tuple(CheckResult(c["name"], c["status"], c["details"]) for c in d["checks"]),
            d["data"],
        )


def verify_main_theorem(f: LaurentPolynomial, spec: MutationSpec, kmax: int = 6) -> VerificationReport:
    """Drive every combinatorial consequence of the construction.

    Checks, in order: the hypotheses; the family construction with its
    admissibility certificates; equality of the glued cone with the cone
    built from the mutated polynomial; preservation of the degree-zero
    slice; the far-fiber classification predicate (recorded, its truth
    value is data, not a requirement); and agreement of the lattice point
    counts of the polar duals' dilates (skipped when a polar dual does not
    exist). The report keeps the family it built, for drawing.
    """
    checks: list[CheckResult] = []
    data: dict = {"polynomial": to_string(f), "spec": spec.to_dict()}

    hyp = check_hypotheses(f, spec)
    checks.append(CheckResult("hypotheses", "fail" if hyp.failures else "pass", {**hyp.details, "failures": hyp.failures}))
    if hyp.failures:
        for name in ("family", "mutation_cone_match", "tailcone_preserved", "fiber_class", "dual_lattice_counts"):
            checks.append(CheckResult(name, "skipped", {"reason": "hypotheses failed"}))
        return VerificationReport(False, tuple(checks), data)

    mutated_adapted = spec.to_adapted(hyp.report.mutated)
    family = _family(f, spec, hyp, mutated_adapted)
    fam_details = {
        "delta0": family.delta0.to_dict(),
        "delta_inf": family.delta_inf.to_dict(),
        "delta00": family.delta00.to_dict(),
        "delta01": family.delta01.to_dict(),
        "tail": family.tail.to_dict(),
        "admissibility": [v.to_dict() for v in family.admissibility],
    }
    checks.append(CheckResult("family", "pass", fam_details))

    nf_mut = newton_polytope(mutated_adapted)
    sigma_prime = cone_over(nf_mut, 0)
    data["mutated"] = to_string(hyp.report.mutated)
    data["sigma_rays"] = [[str(c) for c in r] for r in family.sigma.rays]
    data["sigma_infinity_rays"] = [[str(c) for c in r] for r in family.sigma_inf.rays]
    data["sigma_infinity_rays_grading_last"] = [[str(c) for c in r[1:] + (r[0],)] for r in family.sigma_inf.rays]
    data["sigma_prime_rays"] = [[str(c) for c in r] for r in sigma_prime.rays]

    cone_ok = family.sigma_inf == sigma_prime
    checks.append(
        CheckResult(
            "mutation_cone_match",
            "pass" if cone_ok else "fail",
            {
                "sigma_infinity_rays": data["sigma_infinity_rays"],
                "sigma_prime_rays": data["sigma_prime_rays"],
            },
        )
    )

    u = family.direction
    tail_prime = kernel_slice(sigma_prime, u)
    tail_ok = tail_prime == family.tail
    checks.append(
        CheckResult(
            "tailcone_preserved",
            "pass" if tail_ok else "fail",
            {
                "tail_rays": [[str(c) for c in r] for r in family.tail.rays],
                "tail_prime_rays": [[str(c) for c in r] for r in tail_prime.rays],
            },
        )
    )

    # The far-fiber classification is recorded: its truth value is data, not a requirement.
    checks.append(
        CheckResult(
            "fiber_class",
            "pass",
            {
                "general_fiber_is_toric": general_fiber_is_toric(family.delta_inf),
                "delta_inf_vertices": [[str(c) for c in v] for v in family.delta_inf.vertices],
            },
        )
    )

    # The hypotheses already put the origin inside Delta(f); only the mutated polytope is open.
    if contains_origin_interior(nf_mut):
        counts_f = dual_ehrhart_counts(hyp.newton, kmax)
        counts_m = dual_ehrhart_counts(nf_mut, kmax)
        counts_ok = counts_f == counts_m
        checks.append(
            CheckResult(
                "dual_lattice_counts",
                "pass" if counts_ok else "fail",
                {"input": counts_f, "mutated": counts_m},
            )
        )
    else:
        checks.append(
            CheckResult(
                "dual_lattice_counts",
                "skipped",
                {"reason": "a polar dual does not exist (origin not interior)"},
            )
        )

    passed = all(c.status != "fail" for c in checks) and all(
        c.status == "pass" for c in checks[:4]
    )
    return VerificationReport(passed, tuple(checks), data, family)
