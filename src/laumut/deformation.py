"""Flat toric families attached to mutations.

A polynomial f with 0 interior to its Newton polytope spans a cone
sigma over Delta(f) placed at height 1 along a new grading coordinate
(put first). The divided-variable functional u is the last coordinate
of the adapted frame; slicing sigma at its levels +1, 0, -1 produces
polyhedra Delta_0, tau, Delta_inf in the (grading, kernel) coordinates.
sigma is the cone Delta(f) is kept as, which its hull built, and all three
slices are read off the incidence of that kernel pass with no pass of their own
(:func:`polyhedra.kernel_slice`, :func:`polyhedra.level_slice`). A
divisor g that makes f mutable splits Delta_0 into a
Minkowski sum Delta_0^0 + Delta_0^1, each the hull of integer points
plus tau's rays, and regluing the pieces with opposite signs of the
divided coordinate yields a second cone sigma_inf describing the other
end of the family. The passes for the pieces continue tau's description
at height 0, and the pass for sigma_inf continues Delta_0^0's cone, so
each inserts only new generators. Delta_0^1 is the divisor's Newton polytope at
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
from typing import Optional

from .exactlat import DomainError
from .laurent import LaurentPolynomial, newton_polytope, to_string
from .mutation import MutationCheck, MutationSpec, is_mutation
from .polyhedra import (
    AdmissibilityVerdict,
    Cone,
    Polyhedron,
    contains_origin_interior,
    dual_ehrhart_counts,
    first_coordinate_last,
    is_admissible_pair,
    is_lattice_polyhedron,
    is_minkowski_sum,
    kernel_slice,
    level_slice,
)


class FamilyError(DomainError):
    """A hypothesis needed for the family construction fails.

    ``failures`` lists short machine-readable reasons.
    """

    def __init__(self, message: str, failures: Optional[list] = None):
        self.failures = failures or []
        super().__init__(message, failures=self.failures)


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
    tail: Cone
    delta0: Polyhedron
    delta_inf: Polyhedron
    delta00: Polyhedron
    delta01: Polyhedron
    admissibility: tuple[AdmissibilityVerdict, AdmissibilityVerdict]
    sigma_inf: Cone

    def to_dict(self) -> dict:
        zeros = ["0"] * self.spec.rank  # the frame is fixed: grading first, divided coordinate last
        return {
            "polynomial": to_string(self.f),
            "spec": self.spec.to_dict(),
            "sigma": self.sigma.to_dict(),
            "direction": zeros + ["1"],
            "grading": ["1"] + zeros,
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
    ``newton`` is Delta(f) in the adapted frame, whose cone is sigma. The
    family construction reuses them instead of dividing or hulling again.
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


def _family(f: LaurentPolynomial, spec: MutationSpec, hyp: Hypotheses, mutated_adapted: LaurentPolynomial) -> FamilyData:
    n = spec.rank
    sigma = hyp.newton.cone
    tail = kernel_slice(sigma)
    delta0 = level_slice(sigma, tail, 1)
    delta_inf = level_slice(sigma, tail, -1)

    # The mutated terms at a positive level i are those of the quotient f_i / g^i.
    # Delta_0^0 is the hull of each (1, x)/i and Delta_0^1 of each (0, e), both
    # plus the tail rays; their homogenizations are spanned by tau at height 0,
    # whose description both passes continue, and by (i, 1, x) and (1, 0, e).
    gens00 = [(e[-1], 1) + e[:-1] for e in mutated_adapted.support() if e[-1] > 0]
    delta00 = Polyhedron(Cone.from_generators(n + 1, gens00, tail))
    delta01 = Polyhedron(Cone.from_generators(n + 1, [(1, 0) + e for e in spec.divisor.support()], tail))
    if not is_minkowski_sum(delta00, delta01, delta0):
        raise AssertionError("divisor decomposition must rebuild the +1 slice")

    # Both pairs contain the lattice polytope delta01, and every slice has the
    # rays tail.rays, so both verdicts are "yes" by the lattice certificate.
    adm = (is_admissible_pair(delta00, delta01), is_admissible_pair(delta01, delta_inf))
    # sigma_inf is spanned by the tail rays at divided height 0 and each vertex
    # y/h of Delta_0^0 (homogenized ray (h, y)) at height +1 as (y, h): the
    # rays of Delta_0^0's cone with the height moved last, which the pass
    # continues. At height -1 it adds each sum v + r[:-1]/|r_last| of a vertex
    # of Delta_0^1 and one of Delta_inf (r a down ray of sigma), scaled to
    # (|r_last| v + r[:-1], r_last). The cone keeps only the extreme ones, so
    # Delta_0^1 + Delta_inf is never hulled.
    down = [r for r in sigma.rays if r[-1] < 0]
    verts01 = [g[1:] for g in delta01.cone.rays if g[0]]
    gens = [tuple(-r[-1] * a + b for a, b in zip(v, r[:-1])) + (r[-1],) for v in verts01 for r in down]
    sigma_inf = Cone.from_generators(n + 1, gens, first_coordinate_last(delta00.cone))
    return FamilyData(
        f=f,
        spec=spec,
        sigma=sigma,
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
    checks: tuple[CheckResult, ...]
    data: dict
    family: Optional[FamilyData] = field(default=None, compare=False, repr=False)  # not serialized

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "data": self.data,
        }

    @staticmethod
    def from_dict(d: dict) -> "VerificationReport":
        """Read a report back, refusing (ValueError) what ``verify`` never emits: checks other than
        the hypotheses and ``_CONSEQUENCES`` in order, the five other than passed or failed after
        passed hypotheses or skipped after failed ones, and a ``passed`` the checks contradict."""
        checks = tuple(CheckResult(c["name"], c["status"], c["details"]) for c in d["checks"])
        names, statuses = [c.name for c in checks], [c.status for c in checks]
        if names != ["hypotheses", *_CONSEQUENCES]:
            raise ValueError(f"the report checks {names}, not hypotheses then {', '.join(_CONSEQUENCES)}")
        if not set(statuses[1:]) <= {"pass": {"pass", "fail"}, "fail": {"skipped"}}.get(statuses[0], set()):
            raise ValueError(f"the report's statuses {statuses} are neither a pass then passes or fails nor a fail then skips")
        report = VerificationReport(checks, d["data"])
        if d["passed"] is not report.passed:
            raise ValueError(f"the report says passed is {d['passed']!r}, but its checks say {report.passed}")
        return report


# The consequences verify_main_theorem checks once the hypotheses hold, in report order.
_CONSEQUENCES = ("family", "mutation_cone_match", "tailcone_preserved", "fiber_class", "dual_lattice_counts")
DEFAULT_KMAX = 6  # the last dilate whose dual lattice points verify counts


def verify_main_theorem(f: LaurentPolynomial, spec: MutationSpec, kmax: int = DEFAULT_KMAX) -> VerificationReport:
    """Drive every combinatorial consequence of the construction.

    Checks, in order: the hypotheses; the family construction with its
    admissibility certificates; equality of the glued cone with the cone
    built from the mutated polynomial; preservation of the degree-zero
    slice; the far-fiber classification predicate (recorded, its truth
    value is data, not a requirement); and agreement of the lattice point
    counts of the polar duals' dilates. The report keeps the family it
    built, for drawing.
    """
    hyp = check_hypotheses(f, spec)
    hypotheses = CheckResult("hypotheses", "fail" if hyp.failures else "pass", {**hyp.details, "failures": hyp.failures})
    if hyp.failures:
        skipped = (CheckResult(name, "skipped", {"reason": "hypotheses failed"}) for name in _CONSEQUENCES)
        return VerificationReport((hypotheses, *skipped), {"polynomial": to_string(f), "spec": spec.to_dict()})

    mutated_adapted = spec.to_adapted(hyp.report.mutated)
    family = _family(f, spec, hyp, mutated_adapted)
    fam = family.to_dict()
    nf_mut = newton_polytope(mutated_adapted)
    data = {
        "polynomial": fam["polynomial"],
        "spec": fam["spec"],
        "mutated": to_string(hyp.report.mutated),
        "sigma_rays": fam["sigma"]["rays"],
        "sigma_infinity_rays": fam["sigma_infinity"]["rays"],
        "sigma_infinity_rays_grading_last": [r[1:] + r[:1] for r in fam["sigma_infinity"]["rays"]],
        "sigma_prime_rays": nf_mut.cone.to_dict()["rays"],
    }

    # Mutation keeps the origin interior (arXiv:1212.1785): for m != 0, the minimum of m on Delta(f')
    # is that of m - h(m)*u on Delta(f), h(m) the minimum of m on Newton(g), and m - h(m)*u != 0.
    # So sigma' slices at x_last = 0 (pointed, full-dimensional, rays on both sides) and Delta(f')* exists.
    tail_prime = kernel_slice(nf_mut.cone)
    counts_f = dual_ehrhart_counts(hyp.newton, kmax)
    counts_m = dual_ehrhart_counts(nf_mut, kmax)
    outcomes = (
        (True, {key: fam[key] for key in ("delta0", "delta_inf", "delta00", "delta01", "tail", "admissibility")}),
        (family.sigma_inf == nf_mut.cone, {key: data[key] for key in ("sigma_infinity_rays", "sigma_prime_rays")}),
        (tail_prime == family.tail, {"tail_rays": fam["tail"]["rays"], "tail_prime_rays": tail_prime.to_dict()["rays"]}),
        # The far-fiber classification is recorded: its truth value is data, not a requirement.
        (True, {"general_fiber_is_toric": fam["general_fiber_is_toric"], "delta_inf_vertices": fam["delta_inf"]["vertices"]}),
        (counts_f == counts_m, {"input": counts_f, "mutated": counts_m}),
    )
    checks = [CheckResult(name, "pass" if ok else "fail", details) for name, (ok, details) in zip(_CONSEQUENCES, outcomes)]
    return VerificationReport((hypotheses, *checks), data, family)
