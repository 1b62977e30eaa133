"""Inputs, job lists and output checks of the laumut benchmark workloads.

A job is one CLI invocation: an argv list for ``laumut.cli.main`` and a
check of its exit code and JSON output. Inputs come only from the seed;
the program sees only the generated ``--f/--u/--by/--depth/--kmax``
values. Checks use invariants that hold for every seed, so a failed
check is a wrong answer, never an unlucky input.

Why each workload looks the way it does, and which inputs were left out,
is written down in ``WORKLOADS.md`` next to this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from laumut.exactlat import inverse_unimodular, mat_mul, mat_vec, transpose
from laumut.laurent import LaurentPolynomial, act_unimodular, newton_polytope, parse, to_string
from laumut.mutation import MutationSpec, apply_mutation, facet_mutation_spec
from laumut.polyhedra import Cone, cone_over, contains_origin_interior

REFERENCES = json.loads((Path(__file__).with_name("references.json")).read_text())

# Reflexive seed polygons. F3 and F4 are the worked examples of the test
# suite; dP7 is the standard pentagon, which is F4 in other coordinates.
POLYGONS = {
    "F3": "x^-1*y + 2*y + x*y + y^-1",
    "F4": "x^-1 + x^-1*y + y + y^-1 + x*y^-1",
    "dP7": "x + x*y + y + x^-1 + y^-1",
    "hexagon": "x + x*y + y + x^-1 + x^-1*y^-1 + y^-1",
    "P1xP1": "x + y + x^-1 + y^-1",
    "P2": "x + y + x^-1*y^-1",
}

# verify jobs: (polygon, shear, facet of the unsheared polygon). The shear
# fixes the cost class: the larger it is, the larger the polar dual's
# bounding box and the smaller the share of scanned points that count.
# Repeated entries are the same cost class under different seeded signed
# permutations; they put the median and the p75 of the job latencies in
# the middle of a group of equal-cost jobs instead of between two jobs
# of different cost, where the noise of a few samples would decide.
VERIFY_JOBS = (
    ("hexagon", ((1, 0), (0, 1)), 3),
    ("P1xP1", ((1, 0), (0, 1)), 2),
    ("F3", ((1, 0), (0, 1)), 2),
    ("F4", ((1, 0), (0, 1)), 1),
    *(("hexagon", ((1, 1), (0, 1)), 3),) * 4,
    *(("F3", ((1, 1), (0, 1)), 2),) * 3,
    ("P2", ((1, 1), (0, 1)), 1),
)
VERIFY_KMAX = 12

# graph jobs: (polygon, depth, shear). Each polygon is moved by its shear
# after a seeded signed permutation. Canonical forms make the closure's
# node set independent of the map, so one reference serves every seed.
# The repeated hexagon job holds the median and the p70, as in VERIFY_JOBS.
GRAPH_JOBS = (
    ("F4", 3, ((1, 1), (0, 1))),
    ("dP7", 3, ((1, 2), (0, 1))),
    *(("hexagon", 4, ((1, 3), (0, 1))),) * 3,
    ("P1xP1", 4, ((1, 1), (0, 1))),
)

# family pairs: (rank, number of pairs). The pairs themselves are drawn
# once from FAMILY_BASE_SEED; the run's seed only moves each of them.
FAMILY_PAIRS = ((3, 20), (4, 10))
FAMILY_BASE_SEED = 1


@dataclass
class Job:
    argv: list[str]
    # check(code, payload, outputs of the workload's jobs by index) -> error or None
    check: Callable[[int, Optional[dict], dict], Optional[str]]
    label: str


@dataclass
class Workload:
    # Enough passes that the tail percentile in run.py keeps ten samples beyond it.
    min_passes: int
    jobs: list[Job] = field(default_factory=list)


def _signed_permutation(rng: random.Random, n: int):
    """A seeded signed permutation matrix. Moving an input by one changes
    its coordinates, signs and the order of its facets, but not its
    combinatorial type; in rank 2 it also keeps the volume of the box
    that dual_ehrhart_counts scans. So a seed varies the inputs without
    moving their cost class, and runs at different seeds stay comparable."""
    perm = rng.sample(range(n), n)
    return tuple(
        tuple(rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)) for i in range(n)
    )


def _covector_after(u, matrix):
    """The covector u' with u'(matrix @ x) = u(x), i.e. u @ matrix^-1."""
    return mat_vec(transpose(inverse_unimodular(matrix)), u)


def _vec(v) -> str:
    return ",".join(str(c) for c in v)


def _expect_ok(code, payload):
    if code != 0:
        return f"exit code {code}"
    if payload is None:
        return "no JSON output"
    return None


# -- verify --------------------------------------------------------------------


def _verify_check(polygon: str):
    reference = REFERENCES["dual_counts_kmax12"][polygon]

    def check(code, payload, _outputs):
        err = _expect_ok(code, payload)
        if err:
            return err
        if payload.get("passed") is not True:
            return "verify did not pass"
        counts = {c["name"]: c for c in payload["checks"]}.get("dual_lattice_counts")
        if counts is None or counts["status"] != "pass":
            return "dual lattice counts not checked"
        d = counts["details"]
        # Dual counts are GL(2,Z)-invariant and mutation-invariant, so both
        # sides must match the unsheared seed polygon.
        if d["input"] != reference or d["mutated"] != reference:
            return f"dual counts {d['input']} / {d['mutated']} differ from {reference}"
        return None

    return check


def verify_workload(seed: int) -> Workload:
    rng = random.Random(seed)
    wl = Workload(min_passes=4)
    for polygon, shear, facet in VERIFY_JOBS:
        base = parse(POLYGONS[polygon])
        spec = facet_mutation_spec(newton_polytope(base), facet)
        matrix = mat_mul(_signed_permutation(rng, 2), shear)
        f = act_unimodular(base, matrix)
        u = _covector_after(spec.direction, matrix)
        by = act_unimodular(spec.divisor_in_ambient(), matrix)
        argv = [
            "verify", "--f", to_string(f), f"--u={_vec(u)}", "--by", to_string(by),
            "--kmax", str(VERIFY_KMAX),
        ]
        wl.jobs.append(Job(argv, _verify_check(polygon), f"verify {polygon} map={matrix} facet={facet}"))
    return wl


# -- graph ---------------------------------------------------------------------


def _graph_check(polygon: str, depth: int):
    ref = REFERENCES["graph"][f"{polygon}/{depth}"]

    def check(code, payload, _outputs):
        err = _expect_ok(code, payload)
        if err:
            return err
        keys = sorted(n["key"] for n in payload["nodes"])
        if keys != ref["keys"]:
            return f"{len(keys)} node keys differ from the {len(ref['keys'])} of the reference"
        got = {k: len(payload[k]) for k in ("edges", "merges", "failures")}
        want = {k: ref[k] for k in ("edges", "merges", "failures")}
        if got != want:
            return f"graph counts {got} differ from {want}"
        return None

    return check


def graph_workload(seed: int) -> Workload:
    rng = random.Random(seed)
    wl = Workload(min_passes=6)
    for polygon, depth, shear in GRAPH_JOBS:
        matrix = mat_mul(_signed_permutation(rng, 2), shear)
        f = act_unimodular(parse(POLYGONS[polygon]), matrix)
        argv = ["graph", "--f", to_string(f), "--depth", str(depth)]
        wl.jobs.append(Job(argv, _graph_check(polygon, depth), f"graph {polygon} map={matrix} depth={depth}"))
    return wl


# -- family --------------------------------------------------------------------


def _random_unimodular(rng: random.Random, n: int):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return tuple(tuple(r) for r in m)


def _random_poly(rng: random.Random, rank: int, terms: int, positive: bool = False):
    out = {}
    while len(out) < terms:
        e = tuple(rng.randint(-3, 3) for _ in range(rank))
        out[e] = rng.randint(1, 5) if positive else rng.choice((-2, -1, 1, 2))
    return LaurentPolynomial.from_terms(rank, out)


def random_mutable_pair(rng: random.Random, rank: int):
    """A polynomial and a mutation of it: random adapted basis, a divisor
    of 1-3 terms, and slices at levels -2..2, where each positive-level
    slice is a multiple of the matching divisor power."""
    basis = _random_unimodular(rng, rank)
    direction = tuple(inverse_unimodular(basis)[-1])
    g = _random_poly(rng, rank - 1, rng.randint(1, 3), positive=True)
    terms = []
    for level in range(-2, 3):
        if level > 0:
            part = _random_poly(rng, rank - 1, rng.randint(1, 2)) * g ** level
        else:
            part = _random_poly(rng, rank - 1, rng.randint(1, 3))
        terms += [(e + (level,), c) for e, c in part.terms]
    f = act_unimodular(LaurentPolynomial.from_terms(rank, terms), basis)
    return f, MutationSpec.from_adapted(direction, basis, g)


def _family_check(mutate_index: int):
    def check(code, payload, outputs):
        err = _expect_ok(code, payload)
        if err:
            return err
        mutated = outputs.get(mutate_index)
        if not mutated or "mutated" not in mutated:
            return "the matching mutate job gave no output"
        # sigma_infinity must be the cone over the mutated polynomial's
        # Newton polytope in the same adapted frame, grading first.
        spec = MutationSpec.from_dict(payload["spec"])
        g = act_unimodular(parse(mutated["mutated"], rank=spec.rank), inverse_unimodular(spec.basis))
        if Cone.from_dict(payload["sigma_infinity"]) != cone_over(newton_polytope(g), 0):
            return "sigma_infinity is not the cone over the mutated Newton polytope"
        return None

    return check


def _mutate_check(expected: str):
    def check(code, payload, _outputs):
        err = _expect_ok(code, payload)
        if err:
            return err
        if payload.get("mutated") != expected:
            return f"mutated to {payload.get('mutated')!r}, expected {expected!r}"
        return None

    return check


def family_workload(seed: int) -> Workload:
    """Each pair gives three jobs: family, mutate, and the inverse mutate,
    whose output must be f again. Pairs whose Newton polytope does not
    hold the origin in its interior fail the family hypotheses and are
    skipped while drawing."""
    base = random.Random(FAMILY_BASE_SEED)
    rng = random.Random(seed)
    wl = Workload(min_passes=3)
    for rank, count in FAMILY_PAIRS:
        made = 0
        while made < count:
            f, spec = random_mutable_pair(base, rank)
            if not contains_origin_interior(newton_polytope(f)):
                continue
            made += 1
            matrix = _signed_permutation(rng, rank)
            f_text = to_string(act_unimodular(f, matrix))
            mutated = to_string(act_unimodular(apply_mutation(f, spec), matrix))
            u = _covector_after(spec.direction, matrix)
            by = to_string(act_unimodular(spec.divisor_in_ambient(), matrix))
            label = f"rank {rank} pair {made} map={matrix}"
            i = len(wl.jobs)
            wl.jobs.append(Job(["family", "--f", f_text, f"--u={_vec(u)}", "--by", by], _family_check(i + 1), f"family {label}"))
            wl.jobs.append(Job(["mutate", "--f", f_text, f"--u={_vec(u)}", "--by", by], _mutate_check(mutated), f"mutate {label}"))
            neg = tuple(-c for c in u)
            wl.jobs.append(Job(["mutate", "--f", mutated, f"--u={_vec(neg)}", "--by", by], _mutate_check(f_text), f"inverse mutate {label}"))
    return wl


WORKLOADS = {"verify": verify_workload, "graph": graph_workload, "family": family_workload}
