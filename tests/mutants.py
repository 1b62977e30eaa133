"""Mutation testing of the tier-1 suite: each mutant plants one known fault
in a copy of ``src/`` and names the tests that must catch it.

Run from anywhere, with nothing but the standard library and pytest:

    python tests/mutants.py

Each entry is (name, file under ``src/laumut/``, old text, new text, test
ids). The runner refuses an entry whose old text does not occur exactly
once in its file. It first runs every named id against an unmutated copy
of ``src/``, where each must pass. Then, for each entry, it copies ``src/``
to a temporary directory, replaces the old text with the new one there,
and runs the entry's ids against that copy. A mutant is killed when every
one of its ids fails; the runner names each survivor with the ids that
passed, and exits 1 if any mutant survived or any entry is broken.
pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    ids: tuple[str, ...]


MUTANTS = (
    Mutant(
        "dd_step_keeps_the_masks_of_a_constraint_that_cuts_no_ray",
        "polyhedra.py",
        "    survivors: dict[IntVec, int] = {}\n",
        "    if min(vals, default=0) >= 0:\n        return dict(zip(rays, masks))\n    survivors: dict[IntVec, int] = {}\n",
        tuple(f"tests/test_polyhedra.py::test_extreme_rays_match_recomputed_tight_sets[{rank}]" for rank in (2, 3, 4, 5)),
    ),
    Mutant(
        "divide_exact_refuses_an_empty_remainder",
        "laurent.py",
        "    while remainder:\n",
        "    if not remainder:\n        return None\n    while remainder:\n",
        ("tests/test_laurent.py::test_divide_exact_examples",)
        + tuple(f"tests/test_laurent.py::test_divide_exact_matches_the_fraction_peel[{rank}]" for rank in (1, 2, 3, 4)),
    ),
    Mutant(
        "clip_without_the_left_side_of_the_box",
        "render.py",
        "((1, 0), xmin), ",
        "",
        ("tests/test_render.py::test_clip_matches_the_homogenized_clip",),
    ),
    Mutant(
        "only_u_takes_a_value_with_a_leading_minus",
        "cli.py",
        'out[-1] in ("--f", "--by", "--u") and re.match(r"-[0-9xyz]", arg)',
        'out[-1] == "--u" and re.match(r"-[0-9]", arg)',
        tuple(
            f"tests/test_cli.py::test_a_value_with_a_leading_minus_may_follow_its_option[{case}]"
            for case in ("f_variable", "f_indexed_variable", "f_digit", "by", "f_u_and_by")
        ),
    ),
    Mutant(
        "a_catch_all_value_error_exits_1",
        "cli.py",
        "    except DomainError as exc:\n",
        '    except ValueError as exc:\n        _emit({"error": str(exc)}, args.pretty, [f"failed: {exc}"])\n        return 1\n'
        "    except DomainError as exc:\n",
        (
            "tests/test_cli.py::test_an_internal_value_error_propagates_with_nothing_on_stdout",
            "tests/test_cli.py::test_mutate_not_divisible_is_domain_failure",
        ),
    ),
    Mutant(
        "newton_polytope_of_zero_raises_a_plain_value_error",
        "laurent.py",
        'raise DomainError("the zero polynomial has no Newton polytope")',
        'raise ValueError("the zero polynomial has no Newton polytope")',
        tuple(f"tests/test_cli.py::test_the_zero_polynomial_is_a_domain_failure[{cmd}]" for cmd in ("newton", "facets", "graph")),
    ),
    Mutant(
        "negative_levels_gain_a_doubled_divisor_power",
        "mutation.py",
        "            parts[-k] = parts[-k] * power\n",
        "            parts[-k] = parts[-k] * LaurentPolynomial.from_terms(f.rank, {e: c * (1 + any(e)) for e, c in g.terms}) ** k\n",
        ("tests/test_mutgraph.py::test_classical_periods_constant_across_graph",)
        + tuple(f"tests/test_mutation.py::test_mutation_keeps_the_classical_periods[{case}]" for case in ("2-6", "3-6"))
        + tuple(f"tests/test_mutation.py::test_readme_mutations_keep_their_pinned_classical_periods[{case}]" for case in ("F3", "rank3", "rank4", "F4")),
    ),
    Mutant(
        "exact_fraction_reads_a_bool_as_a_number",
        "exactlat.py",
        "isinstance(c, (float, bool))",
        "isinstance(c, float)",
        (
            "tests/test_polyhedra.py::test_floats_are_refused_at_the_exact_boundary",
            "tests/test_polyhedra.py::test_readers_refuse_malformed_evidence[bool_cell_ray]",
            "tests/test_mutation.py::test_spec_constructors_refuse_non_integers_instead_of_truncating",
        ),
    ),
    Mutant(
        "facet_mutation_divides_by_one_plus_the_negated_edge_direction",
        "mutation.py",
        "t = lex_positive((u2, -u1))",
        "t = tuple(-c for c in lex_positive((u2, -u1)))",
        tuple(f"tests/test_mutgraph.py::test_graph_edges_match_the_combinatorial_mutation[{p}]" for p in ("F4", "hexagon", "P1xP1")),
    ),
)


def outcomes(src: Path, ids: tuple[str, ...]) -> dict[str, str]:
    """``"passed"`` or ``"failed"`` for each id run against the package in
    ``src``, read off pytest's summary; an id that did not run is absent."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "1000"}
    command = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *ids]
    lines = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True).stdout.splitlines()
    found = {}
    for test in ids:
        for word in ("PASSED", "FAILED"):
            if any(line == f"{word} {test}" or line.startswith(f"{word} {test} - ") for line in lines):
                found[test] = word.lower()
    return found


def run_copy(mutant: Mutant | None, ids: tuple[str, ...]) -> dict[str, str]:
    """The outcomes of ``ids`` on a fresh copy of ``src/``, with ``mutant`` planted in it if given."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant is not None:
            path = src / "laumut" / mutant.file
            path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        return outcomes(src, ids)


def main() -> int:
    broken = []
    for m in MUTANTS:
        count = (ROOT / "src" / "laumut" / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            broken.append(f"refused {m.name}: its old text occurs {count} times in {m.file}, not once")
    if broken:
        print(*broken, sep="\n")
        return 1
    every_id = tuple(dict.fromkeys(test for m in MUTANTS for test in m.ids))
    baseline = run_copy(None, every_id)
    broken = [f"broken: {test} does not pass without a mutant" for test in every_id if baseline.get(test) != "passed"]
    if broken:
        print(*broken, sep="\n")
        return 1
    survivors = 0
    for m in MUTANTS:
        found = run_copy(m, m.ids)
        passed = [test for test in m.ids if found.get(test) != "failed"]
        if passed:
            survivors += 1
            print(f"SURVIVED {m.name}: " + ", ".join(f"{test} ({found.get(test, 'not run')})" for test in passed))
        else:
            print(f"killed {m.name}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
