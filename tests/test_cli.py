import argparse
import hashlib
import json
import sys

import pytest

from laumut import cli, exactlat, laurent, polyhedra
from laumut.cli import main
from laumut.deformation import VerificationReport, build_family
from laumut.exactlat import DomainError
from laumut.laurent import newton_polytope, parse
from laumut.mutation import MutationSpec, is_mutation, polygon_facets
from laumut.mutgraph import explore_graph
from laumut.render import render_svg

F3 = "x^-1*y + 2*y + x*y + y^-1"
F4 = "x^-1 + x^-1*y + y + y^-1 + x*y^-1"
F3_MUTATION = ("--f", F3, "--divide", "y", "--by", "1 + x")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_newton(capsys):
    code, payload, _ = run_json(capsys, "newton", "--f", F3)
    assert code == 0
    assert parse(payload["polynomial"]) == parse(F3)
    verts = {tuple(int(c) for c in v) for v in payload["newton"]["vertices"]}
    assert verts == {(-1, 1), (1, 1), (0, -1)}


def test_newton_svg(capsys, tmp_path):
    out = tmp_path / "p.svg"
    code, payload, _ = run_json(capsys, "newton", "--f", F3, "--svg", str(out))
    assert code == 0
    assert payload["svg"] == str(out)
    assert out.read_text().startswith('<?xml version="1.0"')


def test_facets(capsys):
    code, payload, _ = run_json(capsys, "facets", "--f", F4)
    assert code == 0
    assert len(payload["facets"]) == 5
    assert payload["facets"][3]["direction"] == ["0", "1"]


def test_check_failure_exit_code(capsys):
    code, payload, _ = run_json(capsys, "check", "--f", "x + y", "--divide", "y", "--by", "1 + x")
    assert code == 1
    assert payload["hypothesis_failures"] == [
        "mutation:non-divisible levels [1]",
        "origin:not in the interior of the Newton polytope",
        "levels:divided exponents must straddle zero",
    ]


def test_check_success(capsys):
    code, payload, _ = run_json(capsys, "check", "--f", F3, "--divide", "y", "--by", "1 + x")
    assert code == 0
    assert payload["hypothesis_failures"] == []


def test_mutate_worked_example(capsys):
    code, payload, _ = run_json(capsys, "mutate", "--f", F4, "--divide", "y", "--by", "1 + x")
    assert code == 0
    support = {tuple(int(c) for c in e) for e in payload["support"]}
    assert support == {(-1, 0), (-1, 1), (0, -1), (1, -1), (2, -1)}
    assert parse(payload["mutated"]).coefficient((1, -1)) == 2


def test_mutate_direction_covector(capsys):
    code, payload, _ = run_json(capsys, "mutate", "--f", F3, "--u", "0,1", "--by", "1 + x")
    assert code == 0
    assert parse(payload["mutated"]) == parse("x^-1*y + y + y^-1 + x*y^-1")


def test_mutate_negative_covector_space_separated(capsys):
    argv = ("mutate", "--f", F4, "--by", "1 + y")
    joined = run(capsys, *argv, "--u=-1,0")
    spaced = run(capsys, *argv, "--u", "-1,0")
    assert joined[0] == 0
    assert spaced == joined


@pytest.mark.parametrize(
    "argv",
    [
        ("newton", "--f", "-x+y+x^-1*y^-1"),
        ("newton", "--f", "-z1+z2+z1^-1*z2^-1"),
        ("facets", "--f", "-2*x+y+x^-1*y^-1"),
        ("mutate", *F3_MUTATION[:-1], "-1-x"),
        ("mutate", "--f", "-x^-1*y-2*y-x*y+y^-1", "--u", "-0,1", "--by", "-1-x"),
    ],
    ids=["f_variable", "f_indexed_variable", "f_digit", "by", "f_u_and_by"],
)
def test_a_value_with_a_leading_minus_may_follow_its_option(capsys, argv):
    # argparse reads "-x+y" or "-1-x" after --f or --by as an unknown option.
    joined = []
    for arg in argv:
        if joined and joined[-1] in ("--f", "--u", "--by"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    expected = run(capsys, *joined)
    assert expected[0] == 0
    assert run(capsys, *argv) == expected


def test_mutate_not_divisible_is_domain_failure(capsys):
    code, payload, _ = run_json(
        capsys, "mutate", "--f", "x^-1*y^2 + 3*y^2 + x*y^2 + y^-1", "--divide", "y", "--by", "1 + x"
    )
    assert code == 1
    assert "not a mutation" in payload["error"]
    assert payload["report"]["is_mutation"] is False
    assert [lv["level"] for lv in payload["report"]["levels"]] == [2]


def test_parse_error_exit_two(capsys):
    code, out, err = run(capsys, "newton", "--f", "x^^2")
    assert code == 2
    assert out == ""
    assert "parse error" in err and "position 2" in err


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (("mutate", "--f", F3, "--divide", "y"), "a divisor is required"),
        (("mutate", "--f", F3, "--u", "0,1,3", "--by", "1+x"), "--u has length 3"),
        (("mutate", "--f", F3, "--divide", "q", "--by", "1+x"), "--divide must name one of"),
        (("mutate", "--f", F3, "--u", "zero,one", "--by", "1+x"), "--u"),
        (("newton",), "a polynomial is required"),
        # Covector entries are ASCII integers, as in the polynomial syntax:
        # int() alone reads Arabic-Indic digits as (0, 1) and "1_0" as 10.
        (("mutate", "--f", F3, "--u", "\u0660,\u0661", "--by", "1+x"), "--u must be"),
        (("mutate", "--f", F3, "--u", "1_0,1", "--by", "1+x"), "--u must be"),
        (("mutate", "--f", F3, "--u", "0,+1", "--by", "1+x"), "--u must be"),
        (("mutate", "--f", F3, "--by", "1+x"), "a direction is required"),
        # A direction without its divisor is refused before anything is drawn.
        (("mutate", "--f", F4, "--divide", "y", "--svg", "r.svg"), "usage error: a divisor is required (--by)"),
        (("mutate", "--f", F4, "--u", "0,1", "--svg", "r.svg"), "usage error: a divisor is required (--by)"),
    ],
)
def test_usage_errors(capsys, monkeypatch, tmp_path, argv, fragment):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert fragment in err
    assert not any(tmp_path.iterdir())  # no file written


@pytest.mark.parametrize("u", ["2,0", "0,0", "-3,6"])
def test_non_primitive_covector_is_a_usage_error(capsys, monkeypatch, u):
    # A zero or non-primitive covector has no adapted basis: the argument is
    # refused next to its length check, before the spec is built.
    monkeypatch.setattr(cli.MutationSpec, "from_direction", lambda *a: pytest.fail("ran before the argument check"))
    code, out, err = run(capsys, "mutate", "--f", "x + y", "--u", u, "--by", "1")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: --u must be a primitive covector")


@pytest.mark.parametrize(
    "by,message",
    [
        ("0", "--by must be a nonzero polynomial"),
        ("0*x", "--by must be a nonzero polynomial"),
        ("y", "--by must not involve the divided direction"),
        ("1 + x*y", "--by must not involve the divided direction"),
    ],
    ids=["zero", "zero_term", "divided", "mixed"],
)
def test_bad_divisor_is_a_usage_error(capsys, monkeypatch, by, message):
    # A zero divisor, or one with a term off level 0, is refused next to the
    # --u checks, before the spec is built.
    monkeypatch.setattr(cli.MutationSpec, "from_direction", lambda *a: pytest.fail("ran before the argument check"))
    for direction in (("--u", "0,1"), ("--divide", "y")):
        code, out, err = run(capsys, "mutate", "--f", "x + y", *direction, "--by", by)
        assert (code, out) == (2, "")
        assert err.startswith("usage error: " + message)


# Python 3.10 before 3.10.7 reads numerals of any length.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() has no digit limit here")


@needs_digit_limit
@pytest.mark.parametrize(
    "text, position",
    [("{n}*x + y + x^-1*y^-1", 0), ("x + 1/{n}*y", 6), ("x^{n} + y", 2), ("x^-{n} + y", 3), ("z{n} + z1", 0)],
    ids=["coefficient", "denominator", "exponent", "negative_exponent", "variable_index"],
)
def test_a_numeral_too_long_for_int_is_a_parse_error(capsys, text, position):
    # int() refuses more than sys.get_int_max_str_digits() digits; that
    # ValueError used to leave the CLI as a domain failure (exit 1).
    text = text.format(n="1" * (INT_DIGIT_LIMIT + 1))
    with pytest.raises(laurent.ParseError) as info:
        parse(text)
    assert info.value.position == position
    code, out, err = run(capsys, "newton", "--f", text)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and f"position {position}" in err


@needs_digit_limit
def test_a_covector_entry_too_long_for_int_is_a_usage_error(capsys):
    code, out, err = run(capsys, "mutate", "--f", "x + y", "--u", "1," + "1" * (INT_DIGIT_LIMIT + 1), "--by", "1")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: --u")


def test_a_variable_index_past_the_rank_limit_is_a_parse_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "newton_polytope", lambda f: pytest.fail("hulled past the rank limit"))
    code, out, err = run(capsys, "newton", "--f", "z1 + z1001")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ") and "position 5" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("newton", "--f", "x^1001 + y + x^-1*y^-1", "--svg", "{out}"),
        ("mutate", "--f", "x^1001 + y + x^-1*y^-1", "--divide", "y", "--by", "1", "--svg", "{out}"),
    ],
    ids=["newton", "mutate"],
)
def test_a_drawing_past_the_size_limit_is_a_domain_failure(capsys, tmp_path, argv):
    path = tmp_path / "big.svg"
    code, payload, _ = run_json(capsys, *[str(path) if a == "{out}" else a for a in argv])
    assert (code, payload) == (1, {"error": "a drawing of 1004 by 4 lattice units exceeds 1000 a side"})
    assert not path.exists()
    with pytest.raises(DomainError) as info:
        render_svg([("Delta(f)", newton_polytope(parse(argv[2])))])
    assert info.value.payload == payload


def test_both_f_and_file_rejected(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("x + y\n")
    code, _, err = run(capsys, "newton", "--f", "x", "--file", str(path))
    assert code == 2
    assert "not both" in err or "one of" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", *F3_MUTATION, "--kmax", "0"),
        ("verify", *F3_MUTATION, "--kmax", "-3"),
        ("graph", "--f", F4, "--depth", "-1"),
    ],
)
def test_out_of_range_kmax_and_depth_are_usage_errors(capsys, monkeypatch, argv):
    for name in ("verify_main_theorem", "explore_graph"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("ran before the argument check"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: --")


def test_file_input_with_comments(capsys, tmp_path):
    path = tmp_path / "polys.txt"
    path.write_text("# leading comment\n" + F3 + "  # trailing note\n\nx + y\n")
    code, payload, _ = run_json(capsys, "newton", "--file", str(path))
    assert code == 0
    assert parse(payload["polynomial"]) == parse(F3)


def test_file_input_parses_only_the_first_polynomial(capsys, tmp_path):
    path = tmp_path / "polys.txt"
    path.write_text(F4 + "\n3x\n")
    code, payload, _ = run_json(capsys, "facets", "--file", str(path))
    assert code == 0
    assert parse(payload["polynomial"]) == parse(F4)
    path.write_text("# comment\n\n3x\n" + F4 + "\n")
    code, out, err = run(capsys, "facets", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == f"parse error: line 3 of {path}: expected '+' or '-' between terms (at position 1)\n"


@pytest.mark.parametrize("line, position", [("   x + (y", 7), ("\t\t x^2 + (y  # note", 9)])
def test_file_parse_error_counts_columns_from_the_start_of_the_line(capsys, tmp_path, line, position):
    # Positions are 0-based columns of the line, indentation included, as
    # leading blanks count in --f.
    path = tmp_path / "polys.txt"
    path.write_text(f"# comment\n{line}\n")
    code, out, err = run(capsys, "newton", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == f"parse error: line 2 of {path}: parentheses are not part of the grammar (at position {position})\n"


def test_file_input_skips_a_byte_order_mark(capsys, tmp_path):
    # UTF-8 with a leading mark (as Notepad saves it) reads as without it,
    # before a comment line too, and with CRLF line ends; positions still
    # count from the first character of the line.
    path = tmp_path / "bom.txt"
    path.write_text("x + y + x^-1*y^-1\n")
    expected = run(capsys, "newton", "--file", str(path))
    assert expected[0] == 0
    for text in ("x + y + x^-1*y^-1\n", "# comment\r\nx + y + x^-1*y^-1\r\n"):
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert run(capsys, "newton", "--file", str(path)) == expected
    path.write_bytes(b"\xef\xbb\xbf(x + y\r\n")
    code, out, err = run(capsys, "newton", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == f"parse error: line 1 of {path}: parentheses are not part of the grammar (at position 0)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("newton", "--file", "{missing}"), "cannot "),
        (("newton", "--file", "{latin1}"), "cannot "),
        (("newton", "--file", "{comments}"), "no polynomial found in "),
        (("newton", "--f", F3, "--svg", "{unwritable}"), "cannot "),
        (("graph", "--f", F4, "--depth", "1", "-o", "{unwritable}"), "cannot "),
        (("graph", "--f", F4, "--depth", "1", "--dot", "{unwritable}"), "cannot "),
        (("mutate", *F3_MUTATION, "--svg", "{unwritable}"), "cannot "),
    ],
    ids=["missing file", "non-UTF-8 file", "comments only", "newton --svg", "graph -o", "graph --dot", "mutate --svg"],
)
def test_file_errors_are_usage_errors(capsys, tmp_path, argv, message):
    paths = {
        "{missing}": tmp_path / "missing.txt",
        "{latin1}": tmp_path / "latin1.txt",
        "{comments}": tmp_path / "comments.txt",
        "{unwritable}": tmp_path / "no-such-dir" / "out",
    }
    paths["{latin1}"].write_bytes("x + y  # caf\u00e9\n".encode("latin-1"))
    paths["{comments}"].write_text("# a comment\n\n   # another\n")
    argv = [str(paths.get(a, a)) for a in argv]
    path = next(a for a in argv if a.startswith(str(tmp_path)))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: " + message) and path in err


@pytest.mark.parametrize(
    "argv,error",
    [
        (("facets", "--f", "x"), "a lattice polygon has rank 2, not 1"),
        (("facets", "--f", "x + y"), "a lattice polygon is full-dimensional"),
        (("facets", "--f", "x + y + z"), "a lattice polygon has rank 2, not 3"),
        (("graph", "--depth", "1", "--f", "x + y"), "polygon must contain the origin in its interior"),
        (("graph", "--depth", "1", "--f", "x^2 + y + x^-1*y^-1"), "polygon vertices must be primitive"),
        (("graph", "--depth", "1", "--f", "x + y + z + x^-1*y^-1*z^-1"), "mutation graphs are defined for rank 2"),
    ],
)
def test_polygon_precondition_failures(capsys, argv, error):
    # The graph texts are also the reasons recorded for failed graph edges.
    assert run(capsys, *argv) == (1, json.dumps({"error": error}) + "\n", "")
    f = parse(argv[-1])
    with pytest.raises(DomainError) as info:
        explore_graph(f, 1) if argv[0] == "graph" else polygon_facets(newton_polytope(f))
    assert str(info.value) == error


@pytest.mark.parametrize(
    "argv, error",
    [
        (("newton", "--f", "0"), "the zero polynomial has no Newton polytope"),
        (("facets", "--f", "x - x"), "the zero polynomial has no Newton polytope"),
        (("graph", "--depth", "1", "--f", "0"), "the zero polynomial has no Newton polytope"),
        (("check", "--f", "x - x", "--divide", "x", "--by", "1"), "cannot mutate the zero polynomial"),
        (("mutate", "--f", "x - x", "--divide", "x", "--by", "1"), "cannot mutate the zero polynomial"),
    ],
    ids=["newton", "facets", "graph", "check", "mutate"],
)
def test_the_zero_polynomial_is_a_domain_failure(capsys, argv, error):
    assert run(capsys, *argv) == (1, json.dumps({"error": error}) + "\n", "")
    zero = parse("x - x")
    spec = MutationSpec.from_direction((1,), parse("1", rank=1))
    with pytest.raises(DomainError, match=error):
        is_mutation(zero, spec) if argv[0] in ("check", "mutate") else newton_polytope(zero)


def test_an_internal_value_error_propagates_with_nothing_on_stdout(capsys, monkeypatch):
    # Exit 1 is a verdict on the input; a ValueError that is not a
    # DomainError is a bug, and must not print as one.
    def broken(f, spec):
        raise ValueError("an internal fault")

    monkeypatch.setattr(cli, "is_mutation", broken)
    with pytest.raises(ValueError, match="an internal fault") as info:
        main(["mutate", *F3_MUTATION])
    assert type(info.value) is ValueError
    assert capsys.readouterr().out == ""


def test_pretty_prints_summary_then_json(capsys):
    code, out, _ = run(capsys, "newton", "--f", F3, "--pretty")
    assert code == 0
    summary, _, rest = out.partition("{")
    assert "newton polytope" in summary
    payload = json.loads("{" + rest)
    assert parse(payload["polynomial"]) == parse(F3)


def test_verify_worked_example(capsys):
    code, payload, _ = run_json(capsys, "verify", "--f", F3, "--divide", "y", "--by", "1 + x")
    assert code == 0
    rep = VerificationReport.from_dict(payload)
    assert rep.passed
    rays = {tuple(int(c) for c in r) for r in payload["data"]["sigma_infinity_rays_grading_last"]}
    assert rays == {(-1, 1, 1), (0, 1, 1), (0, -1, 1), (1, -1, 1)}


@pytest.mark.parametrize(
    "argv",
    [
        ("--f", "x + y + z + x*z + x^-1*y^-1*z^-1", "--divide", "z", "--by", "1 + x", "--kmax", "6"),
        ("--f", "z1 + z2 + z3 + z4 + z1*z4 + z1^-1*z2^-1*z3^-1*z4^-1", "--divide", "z4", "--by", "1 + z1", "--kmax", "6"),
        F3_MUTATION + ("--kmax", "2000"),
        ("--f", "x + y", "--divide", "y", "--by", "1 + x"),
    ],
    ids=["rank3", "rank4", "kmax2000", "failed_hypotheses"],
)
def test_readme_verify_payloads_read_back(capsys, argv):
    code, payload, _ = run_json(capsys, "verify", *argv)
    rep = VerificationReport.from_dict(payload)
    assert (code, rep.to_dict()) == (0 if rep.passed else 1, {k: payload[k] for k in ("passed", "checks", "data")})


def test_verify_failure_exit_one(capsys):
    code, payload, _ = run_json(capsys, "verify", "--f", "x + y", "--divide", "y", "--by", "1 + x")
    assert code == 1
    assert payload["passed"] is False


def test_verify_kmax(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--f", F3, "--divide", "y", "--by", "1 + x", "--kmax", "2"
    )
    assert code == 0
    counts = payload["checks"][-1]["details"]
    assert counts["input"] == [9, 25] and counts["mutated"] == [9, 25]


def test_family_payload(capsys):
    code, payload, _ = run_json(capsys, "family", "--f", F3, "--divide", "y", "--by", "1 + x")
    assert code == 0
    assert payload["general_fiber_is_toric"] is True
    assert payload["tail"]["rays"] == [["2", "-1"], ["2", "1"]]


def test_family_hypothesis_failure(capsys):
    code, payload, _ = run_json(capsys, "family", "--f", "x + y", "--divide", "y", "--by", "1 + x")
    assert code == 1
    assert "error" in payload


def test_graph_outputs(capsys, tmp_path):
    jpath = tmp_path / "g.json"
    dpath = tmp_path / "g.dot"
    code, payload, _ = run_json(
        capsys, "graph", "--f", F4, "--depth", "2", "-o", str(jpath), "--dot", str(dpath)
    )
    assert code == 0
    assert len(payload["nodes"]) == 6
    assert len(payload["edges"]) == 14
    on_disk = json.loads(jpath.read_text())
    assert on_disk == payload
    assert dpath.read_text().startswith("digraph mutations {")


def test_graph_output_bytes_pinned(capsys, tmp_path):
    # sha256 of the stdout and DOT file that F4 at depth 3 has always printed.
    dpath = tmp_path / "g.dot"
    code, out, _ = run(capsys, "graph", "--f", F4, "--depth", "3", "--dot", str(dpath))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "be4a4b3339b27eac5ac20c17a18cba813651d1f6caf2400ce8549cc42d7bbdfb"
    )
    assert hashlib.sha256(dpath.read_bytes()).hexdigest() == (
        "d7c467fa3f514854de62f1da515b03e94db00db576f615713ae4ab5982169895"
    )


@pytest.mark.parametrize(
    "f, digest",
    [
        (
            "x + x*y + y + x^-1 + x^-1*y^-1 + y^-1",  # hexagon
            "15066c58725bed56ae8e3b8b99e2d0dbcc31e4ddcaee88307bde07e750b6532b",
        ),
        (
            "x + y + x^-1 + y^-1",  # P1 x P1
            "3853da61193effc3b801049af59086787ba06e8b3e201b4b3a974373ba084880",
        ),
    ],
    ids=["hexagon", "P1xP1"],
)
def test_graph_depth4_bytes_pinned(capsys, f, digest):
    # The merge certificates in this JSON come straight from the canonical maps.
    code, out, _ = run(capsys, "graph", "--f", f, "--depth", "4")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "f, depth, digest",
    [
        (
            "x + y + x^-1*y + x^-1*y^-1 + x*y^-1 + y^-1",  # pentagon: 9 failures, 10 merges
            "3",
            "c48581d7a66ca7300945c3ffe8340e95b6fe46609e0fa1af86d58445bb677af0",
        ),
        (
            "x^-1*y^2 + 3*y^2 + x*y^2 + y^-1",  # facet 2 fails at level 2
            "1",
            "59705994ff4b15586616dd2227ab659f3fefaea01411927a87fff2dc06a2e68a",
        ),
    ],
    ids=["pentagon", "failing_level_2"],
)
def test_graph_with_failures_bytes_pinned(capsys, f, depth, digest):
    # The failure records, with their reasons and failing levels, are in these bytes.
    code, out, _ = run(capsys, "graph", "--f", f, "--depth", depth)
    assert code == 0 and json.loads(out)["failures"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


RANK3_FAMILY = ("--f", "x + y + z + x*z + x^-1*y^-1*z^-1", "--divide", "z", "--by", "1 + x")
RANK4_FAMILY = ("--f", "z1 + z2 + z3 + z4 + z1*z4 + z1^-1*z2^-1*z3^-1*z4^-1", "--divide", "z4", "--by", "1 + z1")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("family", *F3_MUTATION), "e6297978dae221e29f791758e0e0e0b7c283388cd771093a39d78f187f8ff106"),
        (("family", *RANK3_FAMILY), "e0ad0f172a8e41cdad5b023114045fd3281674329ed9dc55792c73a44cf99616"),
        (("family", *RANK4_FAMILY), "2077c54cf4c193793236f6f8b60e8ef19e09c8f954646217a308d7b59f5e75c8"),
        (("verify", *F3_MUTATION), "d9c9022c4198dff618936414cfa03c139bb82c8d6a55a06eacfaff460568c151"),
        (("verify", *RANK3_FAMILY, "--kmax", "6"), "1ce500ace46350b5490308852f9fef674cee5ec81110ec1fb4756086b22afec0"),
        (("verify", *RANK4_FAMILY, "--kmax", "6"), "3e1806fa0a5176046c5f3ec69480fb09876f602048f6fed48c02d9e36e7c6e52"),
        (("family", *F3_MUTATION, "--svg", "out.svg"), "a9e55a2138389a8ab4cd0c1909b0192b777882902d651585fc7ebef9ada1ce52"),
        (("newton", "--f", F4, "--svg", "out.svg"), "7118b1f09d98757b6b6469105231e8b9cf9d24d74af2eec792340850bf6d8a0e"),
        (("mutate", *F3_MUTATION, "--svg", "out.svg"), "a09d3f5e5094eb139883e88bb0133a0824396c54f6a1f442d60ad7767ba90293"),
        (
            ("mutate", "--f", F4, "--divide", "y", "--by", "1 + x", "--svg", "out.svg"),
            "a0c91803720736a64a9533e66f79687b58c6cdd3b8bbb7b0e063edc9427343c3",
        ),
    ],
    ids=[
        "family2", "family3", "family4", "verify2", "verify3", "verify4", "render_family_svg", "newton_svg",
        "mutate_svg", "render_pair_svg",
    ],
)
def test_family_verify_and_svg_bytes_pinned(capsys, monkeypatch, tmp_path, argv, digest):
    # sha256 of the README examples' stdout, or of the SVG file a drawing writes.
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    data = (tmp_path / "out.svg").read_bytes() if "out.svg" in argv else out.encode()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, expected_code, digest",
    [
        (
            ("verify", "--f", "x + y", "--divide", "y", "--by", "1 + x"),
            1,
            "acafc4d59db8fffc7babe233f42972138f77be9668c7cd6a288fc45de9f5ed3b",
        ),
        (("verify", *F3_MUTATION, "--pretty"), 0, "931cbeab84a15ebb66ffc36e1af0f34dd0fc3b380a7fc3d87cfb863932f8099d"),
    ],
    ids=["skipped", "pretty"],
)
def test_verify_report_bytes_pinned(capsys, argv, expected_code, digest):
    # The report with every consequence skipped after failed hypotheses, and the --pretty summary.
    code, out, _ = run(capsys, *argv)
    assert code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_graph_depth_determinism(capsys):
    code1, out1, _ = run(capsys, "graph", "--f", F4, "--depth", "2")
    code2, out2, _ = run(capsys, "graph", "--f", F4, "--depth", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_render_is_not_a_subcommand(capsys, monkeypatch, tmp_path):
    # --svg on newton, mutate, family and verify is the one drawing path.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "render", *F3_MUTATION, "--family", "-o", "r.svg")
    assert (code, out) == (2, "")
    assert "invalid choice: 'render'" in err
    assert not any(tmp_path.iterdir())


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip().startswith("laumut ")


def subparsers() -> dict:
    return next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


# sha256 of each format_help() at 80 columns.
HELP_DIGESTS = {
    "laumut": "af862b4bc388317654b44f691de1ad4f243a5d439434e1352d1423f7e7b3f729",
    "newton": "7cb65a924d481b6465a1408343a343d1ebb7f38172b1ec5674be1d98323ff6c4",
    "facets": "54869aafe64491c9b9f3dead65eb1f11b8b8038629fdc96df0ede9c9894718ec",
    "check": "6ded1d0907fe0763b92bb4ffee6c35ef97a85c76efa056e1f2a7da209a7730af",
    "mutate": "71667d9fcd3404cfd96d893e35e0a9baf8df0ba4abc0ebe251eb9c815ca5c3b7",
    "family": "fecdf9f9ce4e7a93d4494f4891e988e272b4b26442861920dde82cdbe2336980",
    "verify": "7af4d1d7277293b68c2d0a46ab2a03295ed933a1a99691b8399a6fb384d796fd",
    "graph": "f34cc57d7e0f6c96bc559c25a9bad95bd3677ea62b90b268842ae5e6a3455f35",
}


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse lays out '-o, --output' help differently from 3.13 on")
@pytest.mark.parametrize("name", list(HELP_DIGESTS))
def test_help_text_digests_pinned(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli.build_parser() if name == "laumut" else subparsers()[name]
    assert hashlib.sha256(parser.format_help().encode()).hexdigest() == HELP_DIGESTS[name]


# Each subcommand's actions as (option_strings, dest, default, type, required, help).
INPUT_ACTIONS = [
    (["-h", "--help"], "help", argparse.SUPPRESS, None, False, "show this help message and exit"),
    (["--f"], "poly", None, None, False, "polynomial text"),
    (["--file"], "file", None, None, False, "file with one polynomial per line, # comments"),
    (["--pretty"], "pretty", False, None, False, "add a human summary and indent the JSON"),
]
MUTATION_ACTIONS = [
    (["--divide"], "divide", None, None, False, "name of the divided variable"),
    (["--u"], "u", None, None, False, "divided direction as a comma-separated covector"),
    (["--by"], "by", None, None, False, "divisor polynomial (in the undivided variables)"),
]
FAMILY_SVG_ACTION = (["--svg"], "svg", None, None, False, "draw the family slices to this SVG path")
SUBCOMMAND_ACTIONS = {
    "newton": INPUT_ACTIONS + [(["--svg"], "svg", None, None, False, "also draw the polytope to this SVG path")],
    "facets": INPUT_ACTIONS,
    "check": INPUT_ACTIONS + MUTATION_ACTIONS,
    "mutate": INPUT_ACTIONS + MUTATION_ACTIONS
    + [(["--svg"], "svg", None, None, False, "draw input and output polytopes to this SVG path")],
    "family": INPUT_ACTIONS + MUTATION_ACTIONS + [FAMILY_SVG_ACTION],
    "verify": INPUT_ACTIONS + MUTATION_ACTIONS
    + [(["--kmax"], "kmax", 6, int, False, "dual lattice count horizon (default %(default)s)"), FAMILY_SVG_ACTION],
    "graph": INPUT_ACTIONS + [
        (["--depth"], "depth", None, int, True, "breadth-first depth"),
        (["-o", "--output"], "output", None, None, False, "also write the JSON graph to this path"),
        (["--dot"], "dot", None, None, False, "also write a DOT rendering to this path"),
    ],
}


def test_subcommands_and_their_options_pinned():
    subs = subparsers()
    assert list(subs) == list(SUBCOMMAND_ACTIONS)
    for name, expected in SUBCOMMAND_ACTIONS.items():
        actions = [(a.option_strings, a.dest, a.default, a.type, a.required, a.help) for a in subs[name]._actions]
        assert actions == expected, name
        assert subs[name].get_default("handler") is getattr(cli, f"_cmd_{name}")


def count_calls(monkeypatch, fn) -> list:
    """Record each call of ``fn`` made through any laumut module that imported it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "laumut" or name.startswith("laumut."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize(
    "argv,divisions",
    [
        (("check", *F3_MUTATION), 1),
        (("mutate", *F3_MUTATION), 1),
        (("family", *F3_MUTATION), 1),
        (("verify", *F3_MUTATION), 1),
        (("verify", *F3_MUTATION, "--svg", "v.svg"), 1),
        (("mutate", *F3_MUTATION, "--svg", "m.svg"), 1),
        (("graph", "--f", F4, "--depth", "2"), 15),
    ],
)
def test_one_division_per_positive_level(capsys, monkeypatch, tmp_path, argv, divisions):
    monkeypatch.chdir(tmp_path)
    calls = count_calls(monkeypatch, laurent.divide_exact)
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == divisions


@pytest.mark.parametrize(
    "argv,changes",
    [
        (("mutate", *F3_MUTATION), 0),
        (("check", *F3_MUTATION), 1),
        (("family", *F3_MUTATION), 2),
        (("verify", *F3_MUTATION), 2),
        (("graph", "--f", F4, "--depth", "2"), 0),
    ],
)
def test_frame_changes_only_in_the_family(capsys, monkeypatch, argv, changes):
    # Mutations read their levels off the ambient exponents; only the
    # family's own coordinates move frames: f once, and the mutated
    # polynomial once, shared by Delta_0^0 and the cone match. The spec
    # transports by its own inverse, so no other change of variables runs.
    calls = []
    transport = MutationSpec.to_adapted
    monkeypatch.setattr(MutationSpec, "to_adapted", lambda spec, f: calls.append(f) or transport(spec, f))
    others = count_calls(monkeypatch, laurent.act_unimodular)
    assert run(capsys, *argv)[0] == 0
    assert (len(calls), len(others)) == (changes, 0)


def test_verify_svg_builds_no_extra_newton_polytopes(capsys, monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, laurent.newton_polytope)
    run(capsys, "verify", *F3_MUTATION)
    plain = len(calls)
    run(capsys, "verify", *F3_MUTATION, "--svg", str(tmp_path / "v.svg"))
    assert len(calls) - plain <= plain


def test_verify_svg_draws_the_family_it_built(capsys, monkeypatch, tmp_path):
    # The drawing takes the slices the family construction made: no hull
    # runs again, and the file is the one family --svg writes.
    calls = count_calls(monkeypatch, polyhedra.hull)
    assert run(capsys, "verify", *F3_MUTATION)[0] == 0
    plain = len(calls)
    assert run(capsys, "verify", *F3_MUTATION, "--svg", str(tmp_path / "v.svg"))[0] == 0
    assert len(calls) == 2 * plain
    assert run(capsys, "family", *F3_MUTATION, "--svg", str(tmp_path / "f.svg"))[0] == 0
    assert (tmp_path / "v.svg").read_bytes() == (tmp_path / "f.svg").read_bytes()


def test_family_svg_is_the_render_family_file(capsys, tmp_path):
    # The file is render_svg's drawing of the four slices, in order, and nothing more.
    assert run(capsys, "family", *F3_MUTATION, "--svg", str(tmp_path / "f.svg"))[0] == 0
    fd = build_family(parse(F3), MutationSpec.from_direction((0, 1), parse("1 + x", rank=2)))
    slices = [("Delta_0", fd.delta0), ("Delta_inf", fd.delta_inf), ("Delta_0^0", fd.delta00), ("Delta_0^1", fd.delta01)]
    assert (tmp_path / "f.svg").read_text() == render_svg(slices)


@pytest.mark.parametrize(
    "argv",
    [("newton", "--f", F3), ("mutate", *F3_MUTATION), ("family", *F3_MUTATION), ("verify", *F3_MUTATION)],
    ids=["newton", "mutate", "family", "verify"],
)
def test_payload_names_the_svg_exactly_when_asked(capsys, tmp_path, argv):
    path = tmp_path / "out.svg"
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0 and "svg" not in payload and not path.exists()
    code, drawn, _ = run_json(capsys, *argv, "--svg", str(path))
    assert code == 0 and drawn.pop("svg") == str(path)
    assert drawn == payload
    assert path.read_text().startswith('<?xml version="1.0"')


RANK3_MUTATION = ("--f", "x + y + z + x*z + x^-1*y^-1*z^-1", "--divide", "z", "--by", "1 + x")


@pytest.mark.parametrize(
    "argv",
    [
        ("newton", "--f", "x + y + z", "--svg", "{out}"),
        ("newton", "--f", "x + x^-1", "--svg", "{out}"),
        ("mutate", *RANK3_MUTATION, "--svg", "{out}"),
        ("family", *RANK3_MUTATION, "--svg", "{out}"),
        ("verify", *RANK3_MUTATION, "--svg", "{out}"),
    ],
    ids=["newton", "newton_rank1", "mutate", "family", "verify"],
)
def test_svg_of_a_polynomial_not_of_rank_2_is_a_usage_error(capsys, monkeypatch, tmp_path, argv):
    # Refused once the polynomial is read, before any work and any file.
    for name in ("newton_polytope", "is_mutation", "build_family", "verify_main_theorem", "render_svg"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("ran before the rank check"))
    path = tmp_path / "out.svg"
    code, out, err = run(capsys, *[str(path) if a == "{out}" else a for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("usage error: SVG drawings are rank-2 only, got a polynomial of rank ")
    assert not path.exists()


def test_verify_svg_is_null_when_the_hypotheses_fail(capsys, tmp_path):
    # No family is built, so nothing is drawn, and the payload says so.
    argv = ("verify", "--f", "x + y", "--divide", "y", "--by", "1 + x")
    path = tmp_path / "v.svg"
    code, payload, _ = run_json(capsys, *argv)
    assert code == 1 and "svg" not in payload
    code, drawn, _ = run_json(capsys, *argv, "--svg", str(path))
    assert code == 1 and "svg" in drawn and drawn.pop("svg") is None
    assert drawn == payload
    assert not path.exists()


def test_mutate_formats_each_polynomial_once(capsys, monkeypatch):
    # f, the divisor inside the spec, and the mutated polynomial; the
    # failure context, the payload and the summary share those strings.
    calls = count_calls(monkeypatch, laurent.to_string)
    assert run(capsys, "mutate", *F3_MUTATION, "--pretty")[0] == 0
    assert len(calls) == 3


def test_plain_mutate_builds_no_newton_polytopes(capsys, monkeypatch, tmp_path):
    # Only --svg hulls: f and the mutated polynomial, for the drawing.
    built = []
    monkeypatch.setattr(cli, "newton_polytope",lambda f: built.append(f) or laurent.newton_polytope(f))
    assert run(capsys, "mutate", *F3_MUTATION)[0] == 0
    assert built == []
    assert run(capsys, "mutate", *F3_MUTATION, "--svg", str(tmp_path / "m.svg"))[0] == 0
    assert len(built) == 2


def test_verify_hulls_each_support_once(capsys, monkeypatch):
    # Delta(f) and Delta(mutated) once each, kept as the cones over them
    # that the family slices; the division takes none.
    polytopes = count_calls(monkeypatch, laurent.newton_polytope)
    assert run(capsys, "verify", *F3_MUTATION)[0] == 0
    assert len(polytopes) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("check", *F3_MUTATION),
        ("mutate", *F3_MUTATION),
        ("family", *F3_MUTATION),
        ("verify", *F3_MUTATION),
        ("verify", *F3_MUTATION, "--svg", "v.svg"),
        ("mutate", *F3_MUTATION, "--svg", "m.svg"),
    ],
)
def test_one_basis_inversion_per_spec(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    calls = count_calls(monkeypatch, exactlat.inverse_unimodular)
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == 1


def test_options_do_not_leak_between_calls(capsys, monkeypatch, tmp_path):
    # Every main call parses with the one parser built for the process.
    monkeypatch.chdir(tmp_path)
    assert run_json(capsys, "mutate", *F3_MUTATION, "--svg", "m.svg")[1]["svg"] == "m.svg"
    assert "svg" not in run_json(capsys, "mutate", *F3_MUTATION)[1]
    kmaxes = []
    real = cli.verify_main_theorem
    monkeypatch.setattr(cli, "verify_main_theorem", lambda f, spec, kmax: kmaxes.append(kmax) or real(f, spec, kmax=kmax))
    assert run(capsys, "verify", *F3_MUTATION, "--kmax", "3")[0] == 0
    assert run(capsys, "verify", *F3_MUTATION)[0] == 0
    assert kmaxes == [3, 6]
    assert cli.build_parser() is cli.build_parser()
