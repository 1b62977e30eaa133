"""Command-line front end.

Subcommands take a polynomial (``--f`` inline or ``--file``, one
polynomial per line with ``#`` comments, first entry used) and mutation
data (``--divide VAR`` naming the divided variable, or the covector
form ``--u "0,1"``, plus ``--by`` for the divisor). Output is JSON on
stdout; ``--pretty`` prepends a short human summary and indents.

Exit codes: 0 success, 1 domain failure (reported as structured JSON on
stdout), 2 usage or parse errors (message on stderr). Exit 1 comes only
from a failed verdict or a :class:`~laumut.exactlat.DomainError`; any
other exception is a bug, and leaves a traceback with nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache
from typing import Callable, Optional, Sequence

from .deformation import FamilyData, build_family, check_hypotheses, verify_main_theorem
from .exactlat import DomainError, content, dot, unit_vector
from .laurent import (
    LaurentPolynomial,
    ParseError,
    newton_polytope,
    parse,
    to_string,
    variable_names,
)
from .mutation import MutationSpec, is_mutation, polygon_facets
from .mutgraph import explore_graph
from .render import render_svg
from ._version import __version__


class UsageError(ValueError):
    pass


def _read_file_polynomial(path: str) -> LaurentPolynomial:
    """The first polynomial of a file, past blank lines and ``#`` comments; a parse error names its line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise UsageError(f"cannot read {path}: not UTF-8 text")
    for number, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].rstrip()
        if body:
            try:
                return parse(body)
            except ParseError as exc:
                exc.args = (f"line {number} of {path}: {exc}",)
                exc.payload["error"] = exc.args[0]
                raise
    raise UsageError(f"no polynomial found in {path}")


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}")


def _load_polynomial(args, svg: Optional[str] = None) -> LaurentPolynomial:
    """The polynomial of ``--f`` or ``--file``. Given the path of an SVG to
    draw, a polynomial of rank other than 2 is a usage error before any work."""
    if args.poly is not None and args.file is not None:
        raise UsageError("give --f or --file, not both")
    if args.poly is None and args.file is None:
        raise UsageError("a polynomial is required (--f or --file)")
    f = parse(args.poly) if args.poly is not None else _read_file_polynomial(args.file)
    if svg is not None and f.rank != 2:
        raise UsageError(f"SVG drawings are rank-2 only, got a polynomial of rank {f.rank}")
    return f


def _mutation_spec(f: LaurentPolynomial, args) -> MutationSpec:
    if args.by is None:
        raise UsageError("a divisor is required (--by)")
    if args.u is not None:
        # ASCII digits only, as in the polynomial syntax; int() alone takes any script's digits and "_".
        if not re.fullmatch(r" *-?[0-9]+ *(?:, *-?[0-9]+ *)*", args.u):
            raise UsageError(f"--u must be a comma-separated integer vector, got {args.u!r}")
        try:
            direction = tuple(int(part) for part in args.u.split(","))
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            raise UsageError("--u has an entry too long to read") from None
        if len(direction) != f.rank:
            raise UsageError(f"--u has length {len(direction)}, expected {f.rank}")
        if content(direction) != 1:
            raise UsageError(f"--u must be a primitive covector (entries with gcd 1), got {args.u!r}")
    elif args.divide is not None:
        names = variable_names(f.rank)
        if args.divide not in names:
            raise UsageError(f"--divide must name one of {', '.join(names)}")
        direction = unit_vector(f.rank, names.index(args.divide))
    else:
        raise UsageError("a direction is required (--divide or --u)")
    divisor = parse(args.by, rank=f.rank)
    if divisor.is_zero():
        raise UsageError(f"--by must be a nonzero polynomial, got {args.by!r}")
    if any(dot(direction, e) for e in divisor.support()):
        raise UsageError(f"--by must not involve the divided direction: every term of {args.by!r} must have level 0")
    return MutationSpec.from_direction(direction, divisor)


def _mutated_or_fail(f: LaurentPolynomial, spec: MutationSpec, context: dict) -> LaurentPolynomial:
    ok, report = is_mutation(f, spec)
    if not ok:
        raise DomainError("not a mutation: some positive-level slice is not divisible", **context, report=report.to_dict())
    return report.mutated


def _family_items(fd: FamilyData) -> list:
    """The four family slices to draw, labelled."""
    return [("Delta_0", fd.delta0), ("Delta_inf", fd.delta_inf), ("Delta_0^0", fd.delta00), ("Delta_0^1", fd.delta01)]


def _attach_svg(args, payload: dict, items: Callable[[], list]) -> None:
    """With ``--svg``, draw ``items()`` there and name the file in the payload; without it, build nothing."""
    if args.svg is not None:
        _write_file(args.svg, render_svg(items()))
        payload["svg"] = args.svg


# -- subcommand handlers -------------------------------------------------------


def _cmd_newton(args):
    f = _load_polynomial(args, args.svg)
    p = newton_polytope(f)
    payload = {"polynomial": to_string(f), "newton": p.to_dict()}
    _attach_svg(args, payload, lambda: [("Delta(f)", p)])
    summary = [f"newton polytope: {len(p.vertices)} vertices, {len(p.rays)} rays"]
    return payload, 0, summary


def _cmd_facets(args):
    f = _load_polynomial(args)
    p = newton_polytope(f)
    facets = polygon_facets(p)
    payload = {"polynomial": to_string(f), "facets": [i.to_dict() for i in facets]}
    summary = [f"{len(facets)} facets"] + [
        f"  facet {i.index}: direction ({','.join(str(c) for c in i.direction)})" for i in facets
    ]
    return payload, 0, summary


def _cmd_check(args):
    f = _load_polynomial(args)
    spec = _mutation_spec(f, args)
    hyp = check_hypotheses(f, spec)
    payload = {
        "polynomial": to_string(f),
        "spec": spec.to_dict(),
        "hypothesis_failures": hyp.failures,
        "details": hyp.details,
    }
    summary = [
        f"is mutation: {hyp.report.all_divisible}",
        f"hypothesis failures: {len(hyp.failures)}",
    ] + [f"  {msg}" for msg in hyp.failures]
    return payload, (1 if hyp.failures else 0), summary


def _cmd_mutate(args):
    f = _load_polynomial(args, args.svg)
    spec = _mutation_spec(f, args)
    context = {"polynomial": to_string(f), "spec": spec.to_dict()}
    g = _mutated_or_fail(f, spec, context)
    mutated = to_string(g)
    payload = {**context, "mutated": mutated, "support": [[str(c) for c in e] for e in g.support()]}
    _attach_svg(args, payload, lambda: [("Delta(f)", newton_polytope(f)), ("Delta(mutated)", newton_polytope(g))])
    return payload, 0, [f"mutated: {mutated}"]


def _cmd_family(args):
    f = _load_polynomial(args, args.svg)
    spec = _mutation_spec(f, args)
    fd = build_family(f, spec)
    payload = fd.to_dict()
    _attach_svg(args, payload, lambda: _family_items(fd))
    summary = [
        f"general fiber toric: {payload['general_fiber_is_toric']}",
        f"sigma_infinity rays: {payload['sigma_infinity']['rays']}",
    ]
    return payload, 0, summary


def _cmd_verify(args):
    if args.kmax < 1:
        raise UsageError("--kmax must be at least 1")
    f = _load_polynomial(args, args.svg)
    spec = _mutation_spec(f, args)
    report = verify_main_theorem(f, spec, kmax=args.kmax)
    payload = report.to_dict()
    if report.family is not None:
        _attach_svg(args, payload, lambda: _family_items(report.family))
    elif args.svg is not None:
        payload["svg"] = None  # the hypotheses failed: there is no family to draw
    summary = [f"passed: {payload['passed']}"] + [
        f"  {c.name}: {c.status}" for c in report.checks
    ]
    return payload, (0 if payload["passed"] else 1), summary


def _cmd_graph(args):
    if args.depth < 0:
        raise UsageError("--depth must be nonnegative")
    f = _load_polynomial(args)
    graph = explore_graph(f, args.depth)
    payload = graph.to_dict()
    if args.output is not None:
        _write_file(args.output, json.dumps(payload, indent=2) + "\n")
    if args.dot is not None:
        _write_file(args.dot, graph.to_dot())
    summary = [
        f"nodes: {len(payload['nodes'])}, edges: {len(payload['edges'])}, "
        f"failures: {len(payload['failures'])}, merges: {len(payload['merges'])}"
    ]
    return payload, 0, summary


def _cmd_render(args):
    f = _load_polynomial(args, args.output)
    if args.family:
        fd = build_family(f, _mutation_spec(f, args))
        items = _family_items(fd)
    else:
        items = [("Delta(f)", newton_polytope(f))]
        if any(a is not None for a in (args.divide, args.u, args.by)):  # a direction needs its divisor, as in mutate
            g = _mutated_or_fail(f, _mutation_spec(f, args), {})
            items.append(("Delta(mutated)", newton_polytope(g)))
    _write_file(args.output, render_svg(items))
    payload = {"path": args.output, "labels": [label for label, _ in items]}
    return payload, 0, [f"wrote {args.output}"]


# -- argument plumbing ----------------------------------------------------------


# One row per subcommand, in help order: name, help, handler, whether it
# takes --divide/--u/--by, and its own options as (flags, kwargs) pairs.
_SUBCOMMANDS = (
    ("newton", "Newton polytope of a polynomial", _cmd_newton, False, [
        (["--svg"], dict(help="also draw the polytope to this SVG path"))]),
    ("facets", "list the facets of the Newton polygon", _cmd_facets, False, []),
    ("check", "check mutation and family hypotheses", _cmd_check, True, []),
    ("mutate", "apply a mutation", _cmd_mutate, True, [
        (["--svg"], dict(help="draw input and output polytopes to this SVG path"))]),
    ("family", "build the flat family data for a mutation", _cmd_family, True, [
        (["--svg"], dict(help="draw the family slices to this SVG path"))]),
    ("verify", "verify the combinatorial consequences of a mutation", _cmd_verify, True, [
        (["--kmax"], dict(type=int, default=6, help="dual lattice count horizon (default 6)")),
        (["--svg"], dict(help="draw the family slices to this SVG path"))]),
    ("graph", "explore the mutation graph of the Newton polygon", _cmd_graph, False, [
        (["--depth"], dict(type=int, required=True, help="breadth-first depth")),
        (["-o", "--output"], dict(help="also write the JSON graph to this path")),
        (["--dot"], dict(help="also write a DOT rendering to this path"))]),
    ("render", "draw polytopes or family slices as SVG", _cmd_render, True, [
        (["--family"], dict(action="store_true", help="draw the four family slices")),
        (["-o", "--output"], dict(required=True, help="SVG output path"))]),
)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later
    ones in the process: building it costs more than parsing a short
    command line, and each ``parse_args`` starts from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="laumut",
        description="Mutations of Laurent polynomials and the toric families they glue.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, summary, handler, mutation, options in _SUBCOMMANDS:
        sub = subs.add_parser(name, help=summary)
        sub.add_argument("--f", dest="poly", help="polynomial text")
        sub.add_argument("--file", help="file with one polynomial per line, # comments")
        sub.add_argument("--pretty", action="store_true", help="add a human summary and indent the JSON")
        if mutation:
            sub.add_argument("--divide", help="name of the divided variable")
            sub.add_argument("--u", help="divided direction as a comma-separated covector")
            sub.add_argument("--by", help="divisor polynomial (in the undivided variables)")
        for flags, kwargs in options:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(handler=handler)
    return parser


def _emit(payload: dict, pretty: bool, summary: list[str]) -> None:
    if pretty:
        for line in summary:
            print(line)
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload))


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--u -1,0`` as ``--u=-1,0``, and likewise a ``--f`` or ``--by``
    value that starts with a minus sign then a digit or x, y or z: argparse
    reads a lone value that starts with a minus sign and is not a plain
    number as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--f", "--by", "--u") and re.match(r"-[0-9xyz]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code, summary = args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        _emit(exc.payload, args.pretty, [f"failed: {exc}"])
        return 1
    _emit(payload, args.pretty, summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
