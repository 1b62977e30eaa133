import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import WORKED_POLYGONS, fraction_vertex_cycle, normalized_volume_2d, random_unimodular, span_rank_dim
from laumut import laurent, mutation, mutgraph, polyhedra
from laumut.exactlat import mat_vec
from laumut.laurent import newton_polytope, parse
from laumut.mutgraph import (
    canonical_form,
    certificate_between,
    explore_graph,
    mutation_neighbors,
    validate_mutable_polygon,
)
from laumut.polyhedra import dual_ehrhart_counts, hull, lattice_cycle

F = Fraction


def P(*pts):
    return hull([tuple(F(c) for c in v) for v in pts])


DIAMOND = P((1, 0), (0, 1), (-1, 0), (0, -1))
# the image of the diamond under [[1,0],[1,1]]
PARALLELOGRAM = P((1, 1), (0, 1), (-1, -1), (0, -1))
SQUARE = P((1, 1), (1, -1), (-1, 1), (-1, -1))
FPRIME = "x^-1 + x^-1*y + y + y^-1 + x*y^-1"


def apply_matrix(p, m):
    return hull([tuple(F(c) for c in mat_vec(m, (int(a), int(b)))) for a, b in p.vertices])


def test_diamond_and_parallelogram_share_a_form():
    fd, md = canonical_form(DIAMOND)
    fp, mp = canonical_form(PARALLELOGRAM)
    assert fd == fp
    cert = certificate_between(PARALLELOGRAM, mp, DIAMOND, md)
    image = {mat_vec(cert, (int(a), int(b))) for a, b in PARALLELOGRAM.vertices}
    assert image == {(int(a), int(b)) for a, b in DIAMOND.vertices}
    # the defining matrix carries the diamond the other way
    forward = {mat_vec(((1, 0), (1, 1)), (int(a), int(b))) for a, b in DIAMOND.vertices}
    assert forward == {(int(a), int(b)) for a, b in PARALLELOGRAM.vertices}


def test_square_is_a_different_form():
    fs, _ = canonical_form(SQUARE)
    fd, _ = canonical_form(DIAMOND)
    assert fs != fd


def test_canonical_form_is_unimodular_invariant():
    rng = random.Random(43)
    for base in (DIAMOND, SQUARE, newton_polytope(parse(FPRIME))):
        form, _ = canonical_form(base)
        for _ in range(25):
            moved = apply_matrix(base, random_unimodular(rng, 2))
            mform, mmap = canonical_form(moved)
            assert mform == form
            image = {mat_vec(mmap, (int(a), int(b))) for a, b in moved.vertices}
            assert image == set(form.vertices)


def _lattice_polygon(rng, i):
    """Integer vertices of the i-th test polygon: points on a parabola
    (exactly 3..12 vertices), a triangle, the hull of random points, or a
    zonogon (sum of 2..6 segments)."""
    kind = i % 4
    if kind == 0:
        xs = rng.sample(range(-7, 8), 3 + (i // 4) % 10)
        return [(x, x * x) for x in xs]
    if kind == 1:
        while True:
            pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3)]
            (a, b), (c, d), (e, f) = pts
            if (c - a) * (f - b) != (d - b) * (e - a):
                return pts
    if kind == 2:
        return [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(4, 14))]
    dirs = set()
    while len(dirs) < 2 + (i // 4) % 5:
        v = (rng.randint(-3, 3), rng.randint(0, 3))
        g = math.gcd(*v)
        if g and v[1] + (v[0] > 0) > 0:
            dirs.add((v[0] // g, v[1] // g))
    return [
        tuple(sum(d[k] for d, on in zip(sorted(dirs), mask) if on) for k in range(2))
        for mask in itertools.product((0, 1), repeat=len(dirs))
    ]


def test_canonical_form_matches_mat_vec_oracle(canonical_form_oracle):
    """Form and map, structurally, against the generic mat_vec composition on
    320 lattice polygons, each scaled (lattice points inside edges), shifted
    (origin often outside) and moved by a unimodular map of det +/-1."""
    rng = random.Random(20260418)
    sizes, dets, scaled, outside, checked = set(), set(), 0, 0, 0
    for i in range(320):
        s = rng.choice((1, 1, 2, 3))
        shift = (rng.randint(-9, 9), rng.randint(-9, 9))
        m = random_unimodular(rng, 2)
        if rng.random() < 0.5:
            m = (m[0], tuple(-c for c in m[1]))
        pts = [mat_vec(m, (s * x + shift[0], s * y + shift[1])) for x, y in _lattice_polygon(rng, i)]
        p = hull(pts)
        if span_rank_dim(p) != 2:
            continue
        got = canonical_form(p)
        assert got == canonical_form_oracle(p)
        cycle = lattice_cycle(p)
        assert cycle == [tuple(int(c) for c in v) for v in fraction_vertex_cycle(p)]
        assert all(type(c) is int for v in cycle for c in v)
        assert all(type(c) is int for rows in (got[0].vertices, got[1]) for row in rows for c in row)
        moved = apply_matrix(p, random_unimodular(rng, 2))
        assert canonical_form(moved)[0] == got[0]
        sizes.add(len(p.vertices))
        dets.add(m[0][0] * m[1][1] - m[0][1] * m[1][0])
        scaled += s > 1
        outside += not p.contains((0, 0))
        checked += 1
    assert checked >= 300
    assert sizes >= set(range(3, 13)) and dets == {1, -1}
    assert scaled >= 100 and outside >= 100


def test_canonical_form_preconditions():
    with pytest.raises(ValueError):
        canonical_form(hull([(F(0), F(0)), (F(1), F(0))]))
    with pytest.raises(ValueError):
        canonical_form(hull([(F(0), F(0))], [(1, 0)]))
    with pytest.raises(ValueError):
        canonical_form(hull([(F(1, 2), F(0)), (F(3, 2), F(0)), (F(1, 2), F(1))]))
    with pytest.raises(ValueError):
        canonical_form(hull([(F(0), F(0), F(0)), (F(1), F(0), F(0))]))


def test_validate_mutable_polygon():
    validate_mutable_polygon(DIAMOND)
    for polygon, message in [
        (P((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)), "mutation graphs are defined for rank 2"),
        (hull([(F(-1), F(-1))], [(1, 0), (0, 1)]), "polygon must contain the origin in its interior"),  # unbounded
        (P((-1, 0), (1, 0)), "polygon must contain the origin in its interior"),  # segment
        (P((0, 0), (1, 0), (0, 1)), "polygon must contain the origin in its interior"),  # origin on boundary
        (P((1, 1), (2, 1), (1, 2)), "polygon must contain the origin in its interior"),  # origin outside
        (P((-1, -1), (F(1, 2), 1), (1, 0)), "polygon must be a lattice polygon"),
        (P((2, 0), (-2, 2), (0, -2)), "polygon vertices must be primitive"),
        # Both faults at once: the lattice check comes first.
        (P((-2, -2), (F(1, 2), 1), (1, 0)), "polygon must be a lattice polygon"),
    ]:
        with pytest.raises(ValueError) as info:
            validate_mutable_polygon(polygon)
        assert str(info.value) == message


REFUSED_CERTIFICATE = """
import sys
from laumut.mutgraph import canonical_form, certificate_between
from laumut.polyhedra import hull

square = hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
diamond = hull([(1, 0), (0, 1), (-1, 0), (0, -1)])
try:
    certificate_between(square, canonical_form(square)[1], diamond, canonical_form(diamond)[1])
except AssertionError as exc:
    print("refused:", exc, sys.flags.optimize)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_certificate_between_refuses_maps_of_different_forms(flags):
    # The square and the diamond have different forms, so no composite of
    # their canonical maps carries one vertex set onto the other, and the
    # refusal is a raise, not an assert that -O strips.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, *flags, "-c", REFUSED_CERTIFICATE], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"refused: canonical maps do not induce a vertex bijection {len(flags)}\n"
    with pytest.raises(AssertionError, match="^canonical maps do not induce a vertex bijection$"):
        certificate_between(SQUARE, canonical_form(SQUARE)[1], DIAMOND, canonical_form(DIAMOND)[1])
    with pytest.raises(AssertionError, match="^canonical maps do not induce a vertex bijection$"):
        certificate_between(DIAMOND, canonical_form(DIAMOND)[1], SQUARE, canonical_form(SQUARE)[1])


def test_mutation_neighbors_enumerates_facets_once(monkeypatch):
    calls = []
    facets = mutation.polygon_facets

    def counted(p):
        calls.append(p)
        return facets(p)

    monkeypatch.setattr(mutgraph, "polygon_facets", counted)
    monkeypatch.setattr(mutation, "polygon_facets", counted)
    assert len(mutation_neighbors(parse(FPRIME))) == 5
    assert len(calls) == 1


def test_explore_hulls_each_polygon_once(monkeypatch):
    # The root once, then each successful edge's mutated polynomial once;
    # neighbours and merges reuse the polygon kept for every node. Only the
    # graph's own calls count; divisions take none (divide_exact bounds its
    # quotient by a coordinate box).
    planar = []
    real = laurent.newton_polytope

    def counted(f):
        if f.rank == 2:
            planar.append(f)
        return real(f)

    monkeypatch.setattr(mutgraph, "newton_polytope", counted)
    graph = explore_graph(parse(FPRIME), 3)
    assert len(planar) == 1 + len(graph.edges) == 28
    assert graph.merges


def test_explore_chains_only_int_points(monkeypatch):
    # Each Newton polygon is chained from its int support, and canonical
    # forms and facets from the hull's vertices converted to ints once.
    chained = []
    chain = polyhedra.convex_cycle

    def counted(points):
        chained.append(points)
        return chain(points)

    monkeypatch.setattr(polyhedra, "convex_cycle", counted)
    explore_graph(parse(FPRIME), 3)
    assert len(chained) == 62
    assert all(type(c) is int for points in chained for point in points for c in point)


def test_mutation_neighbors_takes_a_known_polygon():
    f = parse(FPRIME)
    assert mutation_neighbors(f, newton_polytope(f)) == mutation_neighbors(f)


def test_mutation_neighbors_of_worked_example():
    outcomes = mutation_neighbors(parse(FPRIME))
    assert [o.succeeded for o in outcomes] == [True] * 5
    polys = [newton_polytope(o.mutated) for o in outcomes]
    expected = P((-1, 0), (-1, 1), (0, -1), (2, -1))
    assert any(q == expected for q in polys)


def test_neighbors_reach_the_diamond_class():
    f = parse("x^-1*y + 2*y + x*y + y^-1")
    target, _ = canonical_form(DIAMOND)
    found = []
    for o in mutation_neighbors(f):
        if o.succeeded:
            form, _ = canonical_form(newton_polytope(o.mutated))
            found.append(form)
    assert target in found


def test_failure_is_an_outcome_not_an_error():
    outcomes = mutation_neighbors(parse("x^-1*y^2 + 3*y^2 + x*y^2 + y^-1"))
    by_index = {o.facet.index: o for o in outcomes}
    assert not by_index[2].succeeded
    assert by_index[2].failing_levels == (2,)
    assert by_index[2].mutated is None
    fixed = mutation_neighbors(parse("x^-1*y^2 + 2*y^2 + x*y^2 + y^-1"))
    assert all(o.succeeded for o in fixed)


def test_explore_depth_zero():
    g = explore_graph(parse(FPRIME), 0)
    assert len(g.nodes) == 1
    assert g.edges == [] and g.failures == [] and g.merges == []
    (node,) = g.nodes.values()
    assert node.depth == 0


def test_explore_depth_one_joins_both_forms():
    f = parse("x^-1*y + 2*y + x*y + y^-1")
    g = explore_graph(f, 1)
    start, _ = canonical_form(newton_polytope(f))
    target, _ = canonical_form(DIAMOND)
    assert start.key() in g.nodes and target.key() in g.nodes
    assert any(e.source == start.key() and e.target == target.key() for e in g.edges)


def test_explore_rediscovers_origin_from_neighbor():
    f = parse("x^-1*y + 2*y + x*y + y^-1")
    start, _ = canonical_form(newton_polytope(f))
    g = explore_graph(f, 1)
    neighbor_key = next(e.target for e in g.edges if e.target != start.key())
    back = explore_graph(g.nodes[neighbor_key].representative, 1)
    assert start.key() in back.nodes


def test_explore_worked_example_counts():
    g = explore_graph(parse(FPRIME), 2)
    assert len(g.nodes) == 6
    assert len(g.edges) == 14
    assert len(g.failures) == 0
    assert len(g.merges) == 9
    g3 = explore_graph(parse(FPRIME), 3)
    assert len(g3.nodes) == 14 and len(g3.edges) == 27


def test_explore_depth2_byte_identical():
    f = parse(FPRIME)
    a = json.dumps(explore_graph(f, 2).to_dict(), sort_keys=True)
    b = json.dumps(explore_graph(f, 2).to_dict(), sort_keys=True)
    assert a == b


def test_records_failures_during_exploration():
    g = explore_graph(parse("x^-1*y^2 + 3*y^2 + x*y^2 + y^-1"), 1)
    assert any(r.failing_levels == (2,) for r in g.failures)


def test_explore_validates_each_expanded_polygon_not_each_arrival(monkeypatch):
    # Facet mutations keep Fano polygons Fano, so the graph validates only
    # the start polygon itself; mutation_neighbors validates each polygon it
    # expands, so a probe refusing all but the start one raises at depth 2.
    start = newton_polytope(parse(FPRIME))
    real = mutgraph.validate_mutable_polygon

    def refuse_all_but_start(p):
        if p != start:
            raise ValueError("probe")
        real(p)

    monkeypatch.setattr(mutgraph, "validate_mutable_polygon", refuse_all_but_start)
    g = explore_graph(parse(FPRIME), 1)
    assert len(g.edges) == 5 and g.failures == []
    with pytest.raises(ValueError, match="^probe$") as raised:
        explore_graph(parse(FPRIME), 2)
    assert [e.name for e in raised.traceback][-3:] == ["explore_graph", "mutation_neighbors", "refuse_all_but_start"]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _monotone_chain(points):
    """Counter-clockwise vertices of the hull of int points, none collinear."""
    pts = sorted(set(points))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(pts[::-1])


def _is_fano(verts):
    """Primitive vertices and the origin strictly inside (verts counter-clockwise)."""
    edges = zip(verts, verts[1:] + verts[:1])
    primitive = all(math.gcd(*v) == 1 for v in verts)
    return len(verts) >= 3 and primitive and all(_cross(a, b, (0, 0)) > 0 for a, b in edges)


def _edge_mutations(verts):
    """Each edge's combinatorial mutation (Akhtar-Coates-Galkin-Kasprzyk,
    arXiv:1212.1785), None where it is undefined. The edge's outward normal
    u gives the levels and t is its lex-positive primitive direction; level
    k > 0 loses k*t from its lattice slice, level -k gains k*t."""
    xs, ys = [x for x, _ in verts], [y for _, y in verts]
    edges = list(zip(verts, verts[1:] + verts[:1]))
    inside = [
        (x, y)
        for x in range(min(xs), max(xs) + 1)
        for y in range(min(ys), max(ys) + 1)
        if all(_cross(a, b, (x, y)) >= 0 for a, b in edges)
    ]
    out = []
    for (ax, ay), (bx, by) in edges:
        g = math.gcd(bx - ax, by - ay)
        t = ((bx - ax) // g, (by - ay) // g)
        u = (t[1], -t[0])
        t = max(t, (-t[0], -t[1]))
        slices = {}
        for p in inside:
            slices.setdefault(u[0] * p[0] + u[1] * p[1], []).append(p)
        ends = []
        for k, pts in slices.items():
            lo, hi = min(pts), max(pts)  # the slice runs along t, which is lex-positive
            if k > len(pts) - 1:
                ends = None
                break
            ends += [lo, (hi[0] - k * t[0], hi[1] - k * t[1])]
        out.append(ends and _monotone_chain(ends))
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_facet_mutations_keep_fano_polygons_fano(seed):
    # A literature oracle sharing no code with mutation or polyhedra: random
    # Fano polygons, hulls of primitive int points in [-3, 3]^2, and every
    # defined combinatorial edge mutation of each is again Fano.
    rng = random.Random(1212 + seed)
    primitive = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if math.gcd(x, y) == 1]
    fano = defined = 0
    for _ in range(4000):
        verts = _monotone_chain(rng.sample(primitive, rng.randint(3, 8)))
        if not _is_fano(verts):
            continue
        fano += 1
        for mutated in _edge_mutations(verts):
            if mutated is not None:
                defined += 1
                assert _is_fano(mutated), (verts, mutated)
    assert fano > 2500 and defined > 4000


@pytest.mark.parametrize("text", WORKED_POLYGONS)
def test_every_graph_node_polygon_is_mutable(text):
    # explore_graph validates only the start polygon and relies on this.
    for node in explore_graph(parse(text), 3).nodes.values():
        validate_mutable_polygon(newton_polytope(node.representative))


def test_merge_certificates_verify():
    g = explore_graph(parse(FPRIME), 2)
    assert len(g.merges) == 9
    for m in g.merges:
        assert m.node in g.nodes and m.arrived_from in g.nodes
    # every node transform carries its representative onto the stored cycle,
    # which is the identity the merge certificates compose through
    for node in g.nodes.values():
        rep_poly = newton_polytope(node.representative)
        image = {mat_vec(node.transform, (int(a), int(b))) for a, b in rep_poly.vertices}
        assert image == set(node.vertices)


def test_dual_counts_constant_across_graph():
    g = explore_graph(parse(FPRIME), 3)
    counts = {
        tuple(dual_ehrhart_counts(hull([tuple(F(int(c)) for c in v) for v in n.vertices]), 6))
        for n in g.nodes.values()
    }
    assert counts == {(8, 22, 43, 71, 106, 148)}
    # normalized area is not an invariant: the classes genuinely differ
    vols = {
        normalized_volume_2d(hull([tuple(F(int(c)) for c in v) for v in n.vertices]))
        for n in g.nodes.values()
    }
    assert len(vols) > 1


def test_classical_periods_constant_across_graph(period_oracle):
    # Unlike the dual counts, the period reads every coefficient of every
    # node's representative; 100 terms bound the cost of f^4.
    g = explore_graph(parse(FPRIME), 3)
    assert len(g.nodes) == 14
    assert max(len(n.representative.terms) for n in g.nodes.values()) <= 100
    periods = {period_oracle(n.representative, 8) for n in g.nodes.values()}
    assert periods == {(1, 0, 4, 6, 36, 120, 490, 2100, 8260)}


def test_graph_dict_and_dot_shape():
    g = explore_graph(parse(FPRIME), 1)
    d = g.to_dict()
    assert d["depth"] == 1
    assert [n["key"] for n in d["nodes"]] == sorted(n["key"] for n in d["nodes"])
    for e in d["edges"]:
        assert e["source"] in g.nodes and e["target"] in g.nodes
    dot = g.to_dot()
    assert dot.startswith("digraph mutations {")
    assert dot.rstrip().endswith("}")
    for key in g.nodes:
        assert f'"{key}"' in dot


def test_explore_rejects_bad_inputs():
    with pytest.raises(ValueError):
        explore_graph(parse(FPRIME), -1)
    with pytest.raises(ValueError):
        explore_graph(parse("x + y"), 1)
