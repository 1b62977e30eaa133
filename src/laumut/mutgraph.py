"""Mutation graphs of lattice polygons.

Nodes are GL(2,Z)-classes of Newton polytopes, represented by a
canonical form: over every (vertex, adjacent edge) flag of the polygon,
in both orientations and with both determinant signs, build the
unimodular map sending the edge's primitive direction to e1 and
shearing the first off-axis image vertex into the fundamental strip
0 <= x < |y|; the canonical form is the lexicographically smallest
image vertex cycle. Two polygons get the same form iff some unimodular
map carries one onto the other, and the composite of the two canonical
maps is exactly such a map, kept as a merge certificate.

Exploration is breadth-first and deterministic; it records divisibility
failures and validates only the start polygon (arXiv:1212.1785).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from .exactlat import IntMat, IntVec, inverse_unimodular, mat_mul, mat_vec, xgcd
from .laurent import LaurentPolynomial, newton_polytope, to_string
from .mutation import (
    FacetInfo,
    MutationSpec,
    _facet_spec,
    is_mutation,
    polygon_facets,
    validate_mutable_polygon,
)
from .polyhedra import Polyhedron, lattice_cycle


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical vertex cycle of a polygon's unimodular class."""

    vertices: tuple[IntVec, ...]

    def key(self) -> str:
        return ";".join(f"{x},{y}" for x, y in self.vertices)


def canonical_form(p: Polyhedron) -> tuple[CanonicalForm, IntMat]:
    """Canonical form and a unimodular map carrying the lattice polygon p onto it."""
    cyc = lattice_cycle(p)
    m = len(cyc)
    best: Optional[tuple[IntVec, ...]] = None
    best_map: Optional[IntMat] = None
    for seq0 in (cyc, cyc[::-1]):
        for start in range(m):
            seq = seq0[start:] + seq0[:start]
            dx, dy = seq[1][0] - seq[0][0], seq[1][1] - seq[0][1]
            g = gcd(dx, dy)
            dx, dy = dx // g, dy // g
            _, alpha, beta = xgcd(dx, dy)
            xs = [alpha * x + beta * y for x, y in seq]
            for c, d in ((-dy, dx), (dy, -dx)):
                # Rows (alpha, beta), (c, d) send (dx, dy) to e1 with det +/-1; the shear
                # x += t*y then puts the first off-axis vertex in 0 <= x < |y|.
                ys = [c * x + d * y for x, y in seq]
                j = next(i for i, w in enumerate(ys) if w)
                x, y = xs[j], ys[j]
                t = (x % abs(y) - x) // y
                cand = tuple((u + t * w, w) for u, w in zip(xs, ys))
                if best is None or cand < best:
                    best = cand
                    best_map = ((alpha + t * c, beta + t * d), (c, d))
    assert best is not None and best_map is not None
    return CanonicalForm(best), best_map


def certificate_between(
    p: Polyhedron, p_map: IntMat, q: Polyhedron, q_map: IntMat
) -> IntMat:
    """Unimodular map carrying the lattice polygon p's vertex set onto q's,
    given canonical maps with equal forms. Verified before returning."""
    cert = mat_mul(inverse_unimodular(q_map), p_map)
    if {mat_vec(cert, g[1:]) for g in p.cone.rays} != {g[1:] for g in q.cone.rays}:
        raise AssertionError("canonical maps do not induce a vertex bijection")
    return cert


# -- neighbors and exploration --------------------------------------------------


@dataclass(frozen=True)
class NeighborOutcome:
    facet: FacetInfo
    spec: MutationSpec
    succeeded: bool
    mutated: Optional[LaurentPolynomial]
    failing_levels: tuple[int, ...]


def mutation_neighbors(f: LaurentPolynomial, p: Optional[Polyhedron] = None) -> list[NeighborOutcome]:
    """Attempt the standard mutation at every facet of Delta(f).

    ``p`` is Delta(f) when the caller already has it; it is hulled from
    f otherwise. Divisibility failures are outcomes, not errors;
    polygon-level precondition violations (origin, primitivity) raise
    DomainError.
    """
    if p is None:
        p = newton_polytope(f)
    validate_mutable_polygon(p)
    out = []
    for info in polygon_facets(p):
        spec = _facet_spec(info)
        ok, report = is_mutation(f, spec)
        out.append(NeighborOutcome(info, spec, ok, report.mutated, tuple(report.failing_levels())))
    return out


@dataclass(frozen=True)
class GraphNode:
    vertices: tuple[IntVec, ...]  # canonical cycle
    representative: LaurentPolynomial
    transform: IntMat  # maps Delta(representative) onto the canonical cycle
    depth: int
    polygon: Polyhedron = field(compare=False, repr=False)  # Delta(representative)


@dataclass(frozen=True)
class GraphEdge:
    source: str
    target: str
    facet_index: int
    direction: IntVec
    divisor: str


@dataclass(frozen=True)
class FailureRecord:
    node: str
    facet_index: int
    direction: IntVec
    reason: str
    failing_levels: tuple[int, ...]


@dataclass(frozen=True)
class MergeRecord:
    node: str
    arrived_from: str
    facet_index: int
    certificate: IntMat  # maps the rediscovered polytope onto the node representative's


@dataclass
class MutationGraph:
    depth: int
    nodes: dict[str, GraphNode] = field(default_factory=dict)
    edges: list[GraphEdge] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)
    merges: list[MergeRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Nodes sorted by key, without their transforms; each edge, failure
        and merge record as its own fields in order, with string entries in
        its vectors and matrices; and the frontier, the keys of the nodes at
        the last depth in discovery order."""

        def row(record, **shown) -> dict:
            return {**vars(record), **shown}

        return {
            "depth": self.depth,
            "nodes": [
                {
                    "key": key,
                    "vertices": [[str(c) for c in v] for v in n.vertices],
                    "representative": to_string(n.representative),
                    "depth": n.depth,
                }
                for key, n in sorted(self.nodes.items())
            ],
            "edges": [row(e, direction=[str(c) for c in e.direction]) for e in self.edges],
            "failures": [
                row(r, direction=[str(c) for c in r.direction], failing_levels=list(r.failing_levels))
                for r in self.failures
            ],
            "merges": [row(m, certificate=[[str(c) for c in v] for v in m.certificate]) for m in self.merges],
            "frontier": [key for key, n in self.nodes.items() if n.depth == self.depth],
        }

    def to_dot(self) -> str:
        lines = ["digraph mutations {", "  node [shape=box];"]
        for key, n in sorted(self.nodes.items()):
            label = " ".join(f"({x},{y})" for x, y in n.vertices)
            lines.append(f'  "{key}" [label="{label}"];')
        for e in self.edges:
            lines.append(f'  "{e.source}" -> "{e.target}" [label="facet {e.facet_index}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def explore_graph(f: LaurentPolynomial, depth: int) -> MutationGraph:
    """Breadth-first mutation closure up to the given depth.

    Nodes merge by canonical form; the first polynomial reaching a form
    becomes its representative and later arrivals leave a verified
    certificate. Only Delta(f) is validated: mutations keep Fano polygons
    Fano (arXiv:1212.1785). Output is deterministic for a fixed input.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    p0 = newton_polytope(f)
    validate_mutable_polygon(p0)
    graph = MutationGraph(depth)

    def arrive(g: LaurentPolynomial, q: Polyhedron, level: int) -> tuple[str, Optional[IntMat]]:
        form, qmap = canonical_form(q)
        key = form.key()
        if key in graph.nodes:
            node = graph.nodes[key]
            return key, certificate_between(q, qmap, node.polygon, node.transform)
        graph.nodes[key] = GraphNode(form.vertices, g, qmap, level, q)
        return key, None

    arrive(f, p0, 0)
    for level in range(depth):
        for key in [k for k, n in graph.nodes.items() if n.depth == level]:
            node = graph.nodes[key]
            for res in mutation_neighbors(node.representative, node.polygon):
                if not res.succeeded:
                    reason = "slice not divisible by the divisor power"
                    graph.failures.append(FailureRecord(key, res.facet.index, res.facet.direction, reason, res.failing_levels))
                    continue
                tkey, cert = arrive(res.mutated, newton_polytope(res.mutated), level + 1)
                if cert is not None:
                    graph.merges.append(MergeRecord(tkey, key, res.facet.index, cert))
                graph.edges.append(
                    GraphEdge(
                        key,
                        tkey,
                        res.facet.index,
                        res.facet.direction,
                        to_string(res.spec.divisor_in_ambient()),
                    )
                )
    return graph
