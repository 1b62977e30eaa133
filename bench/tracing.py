"""Spans and counters around laumut's public functions, installed from outside.

``Tracer.install`` wraps the functions listed in ``WRAPPED`` and rebinds
each wrapper in every ``laumut`` module that holds the original, since
``deformation``, ``mutgraph`` and ``cli`` import names with ``from ...
import``. A wrapper records one span per call in memory; ``write_spans``
writes them out once the run is over, one JSON list per line:
``[job index, span id, parent span id or -1, name, start_ns, end_ns]``
with ``time.perf_counter_ns`` readings. Self time is a span's duration minus the time its wrapped
child spans cover.

Counters read arguments and results after the wrapped call returns. Their
own time is taken out of every enclosing span, and tracing is paused while
they run, so a counter that calls back into laumut records no spans.

``exactlat`` helpers are not wrapped: ``dot`` alone runs millions of times
in one graph pass, so wrapping it would measure the wrapper. Their time
shows up as self time of their callers.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# (layer, qualified name); the layer is the laumut module that defines it.
WRAPPED = (
    ("polyhedra", "extreme_rays"),
    ("polyhedra", "hull"),
    ("polyhedra", "from_halfspaces"),
    ("polyhedra", "Cone.from_generators"),
    ("polyhedra", "minkowski_sum"),
    ("polyhedra", "dual_ehrhart_counts"),
    ("polyhedra", "is_admissible_pair"),
    ("laurent", "parse"),
    ("laurent", "newton_polytope"),
    ("laurent", "divide_exact"),
    ("laurent", "act_unimodular"),
    ("laurent", "LaurentPolynomial.__mul__"),
    ("laurent", "LaurentPolynomial.__pow__"),
    ("mutation", "is_mutation"),
    ("mutation", "apply_mutation"),
    ("deformation", "build_family"),
    ("deformation", "verify_main_theorem"),
    ("mutgraph", "explore_graph"),
    ("mutgraph", "mutation_neighbors"),
    ("mutgraph", "canonical_form"),
    ("cli", "main"),
)

GRAPH_DEPTHS = range(5)  # deepest closure any workload explores is 4

COUNT_METRICS = (
    "polyhedra.dual_ehrhart_counts.points_scanned",
    "polyhedra.dual_ehrhart_counts.points_counted",
    "polyhedra.extreme_rays.constraints_in",
    "polyhedra.extreme_rays.rays_out",
    "polyhedra.hull.points_in",
    "polyhedra.hull.vertices_out",
    "polyhedra.is_admissible_pair.yes",
    "polyhedra.is_admissible_pair.no",
    "polyhedra.is_admissible_pair.unknown",
    "laurent.LaurentPolynomial.__mul__.term_products",
    "laurent.divide_exact.none_returns",
    "laurent.max_terms",
    "laurent.max_coeff_bits",
    "mutgraph.nodes",
    "mutgraph.edges",
    "mutgraph.merges",
    "mutgraph.failures",
    *(f"mutgraph.max_terms_at_depth.{d}" for d in GRAPH_DEPTHS),
    *(f"mutgraph.max_coeff_bits_at_depth.{d}" for d in GRAPH_DEPTHS),
)


def span_name(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname}"


def coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in poly.terms),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.active = False
        self.job = -1
        self.spans: list[tuple] = []
        self._stack: list[list[int]] = []  # [span id, child ns, excluded ns at start]
        self.excluded_ns = 0  # counter time, removed from enclosing spans
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.edges_succeeded = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = len(tracer.spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0, tracer.excluded_ns]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start - (tracer.excluded_ns - frame[2])
                if stack:
                    stack[-1][1] += dur
                tracer.spans.append((tracer.job, span_id, parent, name, start, end))
                tracer.calls[name] += 1
                tracer.incl_ns[name] += dur
                tracer.self_ns[name] += dur - frame[1]
            if counter is not None:
                c0 = perf_counter_ns()
                tracer.active = False
                try:
                    counter(tracer, args, kwargs, result)
                finally:
                    tracer.active = True
                    tracer.excluded_ns += perf_counter_ns() - c0
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever laumut holds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "laumut" or n.startswith("laumut.")]
        for layer, qualname in WRAPPED:
            module = sys.modules[f"laumut.{layer}"]
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self._wrap(span_name(layer, qualname), fn, COUNTERS.get(qualname))
            if owner_name:
                setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)

    # -- results -----------------------------------------------------------

    def note_poly(self, poly) -> None:
        if poly is None:
            return
        c = self.counts
        c["laurent.max_terms"] = max(c["laurent.max_terms"], len(poly.terms))
        c["laurent.max_coeff_bits"] = max(c["laurent.max_coeff_bits"], coeff_bits(poly))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything recorded so far: name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer, qualname in WRAPPED:
            name = span_name(layer, qualname)
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.incl_s"] = (self.incl_ns[name] / 1e9, "s")
            out[f"{name}.self_s"] = (self.self_ns[name] / 1e9, "s")
        for name in COUNT_METRICS:
            out[name] = (self.counts[name], "count")
        scanned = self.counts["polyhedra.dual_ehrhart_counts.points_scanned"]
        counted = self.counts["polyhedra.dual_ehrhart_counts.points_counted"]
        out["polyhedra.dual_ehrhart_counts.useful_ratio"] = (counted / scanned if scanned else 0.0, "ratio")
        divisions = self.calls["mutation.is_mutation"] + self.calls["mutation.apply_mutation"]
        out["mutation.divisions_per_edge"] = (
            divisions / self.edges_succeeded if self.edges_succeeded else 0.0,
            "ratio",
        )
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


# -- counters: (tracer, args, kwargs, result) ------------------------------------


def _count_extreme_rays(t, args, kwargs, result):
    rays, lineality = result
    t.counts["polyhedra.extreme_rays.constraints_in"] += len(args[0])
    t.counts["polyhedra.extreme_rays.rays_out"] += len(rays) + len(lineality)


def _count_hull(t, args, kwargs, result):
    rays = args[1] if len(args) > 1 else kwargs.get("rays", ())
    t.counts["polyhedra.hull.points_in"] += len(args[0]) + len(rays)
    t.counts["polyhedra.hull.vertices_out"] += len(result.vertices)


def _count_dual_ehrhart(t, args, kwargs, result):
    from laumut.polyhedra import polar_dual

    p = args[0]
    kmax = args[1] if len(args) > 1 else kwargs["kmax"]
    # The box the scan walks: the polar dual's coordinate bounds, dilated.
    dual = polar_dual(p)
    bounds = [max(abs(v[i]) for v in dual.vertices) for i in range(p.rank)]
    scanned = 0
    for k in range(1, kmax + 1):
        size = 1
        for b in bounds:
            size *= 2 * int(k * b) + 1
        scanned += size
    t.counts["polyhedra.dual_ehrhart_counts.points_scanned"] += scanned
    t.counts["polyhedra.dual_ehrhart_counts.points_counted"] += sum(result)


def _count_admissible(t, args, kwargs, result):
    t.counts[f"polyhedra.is_admissible_pair.{result.status}"] += 1


def _count_mul(t, args, kwargs, result):
    t.counts["laurent.LaurentPolynomial.__mul__.term_products"] += len(args[0].terms) * len(args[1].terms)
    t.note_poly(result)


def _count_poly(t, args, kwargs, result):
    t.note_poly(result)


def _count_divide(t, args, kwargs, result):
    if result is None:
        t.counts["laurent.divide_exact.none_returns"] += 1
    t.note_poly(result)


def _count_neighbors(t, args, kwargs, result):
    t.edges_succeeded += sum(1 for outcome in result if outcome.succeeded)


def _count_graph(t, args, kwargs, result):
    c = t.counts
    c["mutgraph.nodes"] += len(result.nodes)
    c["mutgraph.edges"] += len(result.edges)
    c["mutgraph.merges"] += len(result.merges)
    c["mutgraph.failures"] += len(result.failures)
    for node in result.nodes.values():
        terms = f"mutgraph.max_terms_at_depth.{node.depth}"
        bits = f"mutgraph.max_coeff_bits_at_depth.{node.depth}"
        c[terms] = max(c[terms], len(node.representative.terms))
        c[bits] = max(c[bits], coeff_bits(node.representative))


COUNTERS = {
    "extreme_rays": _count_extreme_rays,
    "hull": _count_hull,
    "dual_ehrhart_counts": _count_dual_ehrhart,
    "is_admissible_pair": _count_admissible,
    "LaurentPolynomial.__mul__": _count_mul,
    "LaurentPolynomial.__pow__": _count_poly,
    "parse": _count_poly,
    "act_unimodular": _count_poly,
    "divide_exact": _count_divide,
    "mutation_neighbors": _count_neighbors,
    "explore_graph": _count_graph,
}
