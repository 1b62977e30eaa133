"""Exact mutations of Laurent polynomials and the toric families they glue.

The package is organized bottom-up: integer/rational linear algebra
(:mod:`laumut.exactlat`), a double-description geometry kernel
(:mod:`laumut.polyhedra`), Laurent polynomial arithmetic and parsing
(:mod:`laumut.laurent`), mutations (:mod:`laumut.mutation`), the flat
family construction and its verification (:mod:`laumut.deformation`),
mutation graphs of polygons (:mod:`laumut.mutgraph`), SVG diagrams
(:mod:`laumut.render`), and a CLI (:mod:`laumut.cli`).
"""

from ._version import __version__
from .exactlat import DomainError
from .laurent import (
    LaurentPolynomial,
    ParseError,
    act_unimodular,
    divide_exact,
    newton_polytope,
    parse,
    to_string,
)
from .polyhedra import (
    AdmissibilityVerdict,
    Cone,
    Polyhedron,
    cone_over,
    dual_cone,
    dual_ehrhart_counts,
    from_halfspaces,
    hull,
    is_admissible_pair,
    kernel_slice,
    minkowski_sum,
    polar_dual,
    verify_admissibility,
)
from .mutation import (
    MutationError,
    MutationSpec,
    apply_mutation,
    facet_mutation_spec,
    is_mutation,
    polygon_facets,
)
from .deformation import (
    FamilyData,
    FamilyError,
    VerificationReport,
    build_family,
    general_fiber_is_toric,
    verify_main_theorem,
)
from .mutgraph import CanonicalForm, MutationGraph, canonical_form, explore_graph, mutation_neighbors
from .render import render_svg
