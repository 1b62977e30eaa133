"""Exact mutations of Laurent polynomials and the toric families they glue.

The package is organized bottom-up: integer/rational linear algebra
(:mod:`laumut.exactlat`), a double-description geometry kernel
(:mod:`laumut.polyhedra`), Laurent polynomial arithmetic and parsing
(:mod:`laumut.laurent`), mutations (:mod:`laumut.mutation`), the flat
family construction and its verification (:mod:`laumut.deformation`),
mutation graphs of polygons (:mod:`laumut.mutgraph`), SVG diagrams
(:mod:`laumut.render`), and a CLI (:mod:`laumut.cli`). Import each name
from its module: the package binds only ``__version__`` and
``DomainError``, so importing one layer loads only the layers below it.
Nothing here reads those two names; they are re-exported, which is why
the tests' unused-import scan skips this file.
"""

from ._version import __version__
from .exactlat import DomainError
