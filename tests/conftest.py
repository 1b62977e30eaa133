from itertools import product

import pytest

from laumut.exactlat import dot
from laumut.polyhedra import polar_dual

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


@pytest.fixture
def acceptance_recorder():
    return record_acceptance


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def box_scan_dual_counts(p, kmax):
    """Brute-force oracle for ``dual_ehrhart_counts``: test every point of
    the polar dual's dilated bounding box against every vertex of p."""
    dual = polar_dual(p)
    bounds = [max(abs(v[i]) for v in dual.vertices) for i in range(p.rank)]
    counts = []
    for k in range(1, kmax + 1):
        boxes = [range(-int(k * b), int(k * b) + 1) for b in bounds]
        counts.append(sum(1 for u in product(*boxes) if all(dot(u, v) >= -k for v in p.vertices)))
    return counts


@pytest.fixture
def box_scan():
    return box_scan_dual_counts
