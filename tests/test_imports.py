"""Every module uses each name it imports, and a layer loads only the
layers below it.

Deleting code tends to leave its imports behind; this scan catches them.
``laumut/__init__.py`` is skipped: its two imports, ``__version__`` and
``DomainError``, are the package's documented names, bound there for
others to read, so nothing in it reads them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "laumut").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing else in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_an_unused_import():
    source = "from laumut.polyhedra import STATUS_YES, hull\nimport random\n\nhull([(0,)])\n"
    assert unused_imports(source) == ["STATUS_YES (line 1)", "random (line 2)"]


def loaded_after(statement: str) -> set[str]:
    """The laumut modules a fresh interpreter holds after ``statement``."""
    probe = f"import sys\n{statement}\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'laumut'))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    return set(run.stdout.split())


def test_a_layer_loads_only_the_layers_below_it():
    assert loaded_after("import laumut") == {"laumut", "laumut._version", "laumut.exactlat"}
    above = {"laumut.mutation", "laumut.deformation", "laumut.mutgraph", "laumut.render", "laumut.cli"}
    for layer in ("polyhedra", "laurent"):
        assert not loaded_after(f"import laumut.{layer}") & above, layer
    # The CLI imports every layer itself.
    assert loaded_after("import laumut.cli") >= above
