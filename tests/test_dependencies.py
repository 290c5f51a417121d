"""The package's runtime depends on the standard library and numpy only,
and builds its records without ``dataclasses``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import crchern

PACKAGE = Path(crchern.__file__).resolve().parent
ALLOWED = {"numpy", "crchern"}


def _imported_roots(tree: ast.AST):
    """Top-level module names of every absolute import, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0], node.lineno


def test_every_import_is_stdlib_numpy_or_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    foreign = [
        f"{path.relative_to(PACKAGE)}:{line}: {root}"
        for path in modules
        for root, line in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in sys.stdlib_module_names and root not in ALLOWED
    ]
    assert foreign == []


def test_no_module_imports_dataclasses():
    # records are plain classes (cohomology.ring.Record): no code is
    # generated for them when the package is imported
    modules = sorted(PACKAGE.rglob("*.py"))
    found = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in modules
        for root, line in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root == "dataclasses"
    ]
    assert found == []


def test_the_command_line_loads_without_dataclasses():
    code = "import sys, crchern.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=120
    ).stdout
    assert out == "False\n"


def test_the_guard_sees_a_foreign_import():
    tree = ast.parse(
        "import os\nfrom scipy import linalg\nimport numpy.linalg\n"
        "from dataclasses import dataclass\n"
    )
    roots = [root for root, _ in _imported_roots(tree)]
    assert roots == ["os", "scipy", "numpy", "dataclasses"]
