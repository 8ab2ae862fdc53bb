"""Runtime code imports only the standard library and the package itself,
and importing the command line loads none of the slow modules it can do without."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "gaugemods"


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_imports_only_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"gaugemods"}
    assert sorted(_imported_roots(path) - allowed) == []


def test_importing_the_cli_leaves_slow_modules_unloaded():
    # dataclasses pulls in inspect; difflib serves only an unknown check name
    probe = ("import sys, gaugemods.cli; "
             "print(sorted({'dataclasses', 'inspect', 'difflib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
