"""The runtime dependencies in pyproject.toml are exactly what src imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# Distribution name -> the top-level module it installs, where they differ.
MODULE_OF = {"PyYAML": "yaml"}


def imported_packages() -> set[str]:
    """Top-level package of every absolute import in src/condensim, at any depth."""
    found = set()
    for path in sorted((ROOT / "src" / "condensim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"condensim"}


def test_runtime_dependencies_are_what_src_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert imported_packages() == {MODULE_OF.get(name, name) for name in names}
