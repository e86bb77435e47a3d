"""Every public name of the package is read by the package or the benchmark.

A public name is a top-level function or class of a module in
src/condensim (``__init__.py`` aside), or a method, property or
annotated field of a public class.  It counts as read when some file
of src or bench loads it: an ``ast.Name`` or ``ast.Attribute`` in Load
context with that spelling.  A name that only tests read belongs with
the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "condensim"


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_names() -> dict[str, list[str]]:
    """Each public name, spelled as it is read, with where it is defined."""
    found: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            found.setdefault(node.name, []).append(f"{path.stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if _public(name):
                    found.setdefault(name, []).append(f"{path.stem}.{node.name}.{name}")
    return found


def loaded_names() -> set[str]:
    """Every name and attribute loaded by a file of src or bench."""
    loaded = set()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_public_names_are_collected():
    names = public_names()
    assert "ChainSpec" in names and "simulate_zrp_ensemble" in names
    assert "chain.ChainSpec.size" in names["size"]  # a property
    assert "experiments.MartingaleResidual.mean" in names["mean"]  # a field


def test_every_public_name_is_read_outside_the_tests():
    loaded = loaded_names()
    unread = sorted(where for name, places in public_names().items()
                    if name not in loaded for where in places)
    assert unread == []
