"""Every public name of the package is read by the package or the benchmark.

A public name is a top-level function or class of a module in
src/condensim (``__init__.py`` aside), or a method, property or
annotated field of a public class.  It counts as read when some file
of src or bench loads it in Load context with that spelling: a
function or class as an ``ast.Name`` or an ``ast.Attribute``, a member
only as an ``ast.Attribute``, since a bare name of that spelling is a
local or a parameter, not the member.  A name that only tests read
belongs with the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "condensim"


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_names(modules: dict[str, str]) -> dict[str, list[str]]:
    """Each public name of ``modules`` (stem -> source), spelled as it is
    read, with where it is defined: ``stem.name`` for a function or
    class, ``stem.Class.name`` for a member."""
    found: dict[str, list[str]] = {}
    for stem, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            found.setdefault(node.name, []).append(f"{stem}.{node.name}")
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
                    found.setdefault(name, []).append(f"{stem}.{node.name}.{name}")
    return found


def loaded_names(sources) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names that ``sources`` load."""
    names, attributes = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def unread(public: dict[str, list[str]], loaded: tuple[set[str], set[str]]) -> list[str]:
    """Where each public name is defined that ``loaded`` does not read."""
    names, attributes = loaded
    return sorted(
        where for name, places in public.items() for where in places
        if name not in attributes and (where.count(".") == 2 or name not in names)
    )


def package_names() -> dict[str, list[str]]:
    return public_names({
        path.stem: path.read_text()
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
    })


def test_public_names_are_collected():
    names = package_names()
    assert "ChainSpec" in names and "simulate_zrp_ensemble" in names
    assert "chain.ChainSpec.size" in names["size"]  # a property
    assert "experiments.MartingaleResidual.mean" in names["mean"]  # a field


def test_a_member_loaded_only_as_a_bare_name_is_unread():
    public = public_names({"mod": "class Report:\n    tv: float\n    chi2: float\n"})
    loaded = loaded_names(["tv = chi2 = 0.0\nprint(Report().chi2 + tv)\n"])
    assert unread(public, loaded) == ["mod.Report.tv"]


def test_every_public_name_is_read_outside_the_tests():
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")])
    assert unread(package_names(), loaded_names(p.read_text() for p in files)) == []
