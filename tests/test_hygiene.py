"""Source hygiene: no module in ``src/`` or ``tests/`` imports a name it never
uses, and every top-level function and class of the package has a caller."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "polyscale").rglob("*.py"))
# the package's ``__init__`` only re-exports, so it calls nothing
CALLERS = [p for p in PACKAGE if p.name != "__init__.py"] + [
    p for d in ("tests", "demos", "bench") for p in sorted((ROOT / d).glob("*.py"))]


def imported_names(tree):
    """(bound name, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Names read anywhere, including quoted annotations and ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                used |= used_names(ast.parse(hint.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.relative_to(ROOT)} imports names it never uses: {unused}"


def test_scan_catches_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Sequence, Mapping\n"
                     "def f(x: 'Sequence[int]'):\n    return x\n")
    used = used_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in used] == ["os", "Mapping"]


def definitions(tree):
    """(name, line) of every top-level function and class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno


def named(tree):
    """Every name a module reads, looks up as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def uncalled(defining, calling):
    """(module, line, name) of each definition in ``defining`` (module name
    to tree) that no tree in ``calling`` names."""
    names = {name for tree in calling for name in named(tree)}
    return [(module, line, name) for module, tree in defining.items()
            for name, line in definitions(tree) if name not in names]


def test_every_package_definition_has_a_caller():
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"))

    defining = {str(p.relative_to(ROOT)): parse(p) for p in PACKAGE}
    missing = uncalled(defining, [parse(p) for p in CALLERS])
    assert not missing, f"nothing in src/, tests/, demos/ or bench/ names {missing}"


def test_scan_catches_an_uncalled_definition():
    package = ast.parse(
        "def used():\n    pass\n\n"
        "def helper():\n    pass\n\n"
        "class Box:\n    def method(self):\n        pass\n\n"
        "def _unused():\n    'helper() and Box are named in a docstring only'\n")
    caller = ast.parse("from pkg import used\nimport pkg\n\nused()\npkg.helper()\n"
                       "# and Box() in a comment\n")
    assert uncalled({"pkg.py": package}, [package, caller]) == [
        ("pkg.py", 7, "Box"), ("pkg.py", 11, "_unused")]
