"""Source hygiene: no module in ``src/`` or ``tests/`` imports a name it never
uses, every top-level function and class of the package has a caller, every
method of a package class has one outside the tests, and no function of the
package keeps state in a module-level container or a ``functools`` cache."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "polyscale").rglob("*.py"))
# the package's ``__init__`` only re-exports, so it calls nothing
CALLERS = [p for p in PACKAGE if p.name != "__init__.py"] + [
    p for d in ("tests", "demos", "bench") for p in sorted((ROOT / d).glob("*.py"))]
# a method that only tests call is a path the program never takes
PROGRAM_CALLERS = [p for p in CALLERS if p.parent.name != "tests"]


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


def named(tree, classes=frozenset()):
    """Every name a module reads, looks up as an attribute or imports.  An
    attribute looked up on a name in ``classes`` (``Box.load``,
    ``pkg.Box.load``) comes as "Box.load"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            owner = getattr(node.value, "id", getattr(node.value, "attr", None))
            yield f"{owner}.{node.attr}" if owner in classes else node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def methods(tree):
    """("Class.method", line) of every method of every class, dunders aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.lineno


def uncalled(defining, calling, defined=definitions):
    """(module, line, name) of each definition in ``defining`` (module name
    to tree) that no tree in ``calling`` names.  A method counts as named by
    its own name, or through its class's name, but not through another class
    of ``defining``: ``Graph.load`` does not name ``Scheme.load``."""
    classes = {node.name for tree in defining.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    names = {name for tree in calling for name in named(tree, classes)}
    return [(module, line, name) for module, tree in defining.items()
            for name, line in defined(tree)
            if name not in names and name.rsplit(".", 1)[-1] not in names]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_package_definition_has_a_caller():
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


def test_every_package_method_has_a_caller_outside_the_tests():
    defining = {str(p.relative_to(ROOT)): parse(p) for p in PACKAGE}
    missing = uncalled(defining, [parse(p) for p in PROGRAM_CALLERS], methods)
    assert not missing, f"only tests, or nothing, name the methods {missing}"


def test_scan_catches_a_method_only_tests_call():
    package = ast.parse(
        "class Box:\n    def __len__(self):\n        return 0\n\n"
        "    def used(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        pass\n\n"
        "    def tested(self):\n        pass\n")
    demo = ast.parse("from pkg import Box\n\nBox().used()\n")
    assert uncalled({"pkg.py": package}, [package, demo], methods) == [
        ("pkg.py", 11, "Box.tested")]


def test_scan_counts_a_method_named_through_a_class_for_that_class_only():
    package = ast.parse(
        "class Graph:\n    @classmethod\n    def load(cls, path):\n        return cls()\n\n"
        "class Scheme:\n    @classmethod\n    def load(cls, path):\n        return cls()\n\n"
        "    @classmethod\n    def default(cls):\n        return cls()\n\n"
        "    def size(self):\n        return 0\n")
    demo = ast.parse("import pkg\nfrom pkg import Graph\n\n"
                     "Graph.load('g.tsv')\npkg.Scheme.default().size()\n")
    assert uncalled({"pkg.py": package}, [package, demo], methods) == [
        ("pkg.py", 8, "Scheme.load")]


# calls that change a list, dict or set in place
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "clear", "update",
            "setdefault", "add", "discard", "remove", "sort", "reverse"}
CONTAINER_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def module_containers(tree):
    """Names a module binds at top level to a list, dict or set."""
    names = set()
    for node in tree.body:
        value = getattr(node, "value", None)
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or value is None:
            continue
        call = value.func if isinstance(value, ast.Call) else None
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                              ast.SetComp)) or (
                call is not None and getattr(call, "id", getattr(call, "attr", None))
                in CONTAINER_CALLS):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def module_state(tree):
    """(line, what) for each function that changes a module-level container,
    and each use of ``functools.lru_cache`` or ``functools.cache``: both keep
    state for the life of the process, shared by every caller."""
    shared = module_containers(tree)
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = {n for node in ast.walk(func) if isinstance(node, ast.Global)
                    for n in node.names}
        local = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)} | {
            node.id for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)} - declared
        for node in ast.walk(func):
            targets = []
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATORS:
                targets = [node.func.value]
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = [t.value if isinstance(t, ast.Subscript) else t
                           for t in getattr(node, "targets", None) or [node.target]]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in shared - local:
                    found.append((node.lineno, f"{func.name} changes {target.id}"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            cached = [a.name for a in node.names if a.name in ("lru_cache", "cache")]
        elif isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache") \
                and getattr(node.value, "id", None) == "functools":
            cached = [node.attr]
        else:
            continue
        found += [(node.lineno, f"functools.{name}") for name in cached]
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_level_state(path):
    found = module_state(parse(path))
    assert not found, f"{path.relative_to(ROOT)} keeps state at module level: {found}"


def test_scan_catches_module_level_state():
    tree = ast.parse(
        "import functools\nfrom functools import lru_cache, partial\n"
        "CACHE = {}\nSEEN: list = []\nNAMES = ('a',)\nCOUNTS = dict()\n\n"
        "def remember(k, v):\n    CACHE[k] = v\n\n"
        "def note(x):\n    SEEN.append(x)\n    NAMES.count(x)\n\n"
        "def own(x, SEEN=()):\n    CACHE = {}\n    CACHE[x] = x\n    return SEEN\n\n"
        "def reads():\n    return CACHE.get('a'), len(SEEN), COUNTS['a']\n\n"
        "def rebinds():\n    global COUNTS\n    COUNTS = {}\n    del CACHE['a']\n\n"
        "@functools.cache\ndef slow(x):\n    return partial(x)\n")
    assert module_state(tree) == [
        (2, "functools.lru_cache"), (9, "remember changes CACHE"), (12, "note changes SEEN"),
        (25, "rebinds changes COUNTS"), (26, "rebinds changes CACHE"), (28, "functools.cache")]
