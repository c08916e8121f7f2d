"""The package's surface is what the CLI or the benchmark reaches.

Every top-level function or class of ``src/marketpulse``, and every
method and property of every class there (private ones included, dunders
such as a module's ``__getattr__`` excluded), must be named somewhere in ``src/marketpulse`` or ``perfbench``
outside its own definition: as a name, an attribute or an import alias. A
name that only tests reach belongs in the tests. ``ALLOWED`` names the
methods that code outside both reaches, each with its reason.

The check goes by name, so it has a known limit: a method whose name
another class also uses passes while either is named, as
``SnapStore.close`` did while the harvester named a ``close`` of its own.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "marketpulse"
PERFBENCH = ROOT / "perfbench"

# ``module.Class.method`` -> why it stays though neither src nor perfbench
# names it
ALLOWED = {
    "store.SnapStore.query_app_series": "acceptance criterion 9b is stated on it",
    "harvester.Handler.handle": "socketserver calls it",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _top_level_definitions(module: ast.Module) -> list:
    return [
        node
        for node in module.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not _dunder(node.name)
    ]


def _methods(module: ast.Module) -> list:
    """(class name, method) of every method and property, dunders
    excluded, of every class in ``module``."""
    return [
        (cls.name, node)
        for cls in ast.walk(module)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not _dunder(node.name)
    ]


def _names_used(tree: ast.AST, skip: set) -> set:
    """Names, attributes and import aliases in ``tree``, outside the
    nodes of ``skip``."""
    used = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return used


@functools.cache
def definitions() -> dict:
    """``module.name`` or ``module.Class.method`` -> whether product or
    benchmark code names it, for each top-level definition and each method
    of the package."""
    modules = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    trees = [*modules.values(), *(_parse(path) for path in sorted(PERFBENCH.glob("*.py")))]
    names = [_names_used(tree, set()) for tree in trees]

    def reached(path, definition) -> bool:
        module = modules[path]
        elsewhere = (used for tree, used in zip(trees, names) if tree is not module)
        return any(definition.name in used for used in elsewhere) or (
            definition.name in _names_used(module, {definition})
        )

    found = {}
    for path, module in modules.items():
        for definition in _top_level_definitions(module):
            found[f"{path.stem}.{definition.name}"] = reached(path, definition)
        for cls, method in _methods(module):
            found[f"{path.stem}.{cls}.{method.name}"] = reached(path, method)
    return found


def test_every_public_definition_is_reached_by_the_cli_or_the_benchmark():
    found = definitions()
    unreached = [name for name, reached in found.items() if not reached]
    assert sorted(set(unreached) - set(ALLOWED)) == []


def test_every_allowed_method_is_defined_and_reached_by_neither():
    found = definitions()
    assert [name for name in ALLOWED if found.get(name, True)] == []
    assert all(ALLOWED.values())


def test_the_scan_sees_definitions_and_references():
    tree = ast.parse(
        "import m\n"
        "from m import imported\n"
        "def used(): pass\n"
        "def recursive(): return recursive()\n"
        "class Attr:\n"
        "    def called(self): return 0\n"
        "    def unreached(self): return self.unreached()\n"
        "    def __len__(self): return 0\n"
        "class _Private:\n"
        "    def _helper(self): pass\n"
        "def _private(): pass\n"
        "def _unreached(): return _unreached()\n"
        "def __getattr__(name): pass\n"
        "x = used() + m.Attr + Attr().called()\n"
    )
    names = [d.name for d in _top_level_definitions(tree)]
    assert names == ["used", "recursive", "Attr", "_Private", "_private", "_unreached"]
    recursive = tree.body[3]
    used = _names_used(tree, {recursive})
    assert {"used", "Attr", "imported"} <= used
    assert "recursive" not in used
    unreached_private = tree.body[7]
    assert "_unreached" not in _names_used(tree, {unreached_private})
    methods = _methods(tree)
    assert [(cls, method.name) for cls, method in methods] == [
        ("Attr", "called"),
        ("Attr", "unreached"),
        ("_Private", "_helper"),
    ]
    (_, called), (_, unreached) = methods[:2]
    assert "called" in _names_used(tree, {called})
    # named only in its own body
    assert "unreached" not in _names_used(tree, {unreached})
