"""The package's public surface is what the CLI or the benchmark reaches.

Every public top-level function or class of ``src/marketpulse`` must be
named somewhere in ``src/marketpulse`` or ``perfbench`` outside its own
definition: as a name, an attribute or an import alias. A name that only
tests reach belongs in the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "marketpulse"
PERFBENCH = ROOT / "perfbench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_definitions(module: ast.Module) -> list:
    return [
        node
        for node in module.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
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


def unreached_names() -> list[str]:
    """``module.name`` of each public top-level definition of the package
    that no product or benchmark code names."""
    modules = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    bench = [_parse(path) for path in sorted(PERFBENCH.glob("*.py"))]
    used_by_bench = set().union(*(_names_used(tree, set()) for tree in bench))
    unreached = []
    for path, module in modules.items():
        for definition in _public_definitions(module):
            used = set(used_by_bench)
            for other_path, other in modules.items():
                skip = {definition} if other_path == path else set()
                used |= _names_used(other, skip)
            if definition.name not in used:
                unreached.append(f"{path.stem}.{definition.name}")
    return unreached


def test_every_public_definition_is_reached_by_the_cli_or_the_benchmark():
    assert unreached_names() == []


def test_the_scan_sees_definitions_and_references():
    tree = ast.parse(
        "import m\n"
        "from m import imported\n"
        "def used(): pass\n"
        "def recursive(): return recursive()\n"
        "class Attr: pass\n"
        "def _private(): pass\n"
        "x = used() + m.Attr\n"
    )
    names = [d.name for d in _public_definitions(tree)]
    assert names == ["used", "recursive", "Attr"]
    recursive = tree.body[3]
    used = _names_used(tree, {recursive})
    assert {"used", "Attr", "imported"} <= used
    assert "recursive" not in used
