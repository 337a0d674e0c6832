"""The library's public functions and methods are reached from outside tests."""

import ast
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]


def _public_definitions(tree: ast.Module):
    """Public module-level functions and public methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def _referenced_names() -> set[str]:
    names = set()
    for top in ("src", "demos", "groups", "perfbench"):
        for path in (_REPO / top).rglob("*.py"):
            if path.is_relative_to(_REPO / "perfbench" / "tests"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_function_is_reached_outside_the_tests():
    # A definition counts as reached when its bare name is read anywhere
    # in the package, the demos, the generator scripts or the benchmark.
    # Names only: a method shares its reach with every other definition
    # of that name, so a test-only method named like a reached one
    # (ElementTable.positions beside a local `positions`, GF2m.inverse
    # beside Permutation.inverse) passes unseen.
    referenced = _referenced_names()
    definitions = [
        name
        for path in sorted((_REPO / "src" / "abelmax").glob("*.py"))
        for name in _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert len(definitions) > 50
    unreached = [d for d in definitions if d.rpartition(".")[2] not in referenced]
    assert unreached == []
