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


def _references() -> tuple[set[str], set[str]]:
    """Every name read, bare, as an attribute or imported, and the subset
    read as an attribute (``x.name``), outside the tests."""
    names, attributes = set(), set()
    for top in ("src", "demos", "groups", "perfbench"):
        for path in (_REPO / top).rglob("*.py"):
            if path.is_relative_to(_REPO / "perfbench" / "tests"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    return names | attributes, attributes


def test_every_public_function_is_reached_outside_the_tests():
    # A function counts as reached when its name is read anywhere in the
    # package, the demos, the generator scripts or the benchmark; a method
    # only where it is read as an attribute, so a local variable named
    # like it (a `center` beside PermGroup.center) does not hide it.
    # Names only: a method shares its reach with every other attribute of
    # that name, so a test-only method named like a reached one
    # (GF2m.inverse beside Permutation.inverse) passes unseen.
    names, attributes = _references()
    definitions = [
        name
        for path in sorted((_REPO / "src" / "abelmax").glob("*.py"))
        for name in _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert len(definitions) > 50
    unreached = [
        d for d in definitions
        if d.rpartition(".")[2] not in (attributes if "." in d else names)
    ]
    assert unreached == []
