"""Only ``catalog`` reaches the family constructors.

Every group the package checks comes in by its spec string through
``catalog.build_catalog`` (or ``build_group``); no other module calls a
family's constructor (``sym_group``, ``dihedral_group``, ...) itself.
"""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "abelmax"


def _family_constructors() -> set[str]:
    """The names registered in ``catalog._FAMILIES``."""
    tree = ast.parse((_SRC / "catalog.py").read_text(encoding="utf-8"))
    for top in tree.body:
        if isinstance(top, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_FAMILIES" for t in top.targets
        ):
            return {n.id for n in ast.walk(top.value) if isinstance(n, ast.Name)}
    raise AssertionError("catalog._FAMILIES not found")


def _constructor_references(names: set[str]):
    """(module, line, name) of each import or attribute read of a name."""
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "catalog.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found = [a.name for a in node.names if a.name in names]
            elif isinstance(node, ast.Attribute) and node.attr in names:
                found = [node.attr]
            else:
                continue
            yield from ((path.name, node.lineno, name) for name in found)


def test_only_catalog_reaches_the_family_constructors():
    names = _family_constructors()
    assert {"sym_group", "dihedral_group", "elem_abelian_group", "agl3_2_group"} <= names
    assert all(name.endswith("_group") for name in names)
    assert list(_constructor_references(names)) == []
