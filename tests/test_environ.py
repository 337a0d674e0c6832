"""Only ``cli.main`` reads or writes the process environment.

Flags are the CLI's only settings; ``main`` touches the environment just
to give numpy's OpenBLAS one thread (``_BLAS_THREAD_VARS``).
"""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src" / "abelmax"
_ENV_NAMES = {"environ", "getenv"}


def _environ_references():
    """(module, top-level definition, line) of each os.environ/os.getenv use.

    Keys are not matched as strings: a key may be passed in a variable.
    """
    for path in sorted(_SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in _ENV_NAMES
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "os"
                    and any(alias.name in _ENV_NAMES for alias in node.names)
                ):
                    yield path.name, owner, node.lineno


def test_only_cli_main_touches_the_environment():
    refs = list(_environ_references())
    assert any(ref[:2] == ("cli.py", "main") for ref in refs)
    assert [ref for ref in refs if ref[:2] != ("cli.py", "main")] == []
