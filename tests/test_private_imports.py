"""No module of the package imports another module's underscore name.

A name with a leading underscore is its module's own business; a rule that
two modules share is made public where it lives, so it has one home and
one documented contract.
"""

import ast
from pathlib import Path

import rectbound

PACKAGE = Path(rectbound.__file__).parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} imports {name}")
    return found


def test_no_module_imports_a_private_name():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert [line for path in modules for line in _private_imports(path)] == []
