"""No module of the package or of the tests imports a name it never uses.

No linter is installed, so this reads each module's syntax tree: a name
bound by an import must be read somewhere in the module.  ``__init__``
imports names to re-export them and is exempt.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "slopecert"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nfrom typing import List, Sequence\nx: List = [math.pi]\n") == ["Sequence"]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_import(path):
    assert unused_imports((PACKAGE / path).read_text()) == []


@pytest.mark.parametrize("path", sorted(p.name for p in TESTS.glob("*.py")))
def test_no_unused_import_in_tests(path):
    assert unused_imports((TESTS / path).read_text()) == []
