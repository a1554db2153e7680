"""Every private function, method or class of the package is used somewhere.

No linter is installed, so this reads the syntax trees of all modules at
once: a name that starts with one underscore and is bound by ``def`` or
``class`` must be read, as a name or an attribute, somewhere in the package
outside its own body.  A leftover helper that lost its last caller fails.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "slopecert"

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _read(node) -> list:
    """Every name and attribute read in ``node``'s subtree."""
    nodes = ast.walk(node)
    return [n.id if isinstance(n, ast.Name) else n.attr for n in nodes if isinstance(n, (ast.Name, ast.Attribute))]


def unreferenced_private(sources) -> list:
    trees = [ast.parse(source) for source in sources]
    reads = [name for tree in trees for name in _read(tree)]
    unused = set()
    for tree in trees:
        for node in ast.walk(tree):
            private = isinstance(node, DEFS) and node.name.startswith("_") and not node.name.endswith("__")
            # a name read only inside its own body, by recursion, is unused
            if private and reads.count(node.name) == _read(node).count(node.name):
                unused.add(node.name)
    return sorted(unused)


def test_the_check_sees_an_unreferenced_private_name():
    used = "def _used():\n    return 1\n\nclass C:\n    def _method(self):\n        return _used()\n"
    other = (
        "class _Left:\n    def __init__(self):\n        pass\n\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n\n"
        "def public(c):\n    return c._method()\n"
    )
    assert unreferenced_private([used, other]) == ["_Left", "_recursive"]
    assert unreferenced_private([used]) == ["_method"]


def test_every_private_name_is_referenced():
    assert unreferenced_private([path.read_text() for path in sorted(PACKAGE.glob("*.py"))]) == []
