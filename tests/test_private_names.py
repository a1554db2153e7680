"""Every function, method or class of the package is read somewhere.

No linter is installed, so this reads the syntax trees of all modules at
once.  A private name (one leading underscore) bound by ``def`` or
``class`` must be read, as a name, an attribute or an imported name,
somewhere in the package outside its own body; a method counts as read only
through an attribute, so a method named like a builtin (``pow``) is not
read by a call of the builtin.  A public, non-dunder one
must be read so in the package, ``__init__.py`` aside, or in
``tests/test_acceptance.py`` or a ``bench/*.py`` file.  A leftover helper
that lost its last caller fails, and so does a public name that only the
unit tests call.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slopecert"
# the readers of the public surface besides the package itself
CALLERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _read(node) -> tuple:
    """(names, attributes): every name and imported name, and every
    attribute, read in ``node``'s subtree."""
    names, attributes = [], []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.append(n.id)
        elif isinstance(n, ast.Attribute):
            attributes.append(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names += [alias.name for alias in n.names]
    return names, attributes


def _count(reads, name, method) -> int:
    names, attributes = reads
    return attributes.count(name) + (0 if method else names.count(name))


def _unread(trees, private, callers=()) -> list:
    reads, outside = ([], []), ([], [])
    for tree in trees:
        for kind, found in zip(reads, _read(tree)):
            kind += found
    for tree in callers:
        for kind, found in zip(outside, _read(tree)):
            kind += found
    methods = {
        id(item)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, DEFS)
    }
    unused = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, DEFS) or node.name.startswith("__") or node.name.startswith("_") != private:
                continue
            method = id(node) in methods
            read_outside = node.name in outside[1] or not method and node.name in outside[0]
            # a name read only inside its own body, by recursion, is unused
            if not read_outside and _count(reads, node.name, method) == _count(_read(node), node.name, method):
                unused.add(node.name)
    return sorted(unused)


def unreferenced_private(sources) -> list:
    return _unread([ast.parse(source) for source in sources], private=True)


def unread_public(sources, callers) -> list:
    """Public names of ``sources`` that neither they nor ``callers`` read."""
    return _unread([ast.parse(source) for source in sources], False, [ast.parse(source) for source in callers])


def test_the_check_sees_an_unreferenced_private_name():
    used = "def _used():\n    return 1\n\nclass C:\n    def _method(self):\n        return _used()\n"
    other = (
        "class _Left:\n    def __init__(self):\n        pass\n\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n\n"
        "def public(c):\n    return c._method()\n"
    )
    assert unreferenced_private([used, other]) == ["_Left", "_recursive"]
    assert unreferenced_private([used]) == ["_method"]


def test_the_check_sees_an_unread_public_name():
    module = (
        "class Shape:\n    def area(self):\n        return 0\n\n    def __repr__(self):\n        return ''\n\n"
        "def grow(n):\n    return grow(n - 1)\n\n"
        "def helper():\n    return Shape()\n\n"
        "def aliased():\n    return 1\n"
    )
    importer = "from .module import aliased as renamed\n"
    caller = "import module\nmodule.helper().area()\n"
    assert unread_public([module, importer], [caller]) == ["grow"]
    assert unread_public([module], []) == ["aliased", "area", "grow", "helper"]


def test_a_method_is_read_only_through_an_attribute():
    # the builtin pow, or a function named like the method, does not read it
    module = (
        "class Num:\n    def pow(self, k):\n        return self\n\n    def _step(self):\n        return self\n\n"
        "def _step(n):\n    return n\n\n"
        "def square(n):\n    return pow(n, 2) + _step(n)\n"
    )
    assert unread_public([module], ["square(Num())\n"]) == ["pow"]
    assert unread_public([module], ["square(Num().pow(2))\n"]) == []
    assert unreferenced_private([module]) == ["_step"]
    assert unreferenced_private([module, "def f(n):\n    return n._step()\n"]) == []


def _package_sources(skip=()) -> list:
    return [path.read_text() for path in sorted(PACKAGE.glob("*.py")) if path.name not in skip]


def test_every_private_name_is_referenced():
    assert unreferenced_private(_package_sources()) == []


def test_every_public_name_is_read_by_the_package_the_acceptance_suite_or_the_benchmark():
    # __init__.py re-exports nothing, and a re-export would not be a reader
    callers = [path.read_text() for path in CALLERS]
    assert unread_public(_package_sources(skip=("__init__.py",)), callers) == []
