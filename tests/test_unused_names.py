"""Every parameter and every import in the package is read.

A parameter of a non-dunder function that its body never reads, or a name
that an import binds and its scope never reads, is dead code that callers
still have to know about.  The scope of a module-level import is the
module; an import inside a function is read only if that function reads it.
"""

import ast

from conftest import FIXTURES

PACKAGE = FIXTURES.parent / "src" / "twistalex"


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _reads(nodes):
    return {n.id for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unread_parameters(tree):
    """name(parameter) for each parameter its function body never reads."""
    out = []
    for f in ast.walk(tree):
        if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or f.name.startswith("__") and f.name.endswith("__"):
            continue
        a = f.args
        params = [p for p in (*a.posonlyargs, *a.args, a.vararg,
                              *a.kwonlyargs, a.kwarg) if p]
        read = _reads(f.body)
        out += [f"{f.name}({p.arg})" for p in params if p.arg not in read]
    return out


def _scoped_imports(node, scope):
    """(innermost enclosing function or the module, import statement)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield scope, child
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scoped_imports(child, child)
        else:
            yield from _scoped_imports(child, scope)


def unread_imports(tree):
    """The names an import statement binds and its scope never reads."""
    out = []
    for scope, node in _scoped_imports(tree, tree):
        read = _reads([scope])
        out += [name for alias in node.names
                if (name := alias.asname or alias.name.partition(".")[0])
                not in read]
    return out


def test_scanners_find_unread_names():
    tree = ast.parse("import os\nfrom .exactalg import homology\n"
                     "from math import gcd, lcm\n"
                     "def f(a, b, *c, d, **e):\n"
                     "    def g(x):\n        return a + lcm(x)\n"
                     "    return g\n"
                     "def __eq__(self, other):\n    return True\n"
                     "def h():\n    from math import floor, ceil\n"
                     "    def k():\n        return ceil(1.5)\n"
                     "    return k\n"
                     "def m():\n    return floor(1.5)\n")
    assert unread_parameters(tree) == ["f(b)", "f(c)", "f(d)", "f(e)"]
    # a re-export is an unread import (no module is exempt), and floor is
    # read by m, not by h, whose import binds it
    assert unread_imports(tree) == ["os", "homology", "gcd", "floor"]


def test_every_parameter_is_read():
    found = {name: unread_parameters(tree) for name, tree in _trees()}
    assert {name: v for name, v in found.items() if v} == {}


def test_every_import_is_read():
    found = {name: unread_imports(tree) for name, tree in _trees()}
    assert {name: v for name, v in found.items() if v} == {}
