"""Every parameter and every import in the package is read.

A parameter of a non-dunder function that its body never reads, or a name
that a module imports and never reads, is dead code that callers still have
to know about.  `__init__.py` is exempt from the import rule: its imports
are the package's re-exports.
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


def unread_imports(tree):
    """The names an import statement binds and the module never reads."""
    read = _reads([tree])
    return [alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (alias.asname or alias.name.partition(".")[0]) not in read]


def test_scanners_find_unread_names():
    tree = ast.parse("import os\nfrom math import gcd, lcm\n"
                     "def f(a, b, *c, d, **e):\n"
                     "    def g(x):\n        return a + lcm(x)\n"
                     "    return g\n"
                     "def __eq__(self, other):\n    return True\n")
    assert unread_parameters(tree) == ["f(b)", "f(c)", "f(d)", "f(e)"]
    assert unread_imports(tree) == ["os", "gcd"]


def test_every_parameter_is_read():
    found = {name: unread_parameters(tree) for name, tree in _trees()}
    assert {name: v for name, v in found.items() if v} == {}


def test_every_import_is_read():
    found = {name: unread_imports(tree) for name, tree in _trees()
             if name != "__init__.py"}
    assert {name: v for name, v in found.items() if v} == {}
