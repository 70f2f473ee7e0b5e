"""Every parameter, import and definition in the package is read.

A parameter of a non-dunder function that its body never reads, or a name
that an import binds and its scope never reads, is dead code that callers
still have to know about.  The scope of a module-level import is the
module; an import inside a function is read only if that function reads it.
A non-dunder function, method or class of the package must be named by the
package, the tests or the benchmark outside its own definition.
"""

import ast
import re
from collections import Counter

from conftest import FIXTURES

ROOT = FIXTURES.parent
PACKAGE = ROOT / "src" / "twistalex"
# a span key of the benchmark's tracer, "module:qualname"
SPAN_KEY = re.compile(r"\w+:\w+(\.\w+)*")


def _trees(*dirs):
    for d in dirs or (PACKAGE,):
        for path in sorted(d.glob("*.py")):
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


def names(tree):
    """How often a tree names each name: as an ast.Name, an attribute, an
    imported name or a part of a span key.  Docstrings are not read."""
    docs = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    out = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
        elif isinstance(n, ast.Constant) and id(n) not in docs \
                and isinstance(n.value, str) and SPAN_KEY.fullmatch(n.value):
            out.update(n.value.partition(":")[2].split("."))
    return out


def unnamed_definitions(tree, used):
    """Each non-dunder def or class of the tree that `used`, a Counter of
    names, holds no more often than the definition names itself."""
    return [d.name for d in ast.walk(tree)
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
            and not (d.name.startswith("__") and d.name.endswith("__"))
            and used[d.name] <= names(d)[d.name]]


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


def test_scanner_finds_unnamed_definitions():
    tree = ast.parse("import twistalex.spanned\nfrom .x import imported\n"
                     "def dead(n):\n"
                     "    'a docstring names nothing: dead m:dead'\n"
                     "    return dead(n - 1)\n"
                     "def called():\n    return 1\n"
                     "class Box:\n"
                     "    def attr(self):\n        return Box\n"
                     "    def unused(self):\n        return self.attr()\n"
                     "    def __eq__(self, other):\n        return True\n"
                     "def imported():\n    pass\n"
                     "def kept():\n    pass\n"
                     "def spanned():\n    pass\n"
                     "SPANS = {'m:Box.kept': 1, 'no key: spanned': 2}\n"
                     "x = called() + Box().attr()\n")
    # named only by itself (dead's recursion, unused), by a docstring or by
    # a string that is not a span key is dead, and so is a module import of
    # its name; an imported name and a part of a span key count
    assert unnamed_definitions(tree, names(tree)) == [
        "dead", "spanned", "unused"]


def test_every_parameter_is_read():
    found = {name: unread_parameters(tree) for name, tree in _trees()}
    assert {name: v for name, v in found.items() if v} == {}


def test_every_import_is_read():
    found = {name: unread_imports(tree) for name, tree in _trees()}
    assert {name: v for name, v in found.items() if v} == {}


def test_every_definition_is_named():
    used = sum((names(t) for _, t in _trees(PACKAGE, ROOT / "tests",
                                            ROOT / "bench")), Counter())
    found = {name: unnamed_definitions(tree, used)
             for name, tree in _trees()}
    assert {name: v for name, v in found.items() if v} == {}


# Definitions of the package that the package itself never names: its public
# API, which callers outside it read.  A name that joins this set is read
# only by the tests or the benchmark, and belongs in tests/oracles.py or in
# this list, with a reason to keep it.
PUBLIC_API = {
    "clifford.projector", "clifford.grade_part", "clifford.even_part",
    "clifford.alpha", "clifford.failures",
    "docio.emit_complex", "docio.emit_presentation", "docio.emit_form",
    "docio.emit_sequence",
    "exactalg.is_diagonal", "exactalg.V", "exactalg.euler_characteristic",
    "grouppres.from_text",
    "laurent.symmetric_representative", "laurent.parse_poly", "laurent.var",
    "twistedalex.correction_exact",
}


def test_nothing_in_the_package_is_read_only_outside_it():
    used = sum((names(t) for _, t in _trees()), Counter())
    found = {f"{name.removesuffix('.py')}.{d}" for name, tree in _trees()
             for d in unnamed_definitions(tree, used)}
    assert found == PUBLIC_API
