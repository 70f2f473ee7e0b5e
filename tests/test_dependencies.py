"""What a fresh interpreter loads.

The package keeps zero runtime dependencies.  numpy, sympy and hypothesis
may be installed for the tests, so an accidental import of one of them by
the package would go unnoticed in-process; a fresh interpreter that imports
every module shows it.

Each CLI job compiles every module it imports, so a subcommand loads only
the modules it runs; the module-set cases below run `cli.main` in a fresh
interpreter and read `sys.modules`.  No job loads `dataclasses` (with
`inspect`, `ast`, `dis` and `tokenize` behind it): the package's records
are namedtuples, and the cases at the end check that they behave as the
frozen dataclasses they replaced.
"""

import os
import subprocess
import sys

import pytest

from conftest import FIXTURES
from twistalex.exactalg import HomologyGroup, MapData
from twistalex.fourman import EvennessReport, SurfaceEntry
from twistalex.laurent import UnitClass, normalize_unit, parse_poly

SRC = FIXTURES.parent / "src"

SCRIPT = """
import importlib, pkgutil, sys
import twistalex
names = [m.name for m in pkgutil.iter_modules(twistalex.__path__, "twistalex.")]
for name in names:
    importlib.import_module(name)
print(" ".join(sorted(names)))
print(" ".join(m for m in ("numpy", "sympy", "hypothesis") if m in sys.modules))
"""

# the CLI arguments follow the script; with none it only imports the module
CLI_SCRIPT = """
import contextlib, io, sys
import twistalex.cli as cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
print(" ".join(m for m in sys.modules if m.startswith("twistalex")))
"""


def _run(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(*argv):
    """The twistalex modules, without the prefix, after cli.main(argv), and
    whether dataclasses was loaded."""
    out = _run(CLI_SCRIPT + "print('dataclasses' in sys.modules)\n", *argv)
    mods, dataclasses = out.split("\n")[:2]
    return {m.partition(".")[2] or m for m in mods.split()}, dataclasses


def test_package_imports_no_test_dependencies():
    imported, loaded = _run(SCRIPT).split("\n")[:2]
    expected = sorted(f"twistalex.{p.stem}"
                      for p in (SRC / "twistalex").glob("*.py")
                      if p.stem != "__init__")
    assert imported.split() == expected
    assert loaded == ""


def test_cli_import_loads_no_command_module():
    assert _loaded() == ({"twistalex", "cli"}, "False")


def test_homology_loads_only_the_document_and_snf_modules():
    assert _loaded("homology", str(FIXTURES / "na_x_s1.cplx")) == \
        ({"twistalex", "cli", "docio", "exactalg"}, "False")


def test_clifford_verify_loads_no_document_or_group_module():
    # the integer determinant comes from bareiss, without the Laurent stack
    assert _loaded("clifford-verify", "cliffmult") == \
        ({"twistalex", "cli", "clifford", "bareiss"}, "False")
    assert _loaded("clifford-verify")[1] == "False"


def test_fibred_loads_no_clifford_or_form_module():
    # nor exactalg: a fibred job never abelianizes
    loaded, dataclasses = _loaded("fibred", str(FIXTURES / "na.pres"),
                                  "--phi", "fib", "--thurston", "0",
                                  "--budget", "6")
    assert "normsfibred" in loaded
    assert not loaded & {"clifford", "fourman", "exactalg"}
    assert dataclasses == "False"


def test_alexander_loads_no_snf_module():
    loaded, dataclasses = _loaded("alexander", str(FIXTURES / "na.pres"),
                                  "--phi", "fib", "--group", "Z3")
    assert "twistedalex" in loaded
    assert not loaded & {"clifford", "fourman", "exactalg", "normsfibred"}
    assert dataclasses == "False"


@pytest.mark.parametrize("argv", [
    ["multivariable", "na.pres"],
    ["norms", "na.pres", "--phi", "fib", "--thurston", "0"],
    ["formcheck", "cp2.form"],
    ["exactseq", "m_mv.seq"],
])
def test_other_commands_load_no_dataclasses(argv):
    loaded, dataclasses = _loaded(argv[0], str(FIXTURES / argv[1]), *argv[2:])
    assert dataclasses == "False"
    # all four load exactalg; multivariable and norms for abelianize
    assert "exactalg" in loaded


# ---- records: the behaviour of the dataclasses they replaced ----------------

def test_record_repr_and_str():
    u = UnitClass(parse_poly("t^3 - t", 1))
    assert repr(u) == "UnitClass(representative=LaurentPoly('t^2 - 1'))"
    assert str(u) == "t^2 - 1"
    h = HomologyGroup(2, (2, 6))
    assert repr(h) == "HomologyGroup(free_rank=2, torsion=(2, 6))"
    assert str(h) == "Z^2+Z/2+Z/6"
    assert str(HomologyGroup(0)) == "0"


def test_record_defaults():
    assert HomologyGroup(2).torsion == ()
    md = MapData()
    assert md.image is None and md.kernel is None
    assert MapData(kernel=2) == MapData(None, 2)
    assert SurfaceEntry("S", "none").genus is None


@pytest.mark.parametrize("args,message", [
    (("S", "weird"), "unknown surface kind 'weird'"),
    (("S", "symplectic", -1), "negative genus -1"),
])
def test_surface_entry_validates(args, message):
    with pytest.raises(ValueError, match=message):
        SurfaceEntry(*args)


@pytest.mark.parametrize("even,char_ok", [(True, True), (True, False),
                                          (False, True), (False, False)])
def test_evenness_report_truthiness(even, char_ok):
    assert bool(EvennessReport(even, char_ok)) is (even and char_ok)


def test_unit_class_equality_and_hash():
    p = parse_poly("t^3 - t", 1)
    u = UnitClass(p)
    assert u == UnitClass(-parse_poly("t^-1 - t", 1))
    assert u != UnitClass(parse_poly("t^2 + 1", 1))
    assert u.representative == normalize_unit(p)
    # a frozen dataclass hashes the tuple of its fields
    assert hash(u) == hash((normalize_unit(p),))
