"""What a fresh interpreter loads.

The package keeps zero runtime dependencies.  numpy, sympy and hypothesis
may be installed for the tests, so an accidental import of one of them by
the package would go unnoticed in-process; a fresh interpreter that imports
every module shows it.

Each CLI job compiles every module it imports, so a subcommand loads only
the modules it runs; the module-set cases below run `cli.main` in a fresh
interpreter and read `sys.modules`.
"""

import os
import subprocess
import sys

from conftest import FIXTURES

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
    """The twistalex modules, without the prefix, after cli.main(argv)."""
    out = _run(CLI_SCRIPT, *argv)
    return {m.partition(".")[2] or m for m in out.split()}


def test_package_imports_no_test_dependencies():
    imported, loaded = _run(SCRIPT).split("\n")[:2]
    expected = sorted(f"twistalex.{p.stem}"
                      for p in (SRC / "twistalex").glob("*.py")
                      if p.stem != "__init__")
    assert imported.split() == expected
    assert loaded == ""


def test_cli_import_loads_no_command_module():
    assert _loaded() == {"twistalex", "cli"}


def test_homology_loads_only_the_document_and_snf_modules():
    assert _loaded("homology", str(FIXTURES / "na_x_s1.cplx")) == \
        {"twistalex", "cli", "docio", "exactalg"}


def test_clifford_verify_loads_no_document_or_group_module():
    # the integer determinant comes from bareiss, without the Laurent stack,
    # and the report records are namedtuples, without dataclasses
    assert _loaded("clifford-verify", "cliffmult") == \
        {"twistalex", "cli", "clifford", "bareiss"}
    out = _run(CLI_SCRIPT + "print('dataclasses' in sys.modules)\n",
               "clifford-verify")
    assert out.split("\n")[1] == "False"


def test_fibred_loads_no_clifford_or_form_module():
    loaded = _loaded("fibred", str(FIXTURES / "na.pres"), "--phi", "fib",
                     "--thurston", "0", "--budget", "6")
    assert "normsfibred" in loaded
    assert not loaded & {"clifford", "fourman"}
