"""The package keeps zero runtime dependencies.

numpy, sympy and hypothesis may be installed for the tests, so an accidental
import of one of them by the package would go unnoticed in-process; a fresh
interpreter that imports every module shows it.
"""

import os
import subprocess
import sys

from conftest import FIXTURES

SCRIPT = """
import importlib, pkgutil, sys
import twistalex
names = [m.name for m in pkgutil.iter_modules(twistalex.__path__, "twistalex.")]
for name in names:
    importlib.import_module(name)
print(" ".join(sorted(names)))
print(" ".join(m for m in ("numpy", "sympy", "hypothesis") if m in sys.modules))
"""


def test_package_imports_no_test_dependencies():
    src = FIXTURES.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported, loaded = proc.stdout.split("\n")[:2]
    expected = sorted(f"twistalex.{p.stem}"
                      for p in (src / "twistalex").glob("*.py")
                      if p.stem != "__init__")
    assert imported.split() == expected
    assert loaded == ""
