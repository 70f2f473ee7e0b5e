"""Byte-identity of the CLI on a fixed command list.

Each command runs in-process through ``cli.main`` from the repository root,
and its exit code and the SHA-256 of its stdout and of its stderr are
compared with ``cli_golden.json``.  A change that alters output on purpose
regenerates the file and says so:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib

import pytest

from twistalex.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_golden.json"

# per presentation: (--phi, fibred --budget); every job takes --thurston 0
PRESENTATIONS = {
    "fig8.pres": ("fib", 8),
    "m.pres": ("0,0,1,0,0,0,1,0", 4),
    "na.pres": ("fib", 8),
    "t3.pres": ("x", 8),
    "torus.pres": ("x", 8),
    "trefoil.pres": ("ab", 8),
    "zero_alex.pres": ("x", 8),
}

# the benchmark's fibred jobs and the quotients that dominate them
BENCH_COMMANDS = (
    ["fibred", "fixtures/na.pres", "--phi", "fib", "--thurston", "0",
     "--budget", "16"],
    ["fibred", "fixtures/m.pres", "--phi", "0,0,1,0,0,0,1,0", "--thurston",
     "0", "--budget", "5"],
    ["alexander", "fixtures/na.pres", "--phi", "fib", "--group", "Z12"],
    ["alexander", "fixtures/na.pres", "--phi", "fib", "--group", "Z16"],
    ["alexander", "fixtures/m.pres", "--phi", "0,0,1,0,0,0,1,0", "--group",
     "D2"],
)

CLIFFORD_SUITES = ("cliffmult", "cliff3", "cliffm1", "cliffiso", "endiso",
                   "extcliff", "spin4-adjoint")


def _commands():
    fixtures = sorted(p.name for p in (ROOT / "fixtures").iterdir())
    assert sorted(n for n in fixtures if n.endswith(".pres")) \
        == sorted(PRESENTATIONS)
    out = []
    for mode in ("text", "structured"):
        head = ["--output", mode]
        for name, (phi, budget) in PRESENTATIONS.items():
            path = f"fixtures/{name}"
            out.append(head + ["fibred", path, "--phi", phi, "--thurston",
                               "0", "--budget", str(budget)])
            for group in ("trivial", "D3"):
                out.append(head + ["alexander", path, "--phi", phi,
                                   "--group", group])
            out.append(head + ["multivariable", path])
            out.append(head + ["norms", path, "--phi", phi, "--thurston",
                               "0"])
        out.extend(head + ["homology", f"fixtures/{n}"]
                   for n in fixtures if n.endswith(".cplx"))
        out.extend(head + argv for argv in BENCH_COMMANDS)
    out.extend(["formcheck", f"fixtures/{n}"]
               for n in fixtures if n.endswith(".form"))
    out.extend(["exactseq", f"fixtures/{n}"]
               for n in fixtures if n.endswith(".seq"))
    out.append(["clifford-verify"])
    out.extend(["clifford-verify", suite] for suite in CLIFFORD_SUITES)
    out.append(["--output", "structured", "clifford-verify"])
    return out


COMMANDS = _commands()


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_command(argv):
    """[exit code, sha256(stdout), sha256(stderr)] of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return [code, _digest(out.getvalue()), _digest(err.getvalue())]


def test_golden_covers_exactly_the_command_list():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(" ".join(a) for a in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text())
    assert run_command(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({" ".join(a): run_command(a)
                                  for a in COMMANDS}, indent=1) + "\n")
