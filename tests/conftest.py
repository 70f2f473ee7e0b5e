import os
import pathlib
import subprocess
import sys

import pytest

from twistalex.grouppres import trivial_quotient
from twistalex.normsfibred import class_divisibility
from twistalex.twistedalex import (Twister, multivariable_alexander,
                                   twisted_alexander)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures():
    return FIXTURES


def fixture_text(name):
    return (FIXTURES / name).read_text()


def run_child(code, timeout):
    """The stdout of `code` run in a child interpreter on this checkout's
    sources.  The child is killed at `timeout` seconds, and the
    subprocess.TimeoutExpired propagates, so no process outlives the test."""
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def norm_relation_inputs(P, phi):
    """The arguments of norm_relation_check for the class phi of P."""
    return (twisted_alexander(Twister(phi), trivial_quotient(P)).value,
            multivariable_alexander(P).value.representative,
            phi.h_weights(), class_divisibility(phi))
