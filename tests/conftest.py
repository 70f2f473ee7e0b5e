import pathlib

import pytest

from twistalex.normsfibred import class_divisibility
from twistalex.twistedalex import (multivariable_alexander, trivial_twist,
                                   twisted_alexander)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures():
    return FIXTURES


def fixture_text(name):
    return (FIXTURES / name).read_text()


def norm_relation_inputs(P, phi):
    """The arguments of norm_relation_check for the class phi of P."""
    return (twisted_alexander(P, trivial_twist(P, phi)).value,
            multivariable_alexander(P).value.representative,
            phi.h_weights(), class_divisibility(phi))
