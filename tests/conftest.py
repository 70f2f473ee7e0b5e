import pathlib

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


def norm_relation_inputs(P, phi):
    """The arguments of norm_relation_check for the class phi of P."""
    return (twisted_alexander(Twister(phi), trivial_quotient(P)).value,
            multivariable_alexander(P).value.representative,
            phi.h_weights(), class_divisibility(phi))
