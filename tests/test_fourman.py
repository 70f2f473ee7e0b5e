import random

import pytest

from twistalex.exactalg import IntMatrix, smith_normal_form
from twistalex.fourman import (FormData, MissingData, SurfaceEntry,
                               adjunction_check, evenness_check,
                               lagrangian_square_check)


def m_form():
    labels = ["iB2", "iB3", "iB4", "jB3", "jB4", "D"]
    surfaces = [SurfaceEntry("iB2", "symplectic", 1),
                SurfaceEntry("iB3", "lagrangian", 1),
                SurfaceEntry("iB4", "lagrangian", 1),
                SurfaceEntry("jB3", "lagrangian", 1),
                SurfaceEntry("jB4", "lagrangian", 1),
                SurfaceEntry("D", "symplectic", 2)]
    return FormData(labels, IntMatrix.zero(6, 6), [0, 0, 0, 0, 0, 2], surfaces)


def test_adjunction_examples():
    form = m_form()
    assert adjunction_check(form, "D")       # 2 + 0 = 2*2 - 2
    assert adjunction_check(form, "iB2")     # 0 + 0 = 2*1 - 2
    sphere = FormData(["S"], [[0]], [-2],
                      [SurfaceEntry("S", "symplectic", 0)])
    assert adjunction_check(sphere, "S")     # -2 + 0 = -2


def test_lagrangian_examples():
    form = m_form()
    for label in ("iB3", "iB4", "jB3", "jB4"):
        assert lagrangian_square_check(form, label)
    genus2 = FormData(["L"], [[2]], [0], [SurfaceEntry("L", "lagrangian", 2)])
    assert lagrangian_square_check(genus2, "L")
    sphere = FormData(["L"], [[0]], [0], [SurfaceEntry("L", "lagrangian", 0)])
    assert not lagrangian_square_check(sphere, "L")


def test_missing_data():
    form = m_form()
    with pytest.raises(MissingData):
        adjunction_check(form, "iB3")  # lagrangian, not symplectic
    with pytest.raises(MissingData):
        lagrangian_square_check(form, "D")
    with pytest.raises(MissingData):
        adjunction_check(form, "nope")
    nogenus = FormData(["X"], [[0]], [0], [SurfaceEntry("X", "symplectic")])
    with pytest.raises(MissingData):
        adjunction_check(nogenus, "X")


def test_repeated_label_is_refused():
    # index() would read the first label's row for both
    with pytest.raises(ValueError, match="repeated basis label"):
        FormData(["a", "a"], IntMatrix.zero(2, 2), [0, 0])


def test_repeated_surface_is_refused():
    # the dict of surfaces would keep the last entry alone
    with pytest.raises(ValueError, match="repeated surface 'a'"):
        FormData(["a"], [[0]], [0], [SurfaceEntry("a", "symplectic", 1),
                                     SurfaceEntry("a", "lagrangian", 0)])


def test_evenness_m_data():
    report = evenness_check(m_form())
    assert report.even and report.characteristic_ok
    assert bool(report)


def test_evenness_cp2_style():
    report = evenness_check(FormData(["H"], [[1]], [3]))
    assert report.characteristic_ok   # 1 = 3 (mod 2)
    assert not report.even            # odd diagonal
    assert not bool(report)


def test_evenness_zero_form():
    assert bool(evenness_check(FormData(["a", "b"], IntMatrix.zero(2, 2),
                                        [0, 0])))


def random_unimodular(rng, n):
    """A unimodular matrix, harvested from a Smith decomposition."""
    M = IntMatrix(n, n, [rng.randint(-3, 3) for _ in range(n * n)])
    return smith_normal_form(M).U


def test_evenness_invariant_under_unimodular_change():
    rng = random.Random(99)
    base = m_form()
    n = 6
    for _ in range(20):
        U = random_unimodular(rng, n)
        Ut = U.transpose()
        Q2 = Ut * base.Q * U
        K2 = [sum(base.K[i] * U[i, j] for i in range(n)) for j in range(n)]
        report = evenness_check(FormData(base.labels, Q2, K2))
        assert report.even and report.characteristic_ok


def test_characteristic_relation_extends_to_random_vectors():
    rng = random.Random(101)
    form = m_form()
    n = 6
    for _ in range(50):
        v = [rng.randint(-5, 5) for _ in range(n)]
        qvv = sum(v[i] * form.Q[i, j] * v[j] for i in range(n)
                  for j in range(n))
        kv = sum(form.K[i] * v[i] for i in range(n))
        assert (qvv - kv) % 2 == 0
