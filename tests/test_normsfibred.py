from collections import Counter
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex.grouppres import (BoundExceeded, ClassMap, FiniteGroup,
                                 Incompatible, Presentation,
                                 trivial_quotient)
from twistalex.laurent import MINUS_INFINITY, LaurentPoly, UnitClass, \
    laurent_degree
from twistalex.normsfibred import (BudgetZero, ZeroClass,
                                   alexander_norm, class_divisibility,
                                   degree_case_analysis, divisibility,
                                   fibred_certificate, group_catalog,
                                   mcmullen_check, norm_relation_check)
from twistalex.twistedalex import Twister, multivariable_alexander, \
    twisted_alexander

from conftest import norm_relation_inputs


def na_presentation():
    return Presentation.from_text(
        ["a", "b", "c"], ["[a,b]", "[a,c]", "b c b^-1 a^-1 c^-1"])


def t3_presentation():
    return Presentation.from_text(["a", "b", "c"],
                                  ["[a,b]", "[a,c]", "[b,c]"])


def test_alexander_norm_examples():
    t1 = LaurentPoly.var(2, 0)
    t2 = LaurentPoly.var(2, 1)
    assert alexander_norm(t1 + t2, (1, -1)) == 2
    assert alexander_norm(LaurentPoly.zero(2), (1, -1)) == 0
    assert alexander_norm(LaurentPoly.const(2, 5), (7, 3)) == 0


@given(st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                       st.integers(-5, 5), max_size=5),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
       st.integers(-4, 4))
@settings(max_examples=200)
def test_alexander_norm_homogeneity(terms, w, k):
    delta = LaurentPoly(2, terms)
    kw = tuple(k * x for x in w)
    assert alexander_norm(delta, kw) == abs(k) * alexander_norm(delta, w)


def test_divisibility_examples():
    assert divisibility((2, 4)) == 2
    assert divisibility((1, 0)) == 1
    assert divisibility((6, 9, 15)) == 3
    with pytest.raises(ZeroClass):
        divisibility((0, 0))


def test_mcmullen_na():
    P = na_presentation()
    phi = ClassMap(P, [(0,), (0,), (1,)])
    delta = multivariable_alexander(P).value.representative
    w = phi.h_weights()
    report = mcmullen_check(delta, w, 0, 2)
    assert report.alexander_norm == 0
    assert report.mcmullen_ok


def test_mcmullen_zero_delta_trivially_ok():
    report = mcmullen_check(LaurentPoly.zero(2), (1, 0), 0, 2)
    assert report.alexander_norm == 0
    assert report.mcmullen_ok


def test_mcmullen_synthetic_violation():
    delta = LaurentPoly(2, {(0, 0): 1, (4, 0): 1})
    report = mcmullen_check(delta, (1, 0), 2, 2)
    assert report.alexander_norm == 4
    assert not report.mcmullen_ok


def test_mcmullen_input_validation():
    with pytest.raises(ValueError):
        mcmullen_check(LaurentPoly.zero(2), (1, 0), 1, 2)  # odd norm
    with pytest.raises(ValueError):
        mcmullen_check(LaurentPoly.zero(2), (1, 0), -2, 2)


def test_norm_relation_on_closed_fixtures():
    P = na_presentation()
    assert norm_relation_check(
        *norm_relation_inputs(P, ClassMap(P, [(0,), (0,), (1,)])))
    assert norm_relation_check(
        *norm_relation_inputs(P, ClassMap(P, [(0,), (0,), (2,)])))
    assert norm_relation_check(
        *norm_relation_inputs(P, ClassMap(P, [(0,), (1,), (0,)])))
    T3 = t3_presentation()
    assert norm_relation_check(
        *norm_relation_inputs(T3, ClassMap(T3, [(1,), (0,), (0,)])))
    assert norm_relation_check(
        *norm_relation_inputs(T3, ClassMap(T3, [(2,), (3,), (0,)])))


def test_norm_relation_needs_b1_at_least_two():
    tre = Presentation.from_text(["x", "y"], ["x y x y^-1 x^-1 y^-1"])
    with pytest.raises(ValueError):
        norm_relation_check(
            *norm_relation_inputs(tre, ClassMap(tre, [(1,), (1,)])))


def test_norm_relation_bounded_manifold_single_factor():
    """T^2 x I has boundary: its order picks up (t-1) once, not squared.

    This documents why the closed-case relation is asserted only on closed
    fixtures.
    """
    P = Presentation.from_text(["a", "b"], ["[a,b]"])
    phi = ClassMap(P, [(1,), (0,)])
    assert not norm_relation_check(*norm_relation_inputs(P, phi))
    tw = twisted_alexander(Twister(phi), trivial_quotient(P))
    t = LaurentPoly.var(1)
    assert tw.value == UnitClass(t - LaurentPoly.one(1))


def test_degprop_inequality_on_fixtures():
    cases = [
        (na_presentation(), [(0,), (0,), (1,)]),
        (na_presentation(), [(0,), (1,), (0,)]),
        (na_presentation(), [(0,), (1,), (1,)]),
        (t3_presentation(), [(1,), (0,), (0,)]),
        (t3_presentation(), [(1,), (2,), (0,)]),
    ]
    for P, images in cases:
        phi = ClassMap(P, images)
        delta = multivariable_alexander(P).value.representative
        w = phi.h_weights()
        tw = twisted_alexander(Twister(phi), trivial_quotient(P))
        deg = laurent_degree(tw.value.representative)
        bound = alexander_norm(delta, w) + 2 * class_divisibility(phi)
        assert deg is MINUS_INFINITY or deg <= bound


def test_degree_case_analysis():
    t = LaurentPoly.var(1)
    one = LaurentPoly.one(1)
    assert degree_case_analysis(UnitClass((t - one) ** 2)) == "2"
    assert degree_case_analysis(UnitClass(LaurentPoly.zero(1))) == "-oo"
    assert degree_case_analysis(UnitClass((t * t - one) ** 2)) == "4"
    assert degree_case_analysis(UnitClass(one)) == "0"
    assert degree_case_analysis(UnitClass(t - one)) == "other"


def test_group_catalog():
    labels = [g.label for g in group_catalog(6)]
    assert labels == ["Z2", "Z3", "D2", "Z4", "Z5", "D3", "Z6"]


def test_group_catalog_bounds_its_tables_before_building(monkeypatch):
    import twistalex.normsfibred as nf

    def refuse(n):
        raise AssertionError("a table was built")

    # budget 125 holds 984,946 table entries, 126 holds 1,016,698
    monkeypatch.setattr(nf, "cyclic_group", refuse)
    with pytest.raises(BoundExceeded, match="1016698 group table entries"):
        group_catalog(126)
    # the total is found before the catalog is listed, so a huge budget
    # is refused at once
    with pytest.raises(BoundExceeded, match="499999999990000000000050000000571 "
                       "group table entries"):
        group_catalog(99999999999)
    with pytest.raises(AssertionError, match="a table was built"):
        group_catalog(125)


def test_fibred_certificate_na():
    P = na_presentation()
    phi = ClassMap(P, [(0,), (0,), (1,)])
    cert = fibred_certificate(P, phi, 0, 4)
    assert cert.verdict == "Fibred-evidence"
    assert cert.records[0].group_label == "1"
    for r in cert.records:
        assert r.monic and r.degree_equation_ok
        assert r.degree == 2 * r.div


def test_certificate_run_reads_class_and_group_facts_once(monkeypatch):
    # the Phi-length that twisted_alexander bounds is one per class, and the
    # addition-mod-n test of the summand split one per group, however many
    # quotients share them
    calls = {"length": [], "is_addition_mod_n": []}
    for cls, name in ((ClassMap, "length"), (FiniteGroup, "is_addition_mod_n")):
        real = vars(cls)[name].func
        prop = cached_property(
            lambda self, real=real, name=name: calls[name].append(self)
            or real(self))
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
    P = na_presentation()
    phi = ClassMap(P, [(0,), (0,), (1,)])
    cert = fibred_certificate(P, phi, 0, 6)
    assert calls["length"] == [phi]
    groups = Counter(map(id, calls["is_addition_mod_n"]))
    assert set(groups.values()) == {1}
    assert len(groups) == len({r.group_label for r in cert.records}) \
        < len(cert.records)


def test_fibred_certificate_doubled_class():
    P = na_presentation()
    phi2 = ClassMap(P, [(0,), (0,), (2,)])
    cert = fibred_certificate(P, phi2, 0, 2)
    trivial = cert.records[0]
    assert trivial.div == 2
    assert trivial.degree == 4  # 0 + 2*2
    assert cert.verdict == "Fibred-evidence"
    # Delta_{2 Phi}(t) = Delta_Phi(t^2) for this fibred class
    phi = ClassMap(P, [(0,), (0,), (1,)])
    q = trivial_quotient(P)
    base = twisted_alexander(Twister(phi), q).value.representative
    doubled = twisted_alexander(Twister(phi2), q).value.representative
    stretched = LaurentPoly(1, {(2 * e[0],): c for e, c in base.terms.items()})
    assert UnitClass(stretched) == UnitClass(doubled)


def test_fibred_certificate_zero_polynomial_is_not_fibred():
    P = Presentation(["a", "b"], [])
    phi = ClassMap(P, [(1,), (0,)])
    cert = fibred_certificate(P, phi, 0, 2)
    assert cert.verdict == "NotFibred"
    assert any(not r.monic for r in cert.records)


def test_fibred_certificate_budget_zero():
    P = na_presentation()
    phi = ClassMap(P, [(0,), (0,), (1,)])
    with pytest.raises(BudgetZero):
        fibred_certificate(P, phi, 0, 0)


def test_fibred_certificate_refuses_a_class_of_another_presentation():
    """The twist's presentation check runs before Phi reads a Schreier
    word of the other presentation, whose third generator Phi has no value
    on."""
    P = Presentation.from_text(["a", "b"], ["[a,b]"])
    Q = Presentation.from_text(["a", "b", "c"], ["[a,b]", "[a,c]", "[b,c]"])
    with pytest.raises(Incompatible, match="different presentations"):
        fibred_certificate(Q, ClassMap(P, [(1,), (0,)]), 0, 2)
    with pytest.raises(ValueError, match="Phi must be nontrivial"):
        fibred_certificate(P, ClassMap(P, [(0,), (0,)]), 0, 2)


def test_certificate_never_fibred_with_nonmonic_record():
    # sanity on the aggregation invariant, using the zero-polynomial case
    P = Presentation(["a", "b"], [])
    phi = ClassMap(P, [(1,), (0,)])
    cert = fibred_certificate(P, phi, 0, 3)
    assert cert.verdict != "Fibred-evidence"
