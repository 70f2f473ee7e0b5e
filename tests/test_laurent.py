import os
import random
import subprocess
import sys
from math import gcd
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex.laurent import (MINUS_INFINITY, LaurentPoly, NotSymmetrizable,
                               RankMismatch, UnitClass, div_exact, is_monic,
                               laurent_degree, lp_gcd, normalize_unit,
                               parse_poly, render_poly, specialize,
                               symmetric_representative, _cyclotomic,
                               _divexact, _mul, _packed, _pseudo_reduce)

from conftest import FIXTURES
from oracles import dense_pseudo_reduce, recursive_gcd, term_div_exact


def t(rank=1, i=0):
    return LaurentPoly.var(rank, i)


def one(rank=1):
    return LaurentPoly.one(rank)


def poly_strategy(rank=1, max_terms=5, max_exp=4, max_coeff=9):
    term = st.tuples(
        st.tuples(*[st.integers(-max_exp, max_exp) for _ in range(rank)]),
        st.integers(-max_coeff, max_coeff))
    return st.lists(term, max_size=max_terms).map(
        lambda terms: LaurentPoly(rank, dict(terms)))


def test_arith_examples():
    p = t() - one()
    assert p * p == t() ** 2 - 2 * t() + one()
    q = LaurentPoly(1, {(3,): 2, (-1,): 5})
    assert q + LaurentPoly.zero(1) == q
    t1, t2 = t(2, 0), t(2, 1)
    assert (t1 - t2) * (t1 + t2) == t1 * t1 - t2 * t2


def test_arith_rank_mismatch():
    with pytest.raises(RankMismatch):
        t(1) + t(2, 0)


def test_laurent_degree():
    p = LaurentPoly(1, {(-1,): 1, (0,): 3, (3,): 1})
    assert laurent_degree(p) == 4
    assert laurent_degree(LaurentPoly.zero(1)) is MINUS_INFINITY
    assert laurent_degree((t() - one()) ** 2) == 2
    assert MINUS_INFINITY < -100
    assert MINUS_INFINITY + 5 is MINUS_INFINITY
    with pytest.raises(RankMismatch):
        laurent_degree(t(2, 0))


@given(poly_strategy(), st.integers(-5, 5), st.sampled_from([1, -1]))
@settings(max_examples=300)
def test_normalization_orbit_invariance(p, n, sign):
    q = p.shift((n,)) * sign
    assert normalize_unit(q) == normalize_unit(p)


def test_normalization_idempotent():
    rng = random.Random(5)
    for _ in range(100):
        p = LaurentPoly(1, {(rng.randint(-4, 4),): rng.randint(-9, 9)
                            for _ in range(rng.randint(0, 5))})
        r = normalize_unit(p)
        assert normalize_unit(r) == r
        if not r.is_zero():
            assert r.min_exp(0) == 0
            assert r.terms[max(r.terms)] > 0


def test_gcd_examples():
    g = lp_gcd(t() ** 2 - one(), t() - one())
    assert g == UnitClass(t() - one())
    g2 = lp_gcd(2 * t(), 4 * t() ** 3)
    assert g2 == UnitClass(LaurentPoly.const(1, 2))
    assert lp_gcd(LaurentPoly.zero(1), LaurentPoly.zero(1)).is_zero()
    assert lp_gcd(LaurentPoly.zero(1), t() - one()) == UnitClass(t() - one())


@given(poly_strategy(max_terms=3, max_exp=3, max_coeff=4),
       poly_strategy(max_terms=3, max_exp=3, max_coeff=4),
       poly_strategy(max_terms=2, max_exp=2, max_coeff=3))
@settings(max_examples=60, deadline=None)
def test_gcd_divides_and_scales(a, b, c):
    g = lp_gcd(a, b).representative
    if not g.is_zero():
        assert div_exact(a, g) is not None and div_exact(b, g) is not None
    if not c.is_zero():
        lhs = lp_gcd(a * c, b * c).representative
        rhs = (lp_gcd(a, b).representative * c)
        assert normalize_unit(lhs) == normalize_unit(rhs)


def test_gcd_multivariable():
    t1, t2 = t(2, 0), t(2, 1)
    a = (t1 - one(2)) * (t2 + one(2))
    b = (t1 - one(2)) * (t2 - one(2))
    assert lp_gcd(a, b) == UnitClass(t1 - one(2))
    # three variables stay within the supported range
    u = LaurentPoly.var(3, 0) - LaurentPoly.one(3)
    assert lp_gcd(u * u, u) == UnitClass(u)


def test_gcd_unsupported_rank():
    from twistalex.laurent import UnsupportedRank
    p = LaurentPoly.var(4, 0)
    with pytest.raises(UnsupportedRank):
        lp_gcd(p, p)


def _gcd_pairs(rng, count):
    """Seeded rank-2 and rank-3 pairs u*h, v*h with a planted common factor
    h of integer content 1 to 4 and exponents from -2 to 2: one pair in ten
    has a zero operand and one in ten a unit operand, and the operands
    alternate sides.  u and v have at most 3 terms at rank 2 and 2 at rank
    3: on denser rank-3 operands the coefficient growth of the primitive
    PRS makes a single pair take seconds."""
    def poly(rank, terms):
        return LaurentPoly(rank, {tuple(rng.randint(-2, 2) for _ in range(rank)):
                                  rng.choice((-3, -2, -1, 1, 2, 3))
                                  for _ in range(terms)})

    for trial in range(count):
        rank = 2 + trial % 2
        h = poly(rank, rng.randint(1, 2)) * rng.randint(1, 4)
        a = poly(rank, rng.randint(1, 5 - rank)) * h
        b = poly(rank, rng.randint(1, 5 - rank)) * h
        if trial % 10 == 3:
            a = LaurentPoly.zero(rank)
        elif trial % 10 == 7:
            a = LaurentPoly.monomial(
                rank, [rng.randint(-2, 2) for _ in range(rank)],
                rng.choice((1, -1)))
        yield (a, b) if trial % 4 < 2 else (b, a)


def _spans(p):
    return [p.max_exp(i) - p.min_exp(i) for i in range(p.rank)]


def test_gcd_against_the_layered_recursion():
    """lp_gcd agrees with the layered content/PRS recursion it replaced on
    1,200 seeded rank-2 and rank-3 pairs: zero and unit operands, integer
    contents above 1, negative exponents, and g wider than f in one
    variable all occur."""
    seen = dict.fromkeys(("zero", "unit", "content", "negative", "wider"), 0)
    for f, g in _gcd_pairs(random.Random(43), 1200):
        got = lp_gcd(f, g)
        assert got == UnitClass(recursive_gcd(f, g))
        seen["zero"] += f.is_zero() or g.is_zero()
        seen["unit"] += f.is_unit() or g.is_unit()
        seen["content"] += gcd(*got.representative.terms.values()) > 1
        seen["negative"] += min(min(e) for p in (f, g) for e in p.terms) < 0
        seen["wider"] += not (f.is_zero() or g.is_zero()) and any(
            map(lt, _spans(f), _spans(g)))
    assert min(seen.values()) >= 100, seen


def test_gcd_against_sympy():
    """lp_gcd agrees with sympy's gcd over Z[t1, ..., tr] up to a unit, on
    the first 200 pairs of the oracle test shifted to exponents >= 0."""
    sympy = pytest.importorskip("sympy")
    for f, g in _gcd_pairs(random.Random(43), 200):
        gens = sympy.symbols(f"t1:{f.rank + 1}")
        polys = [sympy.Poly.from_dict(normalize_unit(p).terms, gens,
                                      domain="ZZ") for p in (f, g)]
        h = sympy.gcd(*polys)
        expected = LaurentPoly(f.rank, {e: int(c) for e, c in h.terms()})
        assert lp_gcd(f, g) == UnitClass(expected)


def test_gcd_exponents_stay_near_zero(monkeypatch):
    """The content takes the coefficients' least monomial, so the scaling
    by leads in the primitive PRS does not move exponents away from 0: on
    this rank-3 pair every array that reaches a rank-1 gcd has fewer than
    200 coefficients.  With the monomial left in the primitive parts they
    drift past 700, and the gcd takes seconds."""
    import twistalex.laurent as laurent
    lengths = []

    def recorded(a, b, _f=laurent._int_poly_gcd):
        lengths.append(max(len(a), len(b)))
        return _f(a, b)
    monkeypatch.setattr(laurent, "_int_poly_gcd", recorded)
    f = parse_poly("24*t1^2*t3^-2 - 24*t1^-1 - 8*t1^-1*t2^-1*t3 "
                   "- 8*t1^-1*t2^-2*t3^-3 + 8*t1^-4*t2^-1*t3^3 "
                   "+ 8*t1^-4*t2^-2*t3^-1", 3)
    g = parse_poly("-16*t1^3*t2^-2 + 16*t2^-2*t3^2 - 24*t2^-3*t3 "
                   "- 8*t1^-1*t3^-3 + 24*t1^-3*t2^-3*t3^3 + 8*t1^-4*t3^-1", 3)
    assert str(lp_gcd(f, g)) == "8*t1^3 - 8*t3^2"
    assert 0 < max(lengths) < 200


def test_gcd_makes_no_nested_gcd_call(monkeypatch):
    """Each inner gcd of the recursion is checked by the exact division
    that uses it, so a rank-3 lp_gcd calls neither lp_gcd nor lp_gcd_many
    again."""
    import twistalex.laurent as laurent
    calls = []
    for name in ("lp_gcd", "lp_gcd_many"):
        def counted(*args, _f=getattr(laurent, name), _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(laurent, name, counted)
    t1, t2, t3 = t(3, 0), t(3, 1), t(3, 2)
    h = 2 * (t1 - one(3)) * (t2 + LaurentPoly.monomial(3, (0, 0, -1)))
    f = h * (t1 * t3 + t2 + 3 * one(3)) * (t3 - t1)
    g = h * (t1 * t2 - t3 ** 2) * (t1 + one(3))
    assert laurent.lp_gcd(f, g) == UnitClass(h)
    assert calls == ["lp_gcd"]


@given(poly_strategy(), poly_strategy())
@settings(max_examples=200)
def test_degree_additive_under_product(f, g):
    if f.is_zero() or g.is_zero():
        assert laurent_degree(f * g) is MINUS_INFINITY
    else:
        assert laurent_degree(f * g) == laurent_degree(f) + laurent_degree(g)


def test_div_exact():
    p = (t() - one()) ** 3
    q = div_exact(p, (t() - one()) ** 2)
    assert q == t() - one()
    assert div_exact(t() ** 2 - one(), t() + 2 * one()) is None
    assert div_exact(2 * t(), 4 * t()) is None  # not integral


def _random_poly(rng, rank, max_terms, lo=-3, hi=3):
    return LaurentPoly(rank, {tuple(rng.randint(lo, hi) for _ in range(rank)):
                              rng.randint(-4, 4)
                              for _ in range(rng.randint(1, max_terms))})


def test_div_exact_against_term_oracle():
    """The packed division agrees with long division on LaurentPoly terms:
    on products g*q, on products with one stray term, on random pairs and
    on f = 0, with exponents of both signs."""
    rng = random.Random(29)
    divisible = refused = 0
    for rank in (1, 2, 3):
        for trial in range(400):
            g = _random_poly(rng, rank, 4)
            if g.is_zero():
                continue
            q = _random_poly(rng, rank, 5)
            f = [g * q, g * q + _random_poly(rng, rank, 1, -5, 5),
                 _random_poly(rng, rank, 6), LaurentPoly.zero(rank)][trial % 4]
            got = div_exact(f, g)
            assert got == term_div_exact(f, g)
            if got is None:
                refused += 1
            else:
                assert got * g == f
                divisible += 1
    assert divisible > 500 and refused > 300


def test_div_exact_edge_cases():
    t1, t2, t3 = t(3, 0), t(3, 1), t(3, 2)
    x = t1 ** 3 * t2.shift((0, -4, 2))
    cases = [
        # long gaps between the nonzero coefficients
        (t() ** 997 - one(), t() - one()),
        (t() ** 997 - one(), t() ** 2 - one()),
        (x ** 25 - one(3), x - one(3)),
        (x ** 25 - one(3), x ** 7 - one(3)),
        ((t1 ** 40 - t3 ** 40) * (t2 - one(3)), t1 - t3),
        # g wider than f in one variable, or g = 0
        ((t1 + one(3)) * (t2 + one(3)), t3 ** 2 - one(3)),
        (t2 ** 5 - one(3), t2 ** 6 - one(3)),
        (t1 - one(3), LaurentPoly.zero(3)),
        # units and constants
        (LaurentPoly.const(3, 6) * t1.shift((0, -2, 5)), -t2),
        (LaurentPoly.const(2, 7), LaurentPoly.const(2, 2)),
    ]
    expected = [True, False, True, False, True, False, False, False, True,
                False]
    for (f, g), divisible in zip(cases, expected):
        got = div_exact(f, g)
        assert got == term_div_exact(f, g)
        assert (got is not None) == divisible
        if divisible:
            assert got * g == f


def test_div_exact_refuses_a_packed_quotient_outside_the_box():
    """f's box has spans (2, 1), so the strides are (1, 3), and the packed
    arrays of f and g divide exactly, but the quotient unpacks to
    1 - t1 + 2 t1^2, outside the box t1^0 of a true quotient."""
    t1, t2 = t(2, 0), t(2, 1)
    f = -(t1 ** 2).shift((0, -1)) - 2 * one(2) - one(2).shift((0, -1))
    g = -t1 ** 2 - t1
    pf, pg = _packed(f, [1, 3], [0, -1]), _packed(g, [1, 3], [1, 0])
    assert (pf, pg) == ([-1, 0, -1, -2], [-1, -1])
    assert _divexact(pf, pg) == [1, -1, 2]
    assert div_exact(f, g) is None
    assert term_div_exact(f, g) is None


def test_div_exact_makes_no_laurent_arithmetic(monkeypatch):
    """The division runs on packed arrays: no LaurentPoly sum, difference,
    product or shift, whatever the rank."""
    rng = random.Random(3)
    pairs = []
    for rank in (1, 2, 3):
        for _ in range(20):
            g = _random_poly(rng, rank, 3)
            if not g.is_zero():
                pairs += [(g * _random_poly(rng, rank, 4), g),
                          (_random_poly(rng, rank, 5), g)]
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "shift"):
        def counted(self, *args, _f=getattr(LaurentPoly, name)):
            calls.append(_f)
            return _f(self, *args)
        monkeypatch.setattr(LaurentPoly, name, counted)
    for f, g in pairs:
        div_exact(f, g)
    assert calls == []


def test_cyclotomic_product_is_z_to_the_n_minus_one():
    for n in range(1, 61):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _mul(prod, _cyclotomic(d))
        assert prod == [-1] + [0] * (n - 1) + [1]
    assert _cyclotomic(1) == [-1, 1]
    assert _cyclotomic(7) == [1] * 7
    assert _cyclotomic(12) == [1, 0, -1, 0, 1]
    # the first cyclotomic polynomial with a coefficient outside -1..1
    assert -2 in _cyclotomic(105)


def test_symmetric_representative_examples():
    p = UnitClass(t() ** 2 - t() + one())
    rep = symmetric_representative(p)
    assert rep.sign == 1
    assert rep.poly == LaurentPoly(1, {(1,): 1, (0,): -1, (-1,): 1})
    rep2 = symmetric_representative(UnitClass(t() - one()))
    assert rep2.sign == -1
    assert rep2.poly == t() - one()
    rep3 = symmetric_representative(UnitClass(one()))
    assert rep3.sign == 1 and rep3.poly == one()
    with pytest.raises(NotSymmetrizable):
        symmetric_representative(UnitClass(t() + 2 * one()))


@given(poly_strategy(max_terms=4))
@settings(max_examples=200)
def test_symmetric_palindrome_property(p):
    try:
        rep = symmetric_representative(UnitClass(p))
    except NotSymmetrizable:
        return
    q = rep.poly
    if q.is_zero():
        return
    lo, hi = q.min_exp(0), q.max_exp(0)
    assert all(q.coeff((lo + i,)) == rep.sign * q.coeff((hi - i,))
               for i in range(hi - lo + 1))


def test_specialize_examples():
    t1, t2 = t(2, 0), t(2, 1)
    assert specialize(t1 + t2, (1, 1)) == 2 * t()
    assert specialize(t1 - t2, (1, 1)).is_zero()
    p = t1 * LaurentPoly.monomial(2, (0, -1)) + one(2)
    assert specialize(p, (2, 1)) == t() + one()


def test_is_monic():
    assert is_monic(UnitClass((t() - one()) ** 2))
    assert not is_monic(UnitClass(2 * t() + one()))
    assert is_monic(UnitClass(t() ** 2 - 3 * t() + one()))
    assert not is_monic(UnitClass(LaurentPoly.zero(1)))


def test_render_examples():
    assert render_poly(t() ** 2 - 3 * t() + one()) == "t^2 - 3*t + 1"
    assert render_poly(LaurentPoly.zero(2)) == "0"
    assert render_poly(LaurentPoly(1, {(-1,): -2})) == "-2*t^-1"
    p = LaurentPoly(2, {(1, -1): 1, (0, 0): 1})
    assert render_poly(p) == "t1*t2^-1 + 1"


@given(poly_strategy(rank=1), poly_strategy(rank=2, max_terms=4))
@settings(max_examples=150)
def test_render_parse_roundtrip(p1, p2):
    for p in (p1, p2):
        assert parse_poly(render_poly(p), p.rank) == p


def _random_array(rng, max_len):
    """A nonzero Z[t] array, leading coefficient of either sign."""
    a = [rng.randint(-6, 6) for _ in range(rng.randint(0, max_len - 1))]
    return a + [rng.choice((-1, 1)) * rng.randint(1, 6)]


def test_pseudo_reduce_against_dense_oracle():
    rng = random.Random(8)
    scaled = 0
    for _ in range(400):
        width = rng.randint(1, 5)
        c = rng.randrange(width)
        base = [_random_array(rng, 4) if rng.random() < 0.5 else []
                for _ in range(width)]
        base[c] = _random_array(rng, 3)
        row = [_random_array(rng, 7) if rng.random() < 0.6 else []
               for _ in range(width)]
        if len(row[c]) >= len(base[c]) and row[c][-1] % base[c][-1]:
            scaled += 1
        want = dense_pseudo_reduce([list(e) for e in row], base, c)
        frozen = [list(f) for f in base]
        got = _pseudo_reduce(row, base, c)
        assert got is row and got == want
        assert base == frozen
    assert scaled > 50


# A coprime rank-3 pair on which the gcd recursion stalls: the call is still
# running after 12 s.  The child interpreter is killed at the timeout, so no
# process outlives the test.
RANK3_STALL = """
from twistalex.laurent import LaurentPoly, lp_gcd
f = LaurentPoly(3, {(3, -3, 1): -4, (1, 0, 2): 12, (0, 1, -2): -12})
g = LaurentPoly(3, {(4, -1, 2): 5, (0, 1, -1): -5, (0, -3, -2): -15})
print(lp_gcd(f, g))
"""


@pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                   reason="the rank-3 gcd recursion stalls on this coprime "
                          "pair")
def test_rank3_gcd_of_a_coprime_pair_finishes():
    # f = -4 t1^3 t2^-3 t3 + 12 t1 t3^2 - 12 t2 t3^-2 and
    # g = 5 t1^4 t2^-1 t3^2 - 5 t2 t3^-1 - 15 t2^-3 t3^-2
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", RANK3_STALL], env=env,
                          capture_output=True, text=True, timeout=2)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"
