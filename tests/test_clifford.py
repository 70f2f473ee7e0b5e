import random
import time
from fractions import Fraction

import pytest

from twistalex.clifford import (CliffordElement, DimensionMismatch,
                                ExactMatrix, GaussianRational, GR_I, GR_ONE,
                                NotSplitting, all_blades, hodge_star, mu_map,
                                projector, vector_rank, verify_all,
                                verify_iso, volume_element, HODGE_TABLE_4,
                                SPIN4_SAMPLES, SPIN4_SEED, _SUITES, _blade,
                                _blade_mul, _doubled_projector,
                                _even_embedding, _mask, _mu_blade,
                                _mu_generators, _prefix_parity,
                                _rational_unit_vectors, _spin4_adjoint,
                                _spin4_samples)

from oracles import (blade_product, fraction_adjoint, fraction_unit_vectors,
                     int_det, per_index_even_embedding, rational_rank,
                     shift_loop_sign, _clifford_mul)


def e(i, n=4, field="C"):
    return CliffordElement.e(n, field, i)


def scalar(c, n=4, field="C"):
    return CliffordElement.scalar(n, field, c)


def test_gaussian_rational_arithmetic():
    x = GaussianRational(1, 2)
    y = GaussianRational(Fraction(1, 2), -1)
    assert x * y == GaussianRational(Fraction(5, 2), 0)
    assert (x / y) * y == x
    assert GR_I * GR_I == GaussianRational(-1)


def test_gaussian_rational_int_parts():
    x, y = GaussianRational(1, -2), GaussianRational(-3, 5)
    for z in (x + y, x - y, x * y, -x, x + 4, 4 - x, 3 * x, x * x):
        assert type(z.re) is int and type(z.im) is int
    third = GaussianRational(1) / 3
    assert (type(third.re), type(third.im)) == (Fraction, Fraction)
    assert third == GaussianRational(Fraction(1, 3))
    inv = GR_ONE / GaussianRational(0, 2)
    assert (type(inv.re), type(inv.im)) == (Fraction, Fraction)
    assert inv == GaussianRational(0, Fraction(-1, 2))
    assert GaussianRational(3) == GaussianRational(Fraction(3))
    assert hash(GaussianRational(3)) == hash(GaussianRational(Fraction(3)))
    # a real value equals its real part, so it hashes as it does
    assert GaussianRational(3) == 3 and hash(GaussianRational(3)) == hash(3)
    assert len({GaussianRational(3), 3}) == 1
    assert hash(third) == hash(Fraction(1, 3))
    assert len({third, Fraction(1, 3)}) == 1
    assert len({x, GaussianRational(1, -2), 1}) == 2
    assert not GaussianRational() and GR_I and GaussianRational(Fraction(1, 2))
    assert repr(x) == "(1-2i)" and repr(GaussianRational(3)) == "3"
    assert repr(GaussianRational(Fraction(3))) == "3"
    assert repr(third) == "1/3" and repr(inv) == "(0-1/2i)"


def test_gaussian_rational_unit_division_keeps_int_parts():
    # dividing by a unit (norm 1) makes no Fraction
    for unit in (GR_ONE, -GR_ONE, GR_I, GaussianRational(0, -1)):
        z = GaussianRational(3, 4) / unit
        assert (type(z.re), type(z.im)) == (int, int)
        assert z * unit == GaussianRational(3, 4)
    assert GaussianRational(3, 4) / GaussianRational(0, -1) \
        == GaussianRational(-4, 3)


def test_product_examples():
    assert e(1) * e(1) == scalar(-1)
    assert e(1) * e(2) + e(2) * e(1) == CliffordElement.zero(4, "C")
    e12 = CliffordElement.blade(4, "C", (1, 2))
    assert e12 * e12 == scalar(-1)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        e(1, n=3, field="R") * e(1, n=4, field="R")


def test_associativity_random():
    rng = random.Random(13)
    for n in (2, 3, 4, 5):
        blades = all_blades(n)
        for _ in range(20):
            xs = []
            for _ in range(3):
                terms = {rng.choice(blades): rng.randint(-3, 3)
                         for _ in range(rng.randint(1, 3))}
                xs.append(CliffordElement(n, "R", terms))
            x, y, z = xs
            assert (x * y) * z == x * (y * z)


def test_alpha_grading():
    rng = random.Random(17)
    blades = all_blades(4)
    for _ in range(30):
        terms = {rng.choice(blades): rng.randint(-3, 3) for _ in range(3)}
        x = CliffordElement(4, "R", terms)
        y = CliffordElement(4, "R",
                            {rng.choice(blades): rng.randint(-3, 3)})
        assert x.alpha() * y.alpha() == (x * y).alpha()
        assert x.even_part() + x.odd_part() == x
        assert x.even_part().alpha() == x.even_part()
        assert x.odd_part().alpha() == -x.odd_part()


def test_volume_element_examples():
    w = volume_element(4, "C")
    assert w == CliffordElement.blade(4, "C", (1, 2, 3, 4), -1)
    assert w * w == scalar(1)
    w3 = volume_element(3, "R")
    assert w3 * w3 == CliffordElement.scalar(3, "R", 1)


def test_projector_examples():
    p_plus = projector(1, 4)
    p_minus = projector(-1, 4)
    assert p_plus + p_minus == scalar(1)
    assert p_plus * p_plus == p_plus
    assert p_minus * p_minus == p_minus
    assert p_plus * p_minus == CliffordElement.zero(4, "C")
    # omega^2 = -1 in Cl(R^2): no splitting there
    with pytest.raises(NotSplitting):
        projector(1, 2, "R")
    with pytest.raises(NotSplitting):
        _doubled_projector(1, 2, "R")
    # 2 pi^+- = 1 +- omega, with integer coefficients
    for n, field in ((4, "C"), (3, "R")):
        for sign in (1, -1):
            doubled = _doubled_projector(sign, n, field)
            assert doubled == projector(sign, n, field) * 2
            assert doubled == (CliffordElement.scalar(n, field, 1)
                               + volume_element(n, field) * sign)
            assert doubled * doubled == doubled * 2
            parts = (doubled.terms.values() if field == "R" else
                     [p for c in doubled.terms.values() for p in (c.re, c.im)])
            assert all(type(p) is int for p in parts)


def test_mu_map_examples():
    i = GR_I
    e4 = mu_map(e(4))
    assert e4 == ExactMatrix([[i, 0, 0, 0], [0, -i, 0, 0],
                              [0, 0, i, 0], [0, 0, 0, -i]])
    assert mu_map(scalar(1)) == ExactMatrix.identity(4)
    assert mu_map(e(1) * e(1)) == -ExactMatrix.identity(4)
    with pytest.raises(DimensionMismatch):
        mu_map(CliffordElement.e(3, "C", 1))


def test_hodge_table_line_for_line():
    for blade, sign, comp in HODGE_TABLE_4:
        assert hodge_star(blade, 4) == (sign, comp)


def test_hodge_involution_on_two_forms():
    s, c = hodge_star((2, 4), 4)
    s2, c2 = hodge_star(c, 4)
    assert (s * s2, c2) == (1, (2, 4))


def test_verify_all_suites_pass():
    reports = verify_all()
    assert len(reports) == 7
    for rep in reports:
        assert rep.ok, rep.failures()


def test_verify_iso_unknown():
    with pytest.raises(ValueError):
        verify_iso("nope")


def test_vector_rank():
    one = GaussianRational(1)
    zero = GaussianRational(0)
    assert vector_rank([[one, zero], [zero, one], [one, one]]) == 2
    assert vector_rank([]) == 0


def _random_matrix(rng, m, n, entry):
    """A random m x n matrix of rank <= r (random r), as a product of two."""
    r = rng.randint(0, min(m, n))
    left = [[entry() for _ in range(r)] for _ in range(m)]
    right = [[entry() for _ in range(n)] for _ in range(r)]
    return [[sum((left[i][t] * right[t][j] for t in range(r)), GaussianRational())
             for j in range(n)] for i in range(m)]


def _realify(rows):
    """The real 2m x 2n form [[A, -B], [B, A]] of A + iB; its rank is twice."""
    re = [[x.re for x in r] for r in rows]
    im = [[x.im for x in r] for r in rows]
    return ([a + [-x for x in b] for a, b in zip(re, im)]
            + [b + a for a, b in zip(re, im)])


def test_vector_rank_against_oracles():
    rng = random.Random(41)
    ints = lambda: GaussianRational(rng.randint(-4, 4))
    gauss = lambda: GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                     Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    for entry in (ints, gauss):
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = _random_matrix(rng, m, n, entry)
            if rng.random() < 0.5:
                rows = [[entry() for _ in range(n)] for _ in range(m)]
                rows[0][0] = GaussianRational()   # a zero first pivot entry
            assert 2 * vector_rank(rows) == rational_rank(_realify(rows))


def test_suites_fail_on_a_broken_matrix_model(monkeypatch):
    # b4 = diag(i, i) turns mu(e4) = I2 (x) b4 into i I4: it still squares
    # to -I4 but commutes with everything, so the half-spin spaces collapse
    broken = _mu_generators()[:3] + [ExactMatrix.identity(4) * GR_I]
    monkeypatch.setattr("twistalex.clifford._mu_generators", lambda: broken)
    _mu_blade.cache_clear()
    try:
        failed = {(r.name, c.description) for name in ("cliffiso", "endiso")
                  for r in [verify_iso(name)] for c in r.failures()}
    finally:
        monkeypatch.undo()
        _mu_blade.cache_clear()
    assert {("cliffiso", "Clifford multiplication swaps (C^4)^+ and (C^4)^-"),
            ("cliffiso", "C^4 -> Hom((C^4)^+, (C^4)^-) is injective (rank 4)"),
            ("cliffiso", "C^4 -> Hom((C^4)^-, (C^4)^+) is injective (rank 4)"),
            ("endiso", "Cl_0^+ preserves (C^4)^+"),
            ("endiso", "Cl_0^+ -> End((C^4)^+) surjective (rank 4)"),
            ("endiso", "Cl_0^- preserves (C^4)^-"),
            ("endiso", "Cl_0^- -> End((C^4)^-) surjective (rank 4)")} <= failed
    assert verify_iso("cliffiso").ok and verify_iso("endiso").ok


# the checks whose right-hand side picks up a power of 2 once the suites use
# 2 pi^+- = 1 +- omega in place of pi^+-
DOUBLED_CHECKS = {
    "cliff3": {f"{h}: {c}" for h in ("H+", "H-")
               for c in ("unit idempotent", "i^2 = -1", "j^2 = -1",
                         "k^2 = -1", "1*i = i", "1*j = j", "1*k = k")}
              | {"H+ lands in the pi^+ summand"},
    "cliffiso": {"pi^+ + pi^- = 1",
                 "Clifford multiplication swaps (C^4)^+ and (C^4)^-",
                 "C^4 -> Hom((C^4)^+, (C^4)^-) is injective (rank 4)",
                 "C^4 -> Hom((C^4)^-, (C^4)^+) is injective (rank 4)"},
    "endiso": {f"Cl_0^{s} preserves (C^4)^{s}" for s in "+-"}
              | {f"Cl_0^{s} -> End((C^4)^{s}) surjective (rank 4)"
                 for s in "+-"},
    "extcliff": {"pi^+ fixes {pi^+, e1e2+e3e4, e1e3-e2e4, e1e4+e2e3}"},
}


def test_doubled_checks_fail_on_wrong_doubled_projectors(monkeypatch):
    wrong = {
        "2*1": lambda sign, n, field: CliffordElement.scalar(n, field, 2),
        "omega": lambda sign, n, field: volume_element(n, field),
        "1 +- 2 omega": lambda sign, n, field: (
            CliffordElement.scalar(n, field, 1)
            + volume_element(n, field) * (2 * sign)),
    }
    failed = {}
    for label, doubled in wrong.items():
        monkeypatch.setattr("twistalex.clifford._doubled_projector", doubled)
        try:
            failed[label] = {(name, c.description) for name in DOUBLED_CHECKS
                             for c in verify_iso(name).failures()}
        finally:
            monkeypatch.undo()
    expected = {(name, d) for name, ds in DOUBLED_CHECKS.items() for d in ds}
    assert expected <= set().union(*failed.values()), expected - set().union(
        *failed.values())
    # no one wrong value covers them all: 2*1 leaves u^2 = 2u standing
    assert ("cliff3", "H+: unit idempotent") not in failed["2*1"]
    assert all(verify_iso(name).ok for name in DOUBLED_CHECKS)


def test_suites_make_no_fraction_outside_vector_rank(monkeypatch):
    # every suite runs on integers; vector_rank's pivot inverses are the one
    # place a Fraction may appear
    made, paused = [0], [False]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made[0] += not paused[0]
        return new(cls, *args, **kwargs)

    def uncounted_rank(vectors):
        paused[0] = True
        try:
            return vector_rank(vectors)
        finally:
            paused[0] = False

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr("twistalex.clifford.vector_rank", uncounted_rank)
    counts = {}
    for name in _SUITES:
        made[0] = 0
        assert verify_iso(name).ok
        counts[name] = made[0]
    made[0] = 0
    projector(1, 4)   # the counter sees the halving
    halving = made[0]
    monkeypatch.undo()
    assert counts == dict.fromkeys(_SUITES, 0)
    assert halving > 0


def test_even_embedding_against_per_index_oracle():
    rng = random.Random(23)
    coefficients = {
        "R": lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
        "C": lambda: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)),
    }
    for n, field in ((4, "R"), (3, "R"), (4, "C")):
        f = _even_embedding(n, field)
        xs = [CliffordElement(n - 1, field, {b: 1}) for b in all_blades(n - 1)]
        xs += [_random_element(rng, n - 1, field, coefficients[field],
                               rng.randint(1, 2 ** (n - 1)))
               for _ in range(30)]
        xs.append(CliffordElement.zero(n - 1, field))
        for x in xs:
            assert f(x) == per_index_even_embedding(x, n, field)
        # the images of the vectors are the e_i e_n
        for i in range(1, n):
            assert (f(CliffordElement.e(n - 1, field, i))
                    == CliffordElement.blade(n, field, (i, n)))


def test_vector_rank_growth_on_a_dense_gaussian_integer_matrix():
    # forward elimination over Q(i) keeps its entries small; a division-free
    # elimination swells them (a dense 24 x 24 ran past 300 s that way)
    rng = random.Random(29)
    entry = lambda: GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9))
    rows = [[entry() for _ in range(32)] for _ in range(32)]
    # the last 8 rows are combinations of earlier ones, so the rank is 24
    for i in range(24, 32):
        c = entry()
        rows[i] = [a + c * b for a, b in zip(rows[i - 24], rows[i - 23])]
    start = time.perf_counter()
    rank = vector_rank(rows)
    elapsed = time.perf_counter() - start
    assert 2 * rank == rational_rank(_realify(rows)) == 48
    assert elapsed < 4, elapsed


def test_hodge_sign_is_the_inversion_parity():
    for n in range(1, 6):
        for blade in all_blades(n):
            sign, comp = hodge_star(blade, n)
            perm = blade + comp
            inversions = sum(perm[i] > perm[j]
                             for i in range(n) for j in range(i + 1, n))
            assert comp == tuple(i for i in range(1, n + 1) if i not in blade)
            assert sign == (-1) ** inversions


def test_blade_mul_against_sorting_oracle():
    for n in range(1, 9):
        blades = all_blades(n)
        assert len(set(blades)) == 2 ** n
        for b1 in blades:
            for b2 in blades:
                sign, mask = _blade_mul(_mask(b1, n), _mask(b2, n))
                assert (sign, _blade(mask)) == blade_product(b1, b2)
                assert mask == sum(1 << (i - 1) for i in _blade(mask))


def test_prefix_parity_against_shift_loop_oracle():
    for n in range(1, 9):
        for b in range(1 << n):
            q = _prefix_parity(b, n)
            assert q == sum(1 << i for i in range(n)
                            if (b & ((2 << i) - 1)).bit_count() & 1)
            for a in range(1 << n):
                sign = -1 if (a & q).bit_count() & 1 else 1
                assert sign == shift_loop_sign(a, b), (n, a, b)


def _index_terms(x):
    return {_blade(m): c for m, c in x.terms.items()}


def _random_element(rng, n, field, coeff, size):
    blades = all_blades(n)
    return CliffordElement(n, field, {rng.choice(blades): coeff()
                                      for _ in range(size)})


def test_product_against_term_by_term_oracle():
    rng = random.Random(19)
    coefficients = (
        ("R", lambda: rng.randint(-4, 4)),
        ("R", lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
        ("C", lambda: GaussianRational(Fraction(rng.randint(-3, 3),
                                                rng.randint(1, 2)),
                                       rng.randint(-3, 3))),
    )
    zeros = 0
    for n in range(1, 9):
        omega = tuple(range(1, n + 1))
        for field, coeff in coefficients:
            pairs = []
            for _ in range(12):
                x = _random_element(rng, n, field, coeff, rng.randint(1, 6))
                y = _random_element(rng, n, field, coeff, rng.randint(1, 6))
                pairs += [(x, y), (y, x), (x, x.alpha())]
            # a vector squares to a scalar: its cross terms cancel
            v = CliffordElement(n, field, {(i,): coeff()
                                           for i in range(1, n + 1)})
            assert set((v * v).terms) <= {0}
            pairs.append((v, v))
            # (1 + omega)(1 - omega) = 1 - omega^2 = 0 when omega^2 = 1
            if n % 4 in (0, 3):
                pairs.append((CliffordElement(n, field, {(): 1, omega: 1}),
                              CliffordElement(n, field, {(): 1, omega: -1})))
            for x, y in pairs:
                got = _index_terms(x * y)
                assert got == _clifford_mul(_index_terms(x), _index_terms(y))
                zeros += not got
    # every term cancels in the omega products (n = 3, 4, 7, 8, three
    # coefficient kinds each), and in (e1 + i e2)^2
    assert zeros >= 12
    v = CliffordElement(2, "C", {(1,): 1, (2,): GR_I})
    assert (v * v).is_zero()


def test_suites_fail_on_an_exclusive_prefix_parity(monkeypatch):
    # the exclusive prefix drops the j = i term of the sign, so e_i e_i = +1
    monkeypatch.setattr("twistalex.clifford._prefix_parity",
                        lambda b, n: _prefix_parity(b, n) ^ b)
    _mu_blade.cache_clear()
    try:
        failures = {name: verify_iso(name).failures()
                    for name in ("cliffmult", "spin4-adjoint")}
    finally:
        monkeypatch.undo()
        _mu_blade.cache_clear()
    assert all(failures.values()), failures
    reports = verify_all()
    assert len(reports) == 7 and all(r.ok for r in reports)


def _field_native(field, c):
    """Over R an exact rational, int or Fraction; over C a GaussianRational
    with int or Fraction parts."""
    if field == "R":
        return type(c) in (int, Fraction)
    return (type(c) is GaussianRational
            and type(c.re) in (int, Fraction) and type(c.im) in (int, Fraction))


def test_coefficients_are_field_native():
    half = Fraction(1, 2)
    for field in ("R", "C"):
        x = CliffordElement(3, field, {(): half, (1,): 2, (1, 3): -3,
                                       (1, 2, 3): GaussianRational(1)})
        y = CliffordElement.e(3, field, 2) * 5 + x * x
        for z in (x, y, x * y, x + y, x - y, -x, 3 * x, x * half,
                  x.grade_part(2), x.even_part(), x.odd_part(), x.alpha()):
            assert z.terms and all(type(m) is int for m in z.terms)
            assert all(_field_native(field, c) and c != 0
                       for c in z.terms.values())
        assert _field_native(field, x.coeff((2, 3))) and x.coeff((2, 3)) == 0
        # an all-integer element keeps int coefficients (int parts over C)
        u = CliffordElement(3, field, {(): 2, (1,): -1, (2, 3): 3})
        v = CliffordElement(3, field, {(1,): 4, (1, 2, 3): -5})
        for z in (u + v, u - v, u * v, -u, 3 * u):
            parts = (z.terms.values() if field == "R" else
                     [p for c in z.terms.values() for p in (c.re, c.im)])
            assert z.terms and all(type(p) is int for p in parts)
        assert (x - x).is_zero() and (x * 0).is_zero()
    with pytest.raises(ValueError, match="imaginary"):
        CliffordElement(3, "R", {(1,): GR_I})
    with pytest.raises(ValueError, match="imaginary"):
        CliffordElement.e(3, "R", 1) * GR_I
    for bad in ((2, 1), (1, 1), (0,), (4,)):
        with pytest.raises(ValueError, match="bad blade"):
            CliffordElement(3, "R", {bad: 1})


def test_repr_text():
    x = CliffordElement(3, "R", {(1, 3): -2, (): Fraction(1, 2),
                                 (1, 2, 3): Fraction(-5, 7), (2,): 3})
    assert repr(x) == "1/2*1 + 3*e2 + -2*e1e3 + -5/7*e1e2e3"
    z = CliffordElement(4, "C", {(1, 4): GaussianRational(1, -2), (2, 3): GR_I,
                                 (): 3, (3,): GaussianRational(Fraction(1, 2),
                                                               Fraction(3, 4))})
    assert repr(z) == "3*1 + (1/2+3/4i)*e3 + (1-2i)*e1e4 + (0+1i)*e2e3"
    assert repr(CliffordElement.zero(2, "R")) == "0"


def test_mu_map_of_basis_blades_is_the_generator_product():
    gens = _mu_generators()
    for blade in all_blades(4):
        product = ExactMatrix.identity(4)
        for i in blade:
            product = product * gens[i - 1]
        assert mu_map(CliffordElement.blade(4, "C", blade)) == product


def _scaled(s, rows):
    return [[s * x for x in r] for r in rows]


def test_spin4_adjoint_against_fraction_oracle():
    rng = random.Random(SPIN4_SEED)
    seen = 0
    for pairs in _spin4_samples():
        vecs = fraction_unit_vectors(rng, rng.choice((2, 4)))
        assert vecs == [tuple(Fraction(x, n) for x in w) for w, n in pairs]
        ref = fraction_adjoint(vecs)
        s, m = _spin4_adjoint(pairs)
        assert m == _scaled(s, ref)
        assert all(sum(ref[i][a] * ref[i][b] for i in range(4))
                   == (a == b) for a in range(4) for b in range(4))
        assert int_det(ref) == 1
        seen += 1
    assert seen == SPIN4_SAMPLES


def test_spin4_adjoint_odd_products_against_fraction_oracle():
    # every sampled product is even, where phi^-1 and the product of the
    # un-negated factors agree; odd ones tell the two apart
    rng, ref_rng = random.Random(5), random.Random(5)
    for k in (1, 3, 1, 3, 5):
        pairs = _rational_unit_vectors(rng, k)
        ref = fraction_adjoint(fraction_unit_vectors(ref_rng, k))
        s, m = _spin4_adjoint(pairs)
        assert m == _scaled(s, ref)
        assert int_det(ref) == -1
