import random
from itertools import combinations
from math import gcd

import pytest

from twistalex import polymat, twistedalex
from twistalex.bareiss import _int_det
from twistalex.docio import parse_document
from twistalex.grouppres import cyclic_group, enumerate_epimorphisms
from twistalex.laurent import (LaurentPoly, UnitClass, _divexact, _eval,
                               _int_poly_gcd, _mul, _pack, _prim, _sub,
                               _trim)
from twistalex.polymat import (_content_multiple, _gauss_valuation_sum,
                               _hermite_qpart, _independent_rows,
                               _bareiss_det, _prime_factors,
                               _arr_to_poly, _scale, laurent_det,
                               laurent_minor_gcd, max_minor_gcd)
from twistalex.twistedalex import Twister, twisted_alexander

from conftest import fixture_text
from oracles import (brute_minor_gcd, cofactor_det, eager_bareiss, int_det,
                     laurent_bareiss_det, laurent_step, twisted_jacobian)


def random_poly(rng, max_terms=3, max_exp=3, max_coeff=4):
    return LaurentPoly(1, {(rng.randint(-max_exp, max_exp),):
                           rng.randint(-max_coeff, max_coeff)
                           for _ in range(rng.randint(0, max_terms))})


def random_matrix(rng, m, k, **kw):
    return [[random_poly(rng, **kw) for _ in range(k)] for _ in range(m)]


def random_laurent(rng, rank, max_terms=2, max_exp=2, max_coeff=3):
    return LaurentPoly(rank, {tuple(rng.randint(-max_exp, max_exp)
                                    for _ in range(rank)):
                              rng.randint(-max_coeff, max_coeff)
                              for _ in range(rng.randint(0, max_terms))})


def hermite_path_gcd(M):
    """The Hermite route with the content read off the exact pivot minor.

    An oracle for the production route, which finds the content primes from
    integer evaluations instead.
    """
    rows = _pack(M, 1)[0]
    k = len(M[0])
    qpart = _hermite_qpart(rows, k)
    if qpart is None:
        return UnitClass(LaurentPoly.zero(1))
    idx, _, _ = _independent_rows(rows, k)
    m0 = _bareiss_det([rows[i] for i in idx])
    content = 1
    for p in _prime_factors(gcd(*m0)):
        content *= p ** _gauss_valuation_sum(rows, k, p)
    return UnitClass(_arr_to_poly(_scale(qpart, content)))


def test_laurent_det_matches_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        M = random_matrix(rng, n, n)
        assert laurent_det(M, 1) == cofactor_det(M, 1)
    for _ in range(15):
        n = rng.randint(1, 3)
        M = [[LaurentPoly(2, {(rng.randint(-2, 2), rng.randint(-2, 2)):
                              rng.randint(-3, 3)
                              for _ in range(rng.randint(0, 2))})
              for _ in range(n)] for _ in range(n)]
        assert laurent_det(M, 2) == cofactor_det(M, 2)
    # ranks 2 and 3 up to 4 x 4, exponents from -2 to 2; one trial in three
    # has a zero row, one a row that is a multiple of another; the
    # unpacked elimination is a second reference
    zero_dets = 0
    for rank in (2, 3):
        for trial in range(45):
            n = rng.randint(1, 4)
            M = [[random_laurent(rng, rank) for _ in range(n)]
                 for _ in range(n)]
            i, j = rng.randrange(n), rng.randrange(n)
            if trial % 3 == 1:
                M[i] = [LaurentPoly.zero(rank)] * n
            elif trial % 3 == 2 and i != j:
                c = random_laurent(rng, rank, max_terms=3)
                M[i] = [c * e for e in M[j]]
            expected = cofactor_det(M, rank)
            assert laurent_det(M, rank) == expected
            assert laurent_bareiss_det(M, rank) == expected
            zero_dets += expected.is_zero()
    assert 30 <= zero_dets < 80
    # a diagonal of 1 + t1^a t2^b t3^c, a row shifted by t^-(1,1,1): the
    # determinant's top term reaches the sum of the rows' spans in every
    # variable, where one stride less would alias it with another term
    # (t1's exponents are powers of 2, so the 2^n terms stay distinct)
    for n in (1, 3, 4):
        exps = [(1, 2, 3), (2, 0, 1), (4, 3, 0), (8, 1, 2)][:n]
        M = [[LaurentPoly(3, {(0, 0, 0): 1, e: 1}) if i == j
              else LaurentPoly.zero(3) for j in range(n)]
             for i, e in enumerate(exps)]
        M[0] = [e.shift((-1, -1, -1)) for e in M[0]]
        top = tuple(sum(e[v] for e in exps) - 1 for v in range(3))
        det = laurent_det(M, 3)
        assert det == cofactor_det(M, 3) == laurent_bareiss_det(M, 3)
        assert det.coeff(top) == 1 and len(det.terms) == 2 ** n


def test_int_det_against_cofactor_oracle():
    rng = random.Random(41)
    entry = lambda: rng.randint(-4, 4)
    assert _int_det([]) == 1
    for _ in range(120):
        n = rng.randint(1, 5)
        # a product n x r times r x n has rank <= r: singular when r < n
        r = rng.randint(0, n)
        left = [[entry() for _ in range(r)] for _ in range(n)]
        right = [[entry() for _ in range(n)] for _ in range(r)]
        rows = [[sum(left[i][t] * right[t][j] for t in range(r))
                 for j in range(n)] for i in range(n)]
        if rng.random() < 0.5:
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            rows[0][0] = 0   # a zero first pivot entry
        assert _int_det(rows) == int_det(rows)


def test_max_minor_gcd_matches_oracle_small():
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randint(1, 3)
        m = k + rng.randint(0, 2)
        M = random_matrix(rng, m, k)
        assert UnitClass(laurent_minor_gcd(M, 1)) == brute_minor_gcd(M, 1)


def test_hermite_path_matches_enumeration():
    rng = random.Random(31)
    for trial in range(30):
        k = rng.randint(2, 4)
        m = k + rng.randint(1, 3)
        M = random_matrix(rng, m, k, max_terms=2, max_exp=2, max_coeff=3)
        enum = brute_minor_gcd(M, 1)
        assert hermite_path_gcd(M) == enum


def test_hermite_path_with_shared_content():
    rng = random.Random(47)
    for _ in range(20):
        k = rng.randint(2, 3)
        m = k + rng.randint(1, 2)
        M = random_matrix(rng, m, k, max_terms=2, max_exp=2, max_coeff=3)
        c = rng.choice((2, 3, 6, 12))
        M = [[e * c for e in row] for row in M]
        assert hermite_path_gcd(M) == brute_minor_gcd(M, 1)


def test_structured_content_case():
    # every maximal minor shares the prime 2 without the entries all being even
    t = LaurentPoly.var(1)
    one = LaurentPoly.one(1)
    M = [[2 * one, LaurentPoly.zero(1)],
         [LaurentPoly.zero(1), 2 * t],
         [2 * t ** 2, 2 * one]]
    assert hermite_path_gcd(M) == brute_minor_gcd(M, 1)
    assert hermite_path_gcd(M).representative == LaurentPoly.const(1, 4)


def test_rank_deficient_and_wide():
    t = LaurentPoly.var(1)
    one = LaurentPoly.one(1)
    z = LaurentPoly.zero(1)
    # rank 1 but two columns: all 2x2 minors vanish
    M = [[t - one, 2 * (t - one)], [t, 2 * t], [one, 2 * one]]
    assert laurent_minor_gcd(M, 1).is_zero()
    assert hermite_path_gcd(M).is_zero()
    # fewer rows than columns: free cokernel
    assert laurent_minor_gcd([[t, one]], 1).is_zero()
    assert laurent_minor_gcd([], 1, ncols=2).is_zero()
    assert laurent_minor_gcd([[z, z], [z, z]], 1).is_zero()
    # zero columns: the empty determinant
    assert laurent_minor_gcd([], 1, ncols=0) == one


def test_multivariable_minor_gcd():
    rng = random.Random(53)
    for _ in range(15):
        k = rng.randint(1, 2)
        m = k + rng.randint(0, 2)
        M = [[LaurentPoly(2, {(rng.randint(-1, 1), rng.randint(-1, 1)):
                              rng.randint(-2, 2)
                              for _ in range(rng.randint(0, 2))})
              for _ in range(k)] for _ in range(m)]
        assert UnitClass(laurent_minor_gcd(M, 2)) == brute_minor_gcd(M, 2)


def _sympy_array(poly):
    return [] if poly.is_zero else [int(c) for c in poly.all_coeffs()[::-1]]


def test_int_poly_gcd_against_sympy():
    # exact agreement, sign and content included, with sympy's gcd over ZZ[t]
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    cyclotomic = ([-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, 1, 1, 1, 1],
                  [1, -1, 1])

    def random_array(rng):
        return _trim([rng.randint(-5, 5) for _ in range(rng.randint(0, 4))])

    def sympy_gcd(a, b):
        g = sympy.gcd(sympy.Poly(a[::-1] or [0], t, domain="ZZ"),
                      sympy.Poly(b[::-1] or [0], t, domain="ZZ"))
        return _sympy_array(g)

    rng = random.Random(71)
    for trial in range(200):
        common = [rng.choice((1, -1)) * rng.choice((1, 2, 3, 6))]
        for _ in range(rng.randint(0, 2)):
            common = _mul(common, rng.choice(cyclotomic))
        a = [] if trial % 10 == 0 else _mul(common, random_array(rng))
        b = _mul(common, random_array(rng))
        assert _int_poly_gcd(a, b) == sympy_gcd(a, b)
        assert _int_poly_gcd(b, a) == sympy_gcd(a, b)


def _sparse_entry(rng):
    """0, +-1, +-t^k or 1 - t^k with 1 <= k <= 6, as a Z[t] array."""
    kind, k = rng.randrange(5), rng.randint(1, 6)
    if kind < 2:
        return []
    if kind == 2:
        return [rng.choice((1, -1))]
    if kind == 3:
        return [0] * k + [rng.choice((1, -1))]
    return [1] + [0] * (k - 1) + [-1]


def _sympy_det(sympy, t, rows):
    """sympy's determinant of a square matrix of Z[t] arrays, as a Poly."""
    expr = sympy.Matrix([[sum(c * t**i for i, c in enumerate(e)) for e in row]
                         for row in rows]).det()
    return sympy.Poly(sympy.expand(expr), t, domain="ZZ")


def _sparse_laurent(rng, rank):
    """0, +-1, +-t^e or 1 - t^e, e with entries from -2 to 3."""
    kind = rng.randrange(5)
    e = tuple(rng.randint(-2, 3) for _ in range(rank))
    if kind < 2:
        return LaurentPoly.zero(rank)
    if kind == 2:
        return LaurentPoly.const(rank, rng.choice((1, -1)))
    if kind == 3:
        return LaurentPoly.monomial(rank, e, rng.choice((1, -1)))
    return LaurentPoly.one(rank) - LaurentPoly.monomial(rank, e)


def _sympy_laurent_det(sympy, ts, M):
    """sympy's determinant of a square LaurentPoly matrix, taken on the
    rows times (t1 ... tr)^2, which makes them polynomial."""
    def entry(p):
        return sum(c * sympy.Mul(*(t**(k + 2) for t, k in zip(ts, e)))
                   for e, c in p.terms.items())

    det = sympy.Matrix([[entry(p) for p in row] for row in M]).det()
    poly = sympy.Poly(sympy.expand(det), *ts, domain="ZZ")
    return LaurentPoly(len(ts), {tuple(k - 2 * len(M) for k in e): int(c)
                                 for e, c in poly.terms()})


def test_laurent_det_against_sympy():
    # rank 1 on Z[t] arrays, ranks 2 and 3 with negative exponents; the
    # determinant is exact
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    rng = random.Random(97)
    for _ in range(80):
        n = rng.randint(1, 4)
        rows = [[_sparse_entry(rng) for _ in range(n)] for _ in range(n)]
        M = [[_arr_to_poly(e) for e in row] for row in rows]
        expected = _sympy_array(_sympy_det(sympy, t, rows))
        assert laurent_det(M, 1) == _arr_to_poly(expected)
    for rank in (2, 3):
        ts = sympy.symbols(f"t1:{rank + 1}")
        nonzero = 0
        for _ in range(40):
            n = rng.randint(1, 4)
            M = [[_sparse_laurent(rng, rank) for _ in range(n)]
                 for _ in range(n)]
            det = laurent_det(M, rank)
            assert det == _sympy_laurent_det(sympy, ts, M)
            nonzero += not det.is_zero()
        assert nonzero >= 20


@pytest.mark.parametrize("enum_bound", [polymat.ENUM_BOUND, 0],
                         ids=["enumeration", "hermite"])
def test_max_minor_gcd_against_sympy(monkeypatch, enum_bound):
    # the gcd of all maximal minors over Z[t], content included, up to the
    # sign and the power of t that max_minor_gcd leaves to its caller
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    monkeypatch.setattr(polymat, "ENUM_BOUND", enum_bound)

    def normal(a):
        a = a[next((i for i, c in enumerate(a) if c), len(a)):]
        return _scale(a, -1) if a and a[-1] < 0 else a

    rng = random.Random(101)
    for _ in range(60):
        k = rng.randint(1, 4)
        rows = [[_sparse_entry(rng) for _ in range(k)]
                for _ in range(rng.randint(k, 5))]
        g = sympy.Poly(0, t, domain="ZZ")
        for idx in combinations(range(len(rows)), k):
            g = sympy.gcd(g, _sympy_det(sympy, t, [rows[i] for i in idx]))
        assert normal(max_minor_gcd(rows, k)) == normal(_sympy_array(g))


def test_prime_factors():
    assert _prime_factors(1) == []
    assert _prime_factors(2 * 2 * 3 * 97) == [2, 3, 97]
    assert _prime_factors(10007 * 10009) == [10007, 10009]


# ---- the production Hermite route: content primes from integer values ----

@pytest.fixture
def hermite_route(monkeypatch):
    """Send every single-variable matrix down the Hermite route and record
    the (prime, valuation) pairs the content step examines."""
    monkeypatch.setattr(polymat, "ENUM_BOUND", 0)
    examined = []
    real = polymat._gauss_valuation_sum

    def recording(rows, k, p):
        w = real(rows, k, p)
        examined.append((p, w))
        return w

    monkeypatch.setattr(polymat, "_gauss_valuation_sum", recording)
    return examined


def poly_matmul(A, B):
    zero = LaurentPoly.zero(1)
    return [[sum((a * B[i][j] for i, a in enumerate(row)), zero)
             for j in range(len(B[0]))] for row in A]


def test_production_route_with_shared_content(hermite_route):
    rng = random.Random(47)
    for _ in range(20):
        k = rng.randint(2, 3)
        m = k + rng.randint(1, 2)
        M = random_matrix(rng, m, k, max_terms=2, max_exp=2, max_coeff=3)
        c = rng.choice((2, 3, 6, 12))
        M = [[e * c for e in row] for row in M]
        assert UnitClass(laurent_minor_gcd(M, 1)) == brute_minor_gcd(M, 1)


def test_production_route_structured_content(hermite_route):
    t = LaurentPoly.var(1)
    one = LaurentPoly.one(1)
    M = [[2 * one, LaurentPoly.zero(1)],
         [LaurentPoly.zero(1), 2 * t],
         [2 * t ** 2, 2 * one]]
    assert laurent_minor_gcd(M, 1) == LaurentPoly.const(1, 4)
    assert UnitClass(laurent_minor_gcd(M, 1)) == brute_minor_gcd(M, 1)


@pytest.mark.parametrize("content", [1, 7])
def test_production_route_fixed_divisor_of_the_qpart(hermite_route,
                                                     monkeypatch, content):
    # every minor is content*(t^6-1)^2 times a minor of B, and x^6 - 1 is
    # divisible by 7 at x = 2..6: only dividing the pivot minor's values by
    # qpart(x) brings their gcd down to the content within a point or two
    t = LaurentPoly.var(1)
    one = LaurentPoly.one(1)
    z = LaurentPoly.zero(1)
    q = (t ** 6 - one) ** 2
    B = [[one, z], [z, one], [t, t + one], [one - t, 2 * one]]
    M = poly_matmul(poly_matmul(B, [[content * one, z], [z, q]]),
                    [[one, t ** 2], [z, one]])
    assert brute_minor_gcd(B, 1) == UnitClass(one)
    assert brute_minor_gcd(M, 1) == UnitClass(content * q)
    assert UnitClass(laurent_minor_gcd(M, 1)) == UnitClass(content * q)
    assert set(hermite_route) == ({(7, 1)} if content == 7 else set())

    rows = _pack(M, 1)[0]
    idx, x, minor = _independent_rows(rows, 2)
    pivot_rows = [rows[i] for i in idx]
    # the points up to x, which _independent_rows has been through
    points = list(range(2, x + 1))
    real = polymat._evaluations

    def recording(rows, k, start):
        for x, found in real(rows, k, start):
            points.append(x)
            yield x, found

    monkeypatch.setattr(polymat, "_evaluations", recording)
    g = _content_multiple(pivot_rows, _hermite_qpart(rows, 2), x, minor)
    assert g % content == 0 and g < 7 * content
    if content == 1:
        assert len(points) <= 2


def test_production_route_spurious_prime(hermite_route):
    # t^2+t and t^2+t+2 are even at every integer but have gcd 1, so the
    # pivot minor's values are all even: 2 is a candidate with valuation 0
    t = LaurentPoly.var(1)
    one = LaurentPoly.one(1)
    z = LaurentPoly.zero(1)
    M = [[t ** 2 + t, z], [z, one], [t ** 2 + t + 2 * one, z]]
    assert laurent_minor_gcd(M, 1) == one
    assert brute_minor_gcd(M, 1) == UnitClass(one)
    assert (2, 0) in hermite_route


def test_independent_rows_against_brute_rank():
    rng = random.Random(61)
    deficient_seen = full_seen = 0
    for trial in range(60):
        k = rng.randint(1, 3)
        m = k + rng.randint(0, 2)
        if trial % 3 == 0 and k > 1:
            # rank <= k - 1 by construction
            M = poly_matmul(random_matrix(rng, m, k - 1),
                            random_matrix(rng, k - 1, k))
        else:
            M = random_matrix(rng, m, k, max_terms=2)
        rows = _pack(M, 1)[0]
        found = _independent_rows(rows, k)
        deficient = all(cofactor_det([M[i] for i in s], 1).is_zero()
                        for s in combinations(range(m), k))
        assert (found is None) == deficient
        if found is not None:
            idx, x, minor = found
            assert idx == sorted(set(idx)) and len(idx) == k
            d = _bareiss_det([rows[i] for i in idx])
            assert d != []
            assert minor != 0 and abs(minor) == abs(_eval(d, x))
        deficient_seen += deficient
        full_seen += not deficient
    assert deficient_seen and full_seen


def test_independent_rows_past_vanishing_points():
    # the only minor, (t-2)(t-3), vanishes at the first two points
    assert _independent_rows([[[6, -5, 1]]], 1) == ([0], 4, 2)
    assert _independent_rows([[[-2, 1]], [[-4, 0, 1]]], 1) == ([0], 3, 1)
    assert _independent_rows([[[]], [[]]], 1) is None


def na_twisted_jacobian(n):
    """twisted_jacobian of na.pres for its first Z_n quotient, column c
    deleted: rows of Z[t] arrays and the cyclotomic summands; and the
    twisted polynomial's raw minor gcd."""
    _, (P, classes) = parse_document(fixture_text("na.pres"))
    q = enumerate_epimorphisms(P, cyclic_group(n))[0]
    phi = classes["fib"]
    rows, summands = twisted_jacobian(phi, q, 2)
    return rows, summands, twisted_alexander(Twister(phi), q).raw_minor_gcd


def laurent_rows(rows):
    return [[_arr_to_poly(e) for e in r] for r in rows]


def test_row_order_does_not_change_the_gcd():
    M = laurent_rows(na_twisted_jacobian(21)[0])
    assert (len(M), len(M[0])) == (63, 42)
    expected = laurent_minor_gcd(M, 1)
    assert not expected.is_zero()
    for s in (1, 2, 3):
        shuffled = list(M)
        random.Random(s).shuffle(shuffled)
        assert laurent_minor_gcd(shuffled, 1) == expected


# ---- the lazy elimination against the eager one ----

def _int_step(p, f, us, vs, prev):
    return [(p * u - f * v) // prev for u, v in zip(us, vs)]


def _array_step(p, f, xs, ys, prev):
    return [_divexact(_sub(_mul(x, p), _mul(f, y)), prev) if x or y else []
            for x, y in zip(xs, ys)]


def _sparse_rows(rng, m, k, entry, zero, scale):
    """m x k, about a third of the entries nonzero; in one trial of three
    a column is zero or a multiple of another, so the rank is < k."""
    rows = [[entry() if rng.random() < 0.35 else zero for _ in range(k)]
            for _ in range(m)]
    if k > 1 and rng.random() < 1 / 3:
        i, j = rng.sample(range(k), 2)
        c = rng.choice((None, entry()))
        for r in rows:
            r[j] = zero if c is None else scale(r[i], c)
    return rows


def test_lazy_bareiss_against_eager_oracle():
    rng = random.Random(83)
    counts = {"lazy": 0, "eager": 0}

    def counted(name, step):
        def wrapped(*args):
            counts[name] += 1
            return step(*args)
        return wrapped

    def int_entry():
        return rng.choice((-1, 1)) * rng.randint(1, 9)

    def array_entry():
        return _trim([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]) \
            or [1]

    def rank2_entry():
        return LaurentPoly(2, {(rng.randint(-1, 1), rng.randint(-1, 1)):
                               rng.choice((-2, -1, 1, 2))
                               for _ in range(rng.randint(1, 2))})

    rank2_zero, rank2_one = LaurentPoly.zero(2), LaurentPoly.one(2)
    rings = [
        (int_entry, 0, 1, _int_step, lambda x, c: x * c, 7, 300),
        (array_entry, [], [1], _array_step, _mul, 6, 150),
        (rank2_entry, rank2_zero, rank2_one, laurent_step,
         lambda x, c: x * c, 3, 40),
    ]
    outcomes = set()
    for entry, zero, one, step, scale, kmax, trials in rings:
        for _ in range(trials):
            k = rng.randint(1, kmax)
            m = k + rng.randint(0, 4)
            rows = _sparse_rows(rng, m, k, entry, zero, scale)
            lazy = polymat._bareiss([list(r) for r in rows], k, zero, one,
                                    counted("lazy", step))
            eager = eager_bareiss([list(r) for r in rows], k, zero, one,
                                  counted("eager", step))
            assert lazy == eager, rows
            outcomes.add((step, lazy is None))
    # every ring met full-rank and rank-deficient matrices
    assert len(outcomes) == 2 * len(rings)
    assert counts["lazy"] < counts["eager"]


def test_na_z16_runs_one_evaluation_pass(monkeypatch):
    # the pivot minor found at the first point leaves content 1, so the
    # content search runs no elimination of its own
    rows, _, expected = na_twisted_jacobian(16)
    M = laurent_rows(rows)
    assert (len(M), len(M[0])) == (48, 32)
    calls = []
    real = polymat._evaluations

    def counting(rows, k, start):
        calls.append(start)
        return real(rows, k, start)

    monkeypatch.setattr(polymat, "_evaluations", counting)
    assert UnitClass(laurent_minor_gcd(M, 1)) == expected
    assert calls == [2]


# ---- rational summands and the evaluation points ----

def test_rank_deficient_summand_comes_first(monkeypatch):
    """A Twister reads a Z_n quotient's blocks trivial first, and the first
    of rank below its width makes the raw gcd 0: no later block is read or
    assembled, and no minor gcd runs."""
    _, (P, classes) = parse_document(fixture_text("na.pres"))
    q = enumerate_epimorphisms(P, cyclic_group(4))[0]
    twister = Twister(classes["fib"])
    # a block of rank below its width has the part [], whatever the other
    # blocks hold
    keys = [twistedalex._block_key(q.images, d) for d in (1, 2)]
    twister._parts.update(zip(keys, [([1], 1), ([], 0)]))

    def refuse(*args):
        raise AssertionError("another path ran")

    for name in ("_enum_minor_gcd_arrays", "_independent_rows",
                 "_hermite_qpart"):
        monkeypatch.setattr(polymat, name, refuse)
    # the d = 4 block, after the rank-deficient one, would be assembled
    monkeypatch.setattr(twistedalex, "_twisted_rows", refuse)
    assert twister.raw_minor_gcd(q).is_zero()
    assert list(twister._parts) == keys


def test_covering_summands_replace_the_full_hermite(monkeypatch):
    """The product of the summands' Hermite parts, its power of t removed,
    is the Q[t] part of the regular rows when the blocks cover all k
    columns: given it as qpart, max_minor_gcd runs no Hermite reduction of
    its own and returns the gcd it computes from the rows alone."""
    rows, summands, expected = na_twisted_jacobian(12)
    k = 24
    widths = []
    real = polymat._hermite_qpart

    def recording(rows, k):
        widths.append(k)
        return real(rows, k)

    monkeypatch.setattr(polymat, "_hermite_qpart", recording)
    parts = [polymat._hermite_qpart(block, k_s) for block, k_s in summands]
    # d = 1, 2, 3, 4, 6, 12: phi(d) columns per generator block, two blocks
    assert widths == [2, 2, 4, 4, 4, 8]
    qpart = [1]
    for part in parts:
        qpart = _mul(qpart, part)
    qpart = _prim(qpart[next(i for i, c in enumerate(qpart) if c):])
    widths.clear()
    split = max_minor_gcd(rows, k, qpart)
    assert widths == []
    full = max_minor_gcd(rows, k)
    assert widths == [k]
    assert split and UnitClass(_arr_to_poly(split)) == UnitClass(
        _arr_to_poly(full)) == expected


@pytest.mark.parametrize("enum_bound", [polymat.ENUM_BOUND, 0],
                         ids=["enumeration", "hermite"])
def test_skip_leaves_out_its_primes(monkeypatch, enum_bound):
    """max_minor_gcd(rows, k, skip=s) is the gcd of the maximal minors with
    the primes of s removed from its content, for s = 1, 2, 6, 12, on the
    enumeration path and on the Hermite path; brute_minor_gcd is the
    oracle.  The rows are scaled by a content that shares a prime with some
    s in most trials."""
    monkeypatch.setattr(polymat, "ENUM_BOUND", enum_bound)
    rng = random.Random(113)
    removed = zero = 0
    for _ in range(40):
        k = rng.randint(1, 3)
        m = k + rng.randint(0, 2)
        c = rng.choice((1, 2, 3, 4, 5, 6, 10, 12))
        M = [[e * c for e in row] for row in
             random_matrix(rng, m, k, max_terms=2, max_exp=2, max_coeff=3)]
        rows = _pack(M, 1)[0]
        expected = brute_minor_gcd(M, 1).representative
        zero += expected.is_zero()
        for s in (1, 2, 6, 12):
            got = max_minor_gcd(rows, k, skip=s)
            if expected.is_zero():
                assert got == []
                continue
            content = kept = gcd(*expected.terms.values())
            while gcd(kept, s) > 1:
                kept //= gcd(kept, s)
            removed += kept != content
            assert UnitClass(_arr_to_poly(got)) == UnitClass(LaurentPoly(
                1, {e: v // (content // kept)
                    for e, v in expected.terms.items()}))
    assert zero and removed > 20


def test_evaluations_skip_zero_entries(monkeypatch):
    rows, _, _ = na_twisted_jacobian(16)
    nonzero = sum(1 for r in rows for e in r if e)
    assert (nonzero, len(rows) * len(rows[0])) == (80, 1536)
    calls = []
    real = polymat._eval
    monkeypatch.setattr(polymat, "_eval",
                        lambda a, x: calls.append(x) or real(a, x))
    x, found = next(polymat._evaluations(rows, 32, 2))
    assert found is not None and calls == [x] * nonzero
