import random

import pytest

from twistalex import exactalg
from twistalex.exactalg import (ChainComplex, ComplexInvalid, ExactSequenceData,
                                HomologyGroup, Inconsistent, IndexOutOfRange,
                                IntMatrix, MapData, Underdetermined,
                                all_homology, exact_sequence_solve, homology,
                                smith_normal_form)

from oracles import (brute_homology, dense_smith_normal_form, int_det,
                     rational_rank)

CPLX_FIXTURES = ("na.cplx", "na_x_s1.cplx", "na_minus_nu.cplx", "empty.cplx")


def check_snf(M, v_first=False):
    """Checks the Smith form of M; U and V are built lazily, so `v_first`
    reads V and U^-1 before U."""
    s = smith_normal_form(M)
    if v_first:
        s.V, s.U_inverse
    assert s.U * M * s.V == s.D
    identity = IntMatrix.identity(M.rows)
    assert s.U * s.U_inverse == s.U_inverse * s.U == identity
    assert abs(int_det(s.U.to_lists())) == 1
    assert abs(int_det(s.V.to_lists())) == 1
    assert s.D.is_diagonal()
    diag = s.D.diagonal()
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d != 0]
    assert diag[:len(nz)] == nz, "zero divisor before a nonzero one"
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    return s


def test_snf_identity():
    s = check_snf(IntMatrix.identity(2))
    assert s.D == IntMatrix.identity(2)


def test_snf_spec_example():
    s = check_snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert s.D.diagonal() == [2, 4]


def test_snf_zero_matrix():
    s = check_snf(IntMatrix.zero(3, 2))
    assert s.D == IntMatrix.zero(3, 2)


def test_snf_random_small():
    rng = random.Random(20240)
    for k in range(200):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = IntMatrix(m, n, [rng.randint(-9, 9) for _ in range(m * n)])
        s = check_snf(M, v_first=k % 2 == 1)
        assert s.rank() == rational_rank(M.to_lists())


def sparse_random_matrix(rng, max_side):
    """A random integer matrix with zero rows, zero columns and empty
    shapes among its cases."""
    m, n = rng.randint(0, max_side), rng.randint(0, max_side)
    p = rng.choice((0.0, 0.5, 0.8))
    a = [[0 if rng.random() < p else rng.randint(-9, 9) for _ in range(n)]
         for _ in range(m)]
    for i in rng.sample(range(m), rng.randint(0, m // 2)):
        a[i] = [0] * n
    for j in rng.sample(range(n), rng.randint(0, n // 2)):
        for row in a:
            row[j] = 0
    return a


def test_snf_transforms_agree_in_either_read_order():
    rng = random.Random(515)
    for _ in range(150):
        M = IntMatrix.from_rows(sparse_random_matrix(rng, 6))
        if not M.rows:
            M = IntMatrix.zero(0, rng.randint(0, 4))
        u_first, v_first = check_snf(M), check_snf(M, v_first=True)
        assert (u_first.U, u_first.D, u_first.V) == (v_first.U, v_first.D,
                                                      v_first.V)
        assert u_first.U is u_first.U and u_first.V is u_first.V


def test_min_abs_pivot_is_the_first_least_entry_row_major():
    """The sparse pivot search, on rows keyed by a random physical column
    order and filled in random order, picks the nonzero at or after (t, t)
    minimizing (|v|, i, j) in logical columns, visiting only the nonzero
    rows from t on."""
    rng = random.Random(77)
    for _ in range(400):
        a = sparse_random_matrix(rng, 7)
        m, n = len(a), len(a[0]) if a else rng.randint(0, 3)
        t = rng.randint(0, min(m, n))
        perm = rng.sample(range(n), n)
        logical = [perm.index(k) for k in range(n)]
        rows = [dict(rng.sample([(perm[j], v) for j, v in enumerate(r) if v],
                                sum(map(bool, r)))) for r in a]
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, m)
                   for j in range(t, n) if a[i][j]]
        if nonzero:
            _, i, j = min(nonzero)
            expected = (i, j, a[i][j])
        else:
            expected = None
        live = [i for i in range(t, m) if rows[i]]
        assert exactalg._min_abs_pivot(rows, logical, t, live) == expected


def boundary_like_matrix(rng, max_side):
    """A random matrix with at most four entries +-1 per column, the shape
    of a cellular boundary, and its column count."""
    m, n = rng.randint(0, max_side), rng.randint(0, max_side)
    a = [[0] * n for _ in range(m)]
    for j in range(n):
        for i in rng.sample(range(m), min(m, rng.randint(0, 4))):
            a[i][j] = rng.choice((1, -1))
    return a, n


def snf_cases():
    """(rows, ncols, checked) for the oracle comparison; `checked` cases
    are small enough for check_snf's cofactor determinants."""
    from twistalex.docio import parse_document
    from conftest import fixture_text
    rng = random.Random(1818)
    for k in range(300):
        a = sparse_random_matrix(rng, 7)
        n = len(a[0]) if a else k % 4
        yield a, n, max(len(a), n) <= 6
    yield [], 5, True
    yield [[]] * 4, 0, True
    for _ in range(150):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        yield ([[rng.randint(-12, 12) for _ in range(n)] for _ in range(m)],
               n, max(m, n) <= 6)
    for _ in range(40):
        yield *boundary_like_matrix(rng, 60), False
    for name in CPLX_FIXTURES:
        for d in parse_document(fixture_text(name))[1].boundaries:
            yield d.to_lists(), d.cols, False


def test_snf_logs_the_dense_oracles_operations():
    for rows, ncols, checked in snf_cases():
        M = IntMatrix(len(rows), ncols, [x for r in rows for x in r])
        s = check_snf(M) if checked else smith_normal_form(M)
        diagonal, row_ops, col_ops = dense_smith_normal_form(rows, ncols)
        assert (s.D.diagonal(), s._row_ops, s._col_ops) == (diagonal, row_ops,
                                                            col_ops)
        assert s.D.is_diagonal()
        if not checked:
            assert s.U * M * s.V == s.D
            assert s.U * s.U_inverse == IntMatrix.identity(M.rows)


def test_all_homology_builds_no_transform(monkeypatch):
    from twistalex.docio import parse_document
    from conftest import fixture_text
    made = []
    real = exactalg.smith_normal_form
    monkeypatch.setattr(exactalg, "smith_normal_form",
                        lambda M: made.append(real(M)) or made[-1])

    def no_replay(ops, n):
        raise AssertionError("all_homology built a transform")
    monkeypatch.setattr(exactalg, "_replay", no_replay)
    C = parse_document(fixture_text("na_x_s1.cplx"))[1]
    assert " ".join(map(str, all_homology(C))) == "Z Z^3 Z^4 Z^3 Z"
    assert len(made) == len(C.boundaries)
    for s in made:
        assert "U" not in vars(s) and "V" not in vars(s)


def na_complex():
    d1 = IntMatrix.zero(1, 3)
    d2 = IntMatrix.from_rows([[0, 0, -1], [0, 0, 0], [0, 0, 0]])
    d3 = IntMatrix.zero(3, 1)
    return ChainComplex([1, 3, 3, 1], [d1, d2, d3])


def test_homology_na():
    C = na_complex()
    assert [str(h) for h in all_homology(C)] == ["Z", "Z^2", "Z^2", "Z"]


def test_homology_na_cross_circle():
    d1 = IntMatrix.zero(1, 4)
    d2 = IntMatrix.from_rows([[0, 0, -1, 0, 0, 0]] + [[0] * 6] * 3)
    d3_rows = [[0] * 4 for _ in range(6)]
    d3_rows[3][3] = 1
    d3 = IntMatrix.from_rows(d3_rows)
    d4 = IntMatrix.zero(4, 1)
    C = ChainComplex([1, 4, 6, 4, 1], [d1, d2, d3, d4])
    assert [h.free_rank for h in all_homology(C)] == [1, 3, 4, 3, 1]
    assert all(not h.torsion for h in all_homology(C))


def test_homology_na_minus_tubular_nbhd():
    d1 = IntMatrix.zero(1, 4)
    d2 = IntMatrix.from_rows([[0, 0, -1, 0], [0, 0, 0, 0],
                              [0, 0, 0, 0], [1, 0, 0, 0]])
    d3 = IntMatrix.from_rows([[0], [0], [0], [1]])
    C = ChainComplex([1, 4, 4, 1], [d1, d2, d3])
    assert [str(homology(C, k)) for k in range(3)] == ["Z", "Z^2", "Z"]
    assert str(homology(C, 3)) == "0"


def test_homology_torsion():
    # circle glued to itself by degree 3: H_1 = Z/3
    C = ChainComplex([1, 1, 1], [IntMatrix.zero(1, 1),
                                 IntMatrix.from_rows([[3]])])
    assert homology(C, 1) == HomologyGroup(0, (3,))
    assert str(homology(C, 1)) == "Z/3"


def test_complex_validation():
    d1 = IntMatrix.from_rows([[1]])
    d2 = IntMatrix.from_rows([[1]])
    with pytest.raises(ComplexInvalid):
        ChainComplex([1, 1, 1], [d1, d2])
    with pytest.raises(IndexOutOfRange):
        homology(na_complex(), 4)


def test_euler_characteristic_matches_ranks():
    from twistalex.docio import parse_document
    from conftest import fixture_text
    complexes = [na_complex()]
    for name in CPLX_FIXTURES:
        complexes.append(parse_document(fixture_text(name))[1])
    for C in complexes:
        chi = C.euler_characteristic()
        assert chi == sum((-1) ** k * homology(C, k).free_rank
                          for k in range(C.dim + 1))


def test_homology_against_brute_oracle():
    rng = random.Random(77)
    for _ in range(60):
        n1 = rng.randint(1, 5)
        n2 = rng.randint(1, 5)
        d2 = IntMatrix(n1, n2, [rng.randint(-3, 3) for _ in range(n1 * n2)])
        C = ChainComplex([1, n1, n2], [IntMatrix.zero(1, n1), d2])
        for k in (1, 2):
            h = homology(C, k)
            free, torsion = brute_homology(
                C.cells[k],
                C.boundary(k).to_lists() if C.boundary(k).rows else [],
                C.boundary(k + 1).to_lists() if k + 1 <= C.dim else [])
            assert (h.free_rank, h.torsion) == (free, torsion)


def mv_sequence():
    terms = [0, "H4", 1, 2, "H3", 3, 6, "H2", 3, 6, "H1", 1, 2, "H0", 0]
    maps = {2: MapData(image=0), 5: MapData(kernel=2, image=1),
            8: MapData(kernel=1, image=2), 11: MapData(kernel=0)}
    return ExactSequenceData(terms, maps)


def test_mayer_vietoris_solver():
    ranks = exact_sequence_solve(mv_sequence())
    names = dict(zip([t for t in mv_sequence().terms if isinstance(t, str)],
                     [r for t, r in zip(mv_sequence().terms, ranks)
                      if isinstance(t, str)]))
    assert names == {"H4": 1, "H3": 4, "H2": 6, "H1": 4, "H0": 1}


def test_exact_sequence_isomorphism():
    seq = ExactSequenceData([0, "A", 5, 0])
    assert exact_sequence_solve(seq) == [0, 5, 5, 0]


def test_exact_sequence_rank_additivity():
    seq = ExactSequenceData([0, "A", 5, 3, 0])
    assert exact_sequence_solve(seq) == [0, 2, 5, 3, 0]


def test_exact_sequence_underdetermined():
    with pytest.raises(Underdetermined):
        exact_sequence_solve(ExactSequenceData(["A", 5, "B"]))


def test_exact_sequence_inconsistent():
    # 0 -> Z^2 -> Z -> 0 exact is impossible
    with pytest.raises(Inconsistent):
        exact_sequence_solve(ExactSequenceData([0, 2, 1, 0],
                                               {1: MapData(kernel=0)}))


def test_exact_sequence_negative_rank_is_refused():
    with pytest.raises(ValueError, match="negative term rank -3"):
        ExactSequenceData([-3])
    for md in (MapData(image=-1), MapData(kernel=-2), MapData(-1, 0)):
        with pytest.raises(ValueError, match="map 0 has a negative rank"):
            ExactSequenceData([2, "x"], {0: md})


def test_all_homology_one_smith_form_per_boundary(monkeypatch):
    import twistalex.exactalg as exactalg
    from twistalex.docio import parse_document
    from conftest import fixture_text
    calls = []
    real = exactalg.smith_normal_form
    monkeypatch.setattr(exactalg, "smith_normal_form",
                        lambda M: calls.append(M) or real(M))
    for C, expected in (
            (na_complex(), "Z Z^2 Z^2 Z"),
            (parse_document(fixture_text("na_x_s1.cplx"))[1],
             "Z Z^3 Z^4 Z^3 Z")):
        calls.clear()
        assert " ".join(map(str, all_homology(C))) == expected
        assert calls == list(C.boundaries)
        calls.clear()
        assert str(homology(C, 1)) == expected.split()[1]
        assert len(calls) == len(C.boundaries)


def test_sparse_product_against_dense_sum():
    """Products of sparse factors, with zero rows on either side, zero-width
    shapes and entries that cancel, against the dense sum; a cancelled entry
    is not stored, so the product equals the dense-built matrix."""
    rng = random.Random(31)
    shapes = [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)]
    shapes += [tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(150)]
    for m, k, n in shapes:
        a = [[rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(k)]
             for _ in range(m)]
        b = [[0] * n if rng.random() < 0.3 else
             [rng.choice((0, rng.randint(-3, 3))) for _ in range(n)]
             for _ in range(k)]
        dense = [sum(a[i][t] * b[t][j] for t in range(k))
                 for i in range(m) for j in range(n)]
        prod = IntMatrix(m, k, sum(a, [])) * IntMatrix(k, n, sum(b, []))
        assert (prod.rows, prod.cols, list(prod.entries)) == (m, n, dense)
        assert prod == IntMatrix(m, n, dense)
        assert prod.is_zero() == (not any(dense))
    # one entry cancels, the other does not
    prod = IntMatrix.from_rows([[1, 1]]) * IntMatrix.from_rows([[1, 2],
                                                                [-1, 3]])
    assert prod.to_lists() == [[0, 5]] and prod == IntMatrix.from_rows([[0, 5]])
    # the d o d check: a product that cancels entry by entry passes, one that
    # leaves an entry fails with the degree in the message
    zero, d2 = IntMatrix.zero(1, 1), IntMatrix.from_rows([[1, 1]])
    C = ChainComplex([1, 1, 2, 2], [zero, d2, IntMatrix.from_rows([[1, 2],
                                                                   [-1, -2]])])
    assert [str(h) for h in all_homology(C)] == ["Z", "0", "0", "Z"]
    with pytest.raises(ComplexInvalid) as err:
        ChainComplex([1, 1, 2, 2], [zero, d2, IntMatrix.from_rows([[1, 2],
                                                                   [-1, 3]])])
    assert str(err.value) == "d_2 o d_3 != 0"
