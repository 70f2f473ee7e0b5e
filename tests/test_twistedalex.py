import random
import sys
from functools import cached_property
from math import comb, gcd

import pytest

from twistalex.docio import parse_document
from twistalex.grouppres import (ClassMap, FiniteQuotient, Incompatible,
                                 InvalidQuotient, Presentation, abelianize,
                                 cyclic_group, dihedral_group,
                                 enumerate_epimorphisms,
                                 reidemeister_schreier,
                                 symmetric_group, trivial_group,
                                 trivial_quotient)
from twistalex.laurent import (LaurentPoly, UnitClass, laurent_degree,
                               specialize, symmetric_representative,
                               _arr_to_poly, _cyclotomic, _mul, _pack, _prim)
from twistalex.normsfibred import fibred_certificate, group_catalog
from twistalex import normsfibred, polymat, twistedalex
from twistalex.polymat import _hermite_qpart, max_minor_gcd
from twistalex.twistedalex import (NoValidColumn, Twister,
                                   multivariable_alexander, twist_ring_map,
                                   twisted_alexander, _regular_rep,
                                   _twisted_rows)

from conftest import fixture_text
from oracles import (eager_twisted_alexander, fox_derivative,
                     mapping_torus_alexander, pullback_class,
                     seifert_alexander, summand_reps, twist_by_letters,
                     twisted_jacobian)


def na_presentation():
    return Presentation.from_text(
        ["a", "b", "c"], ["[a,b]", "[a,c]", "b c b^-1 a^-1 c^-1"])


def na_fibration_class(P=None):
    P = P or na_presentation()
    return ClassMap(P, [(0,), (0,), (1,)])


def trefoil():
    return Presentation.from_text(["x", "y"], ["x y x y^-1 x^-1 y^-1"])


def fig8():
    return Presentation.from_text(
        ["u", "v", "c"],
        ["c u c^-1 u^-1 v^-1 u^-1", "c v c^-1 u^-1 v^-1"])


def mapping_torus(A, check_det=True):
    """<a,b,c | [a,b], c a c^-1 w^-1, c b c^-1 v^-1> with w, v realizing A."""
    if check_det:
        assert A[0][0] * A[1][1] - A[0][1] * A[1][0] == 1
    def power(g, k):
        return ((g, 1),) * k if k >= 0 else ((g, -1),) * (-k)
    w = power(0, A[0][0]) + power(1, A[1][0])
    v = power(0, A[0][1]) + power(1, A[1][1])
    c = ((2, 1),)
    cinv = ((2, -1),)
    rels = [
        ((0, 1), (1, 1), (0, -1), (1, -1)),
        c + ((0, 1),) + cinv + tuple((g, -s) for g, s in reversed(w)),
        c + ((1, 1),) + cinv + tuple((g, -s) for g, s in reversed(v)),
    ]
    return Presentation(["a", "b", "c"], rels)


def test_twist_ring_map_examples():
    P = Presentation(["a"], [])
    phi = ClassMap(P, [(1,)])
    dense = twist_ring_map({((0, 1),): 1}, trivial_quotient(P), phi)
    assert dense == [[LaurentPoly.var(1)]]

    q = FiniteQuotient(P, cyclic_group(2), (1,))
    # Phi(a) = 0 is trivial, so use Phi(a) = 2 and inspect the swap part
    phi2 = ClassMap(P, [(2,)])
    one = LaurentPoly.monomial(1, (2,))
    zero = LaurentPoly.zero(1)
    assert twist_ring_map({((0, 1),): 1}, q, phi2) == [[zero, one],
                                                       [one, zero]]

    sq = twist_ring_map({((0, 1), (0, 1)): 1}, q, phi)
    t2 = LaurentPoly.monomial(1, (2,))
    assert sq == [[t2, zero], [zero, t2]]


def test_twist_ring_map_against_letter_products():
    """twist_ring_map against the letter-by-letter oracle on every Fox
    Jacobian entry and on g - 1 for every generator, over every catalog
    quotient of order <= 8 of na, fig8, trefoil and T^3, with a rank-1 class
    on each and the rank-3 abelianization class on T^3."""
    t3 = Presentation.from_text(["a", "b", "c"], ["[a,b]", "[a,c]", "[b,c]"])
    cases = ((na_presentation(), na_fibration_class()),
             (fig8(), ClassMap(fig8(), [(0,), (0,), (1,)])),
             (trefoil(), ClassMap(trefoil(), [(1,), (1,)])),
             (t3, ClassMap(t3, [(1,), (0,), (0,)])),
             (t3, ClassMap(t3, abelianize(t3).gen_images)))
    total = 0
    for P, phi in cases:
        elements = [fox_derivative(r, g) for r in P.relators
                    for g in range(P.ngens)]
        elements += [{((g, 1),): 1, (): -1} for g in range(P.ngens)]
        for G in group_catalog(8):
            for q in enumerate_epimorphisms(P, G):
                for x in elements:
                    assert (twist_ring_map(x, q, phi)
                            == twist_by_letters(x, q, phi))
                total += 1
    assert total == 2699


def test_twist_degree_is_bounded_before_any_polynomial(monkeypatch):
    from twistalex.grouppres import BoundExceeded
    from twistalex.twistedalex import MAX_TWIST_DEGREE

    class Reached(Exception):
        pass

    def reached(*_):
        raise Reached

    # a twist within the bound goes on to the raw gcd, which the sentinel
    # stops before any polynomial of degree near the bound is built
    monkeypatch.setattr(Twister, "raw_minor_gcd", reached)
    # Phi = (v, 1): the generators and a b a^-1 b^-1 give a Phi-length of
    # 3v + 3, times |G| = 2
    P = Presentation.from_text(["a", "b"], ["[a,b]"])
    q = FiniteQuotient(P, cyclic_group(2), (0, 1))
    v = (MAX_TWIST_DEGREE // 2 - 3) // 3
    with pytest.raises(Reached):
        twisted_alexander(Twister(ClassMap(P, [(v,), (1,)])), q)
    with pytest.raises(BoundExceeded, match=f"twist degree {6 * v + 12} "
                                            f"exceeds the bound"):
        twisted_alexander(Twister(ClassMap(P, [(v + 1,), (1,)])), q)


def test_twist_ring_map_incompatible_generator():
    from twistalex.grouppres import Incompatible
    P = Presentation(["a"], [])
    with pytest.raises(Incompatible):
        twist_ring_map({((3, 1),): 1}, trivial_quotient(P),
                       ClassMap(P, [(1,)]))


def test_twist_ring_map_group_ring_element():
    P = Presentation(["a"], [])
    x = {((0, 1),): 1, (): -1}  # a - 1
    t = LaurentPoly.var(1)
    assert (twist_ring_map(x, trivial_quotient(P), ClassMap(P, [(1,)]))
            == [[t - LaurentPoly.one(1)]])


def test_na_fibration_polynomial():
    P = na_presentation()
    tw = twisted_alexander(Twister(na_fibration_class(P)), trivial_quotient(P))
    expected = mapping_torus_alexander([[1, 1], [0, 1]])
    assert tw.value == expected
    assert laurent_degree(tw.value.representative) == 2


def test_trefoil_polynomial_vs_seifert_oracle():
    P = trefoil()
    phi = ClassMap(P, [(1,), (1,)])
    tw = twisted_alexander(Twister(phi), trivial_quotient(P))
    assert tw.value == seifert_alexander([[-1, 1], [0, -1]])
    assert str(tw.value) == "t^2 - t + 1"


def test_fig8_polynomial_vs_seifert_oracle():
    P = fig8()
    phi = ClassMap(P, [(0,), (0,), (1,)])
    tw = twisted_alexander(Twister(phi), trivial_quotient(P))
    assert tw.value == seifert_alexander([[1, 1], [0, -1]])
    assert str(tw.value) == "t^2 - 3*t + 1"


def random_sl2z(rng, bound=3):
    gens = ([[1, 1], [0, 1]], [[1, 0], [1, 1]],
            [[1, -1], [0, 1]], [[1, 0], [-1, 1]])
    while True:
        A = [[1, 0], [0, 1]]
        for _ in range(rng.randint(1, 6)):
            B = rng.choice(gens)
            A = [[A[0][0] * B[0][0] + A[0][1] * B[1][0],
                  A[0][0] * B[0][1] + A[0][1] * B[1][1]],
                 [A[1][0] * B[0][0] + A[1][1] * B[1][0],
                  A[1][0] * B[0][1] + A[1][1] * B[1][1]]]
        if all(abs(x) <= bound for row in A for x in row):
            return A


def test_torus_bundle_family():
    rng = random.Random(2014)
    seen = 0
    while seen < 20:
        A = random_sl2z(rng)
        P = mapping_torus(A)
        phi = ClassMap(P, [(0,), (0,), (1,)])
        tw = twisted_alexander(Twister(phi), trivial_quotient(P))
        assert tw.value == mapping_torus_alexander(A), A
        seen += 1


def test_column_independence():
    """The value is the same up to units for every valid deleted column:
    the eager oracle, forced to each valid j, against the library's one
    column."""
    cases = [
        (na_presentation(), [(0,), (1,), (1,)]),
        (na_presentation(), [(0,), (0,), (1,)]),
        (trefoil(), [(1,), (1,)]),
        (fig8(), [(0,), (0,), (1,)]),
    ]
    for P, images in cases:
        phi = ClassMap(P, images)
        q = trivial_quotient(P)
        value = twisted_alexander(Twister(phi), q).value
        valid = [j for j in range(P.ngens) if any(phi.of_generator(j))]
        assert valid
        for j in valid:
            assert eager_twisted_alexander(phi, q, column=j).value == value


def test_column_independence_twisted():
    P = na_presentation()
    phi = na_fibration_class(P)
    twister = Twister(phi)
    valid = [j for j in range(P.ngens) if any(phi.of_generator(j))]
    for q in enumerate_epimorphisms(P, cyclic_group(2)):
        value = twisted_alexander(twister, q).value
        for j in valid:
            assert eager_twisted_alexander(phi, q, column=j).value == value


def test_cover_consistency_small():
    P = na_presentation()
    phi = na_fibration_class(P)
    for G in (cyclic_group(2), cyclic_group(3), dihedral_group(2)):
        for q in enumerate_epimorphisms(P, G):
            tw = twisted_alexander(Twister(phi), q)
            phi_a, _ = pullback_class(phi, q, reidemeister_schreier(P, q))
            tw_cover = twisted_alexander(Twister(phi_a),
                                         trivial_quotient(phi_a.presentation))
            assert tw.value == tw_cover.value


def test_cover_consistency_nonabelian():
    P = trefoil()
    phi = ClassMap(P, [(1,), (1,)])
    for G in (symmetric_group(3),):
        for q in enumerate_epimorphisms(P, G):
            tw = twisted_alexander(Twister(phi), q)
            phi_a, _ = pullback_class(phi, q, reidemeister_schreier(P, q))
            tw_cover = twisted_alexander(Twister(phi_a),
                                         trivial_quotient(phi_a.presentation))
            assert tw.value == tw_cover.value


def test_coset_table_against_word_map_and_cover():
    """The coset table against two independent oracles, on every epimorphism
    of na, fig8, trefoil and T^3 onto a catalog group of order <= 12:
    transversal words rebuilt from the parent edges evaluate to their coset,
    the Schreier generator words lie in the kernel, and the Schreier
    Phi-values have the gcd that pullback_class reports."""
    t3 = Presentation.from_text(["a", "b", "c"], ["[a,b]", "[a,c]", "[b,c]"])
    cases = ((na_presentation(), [(0,), (0,), (1,)]),
             (fig8(), [(0,), (0,), (1,)]),
             (trefoil(), [(1,), (1,)]),
             (t3, [(1,), (0,), (0,)]))
    total = 0
    for P, images in cases:
        phi = ClassMap(P, images)
        for G in group_catalog(12):
            for q in enumerate_epimorphisms(P, G):
                total += 1
                assert sorted(q.order) == list(range(G.order))
                assert all(q.order[q.position[x]] == x for x in q.order)
                words = {0: ()}
                for y in q.order[1:]:
                    x, i, s = q.parent[y]
                    assert q.position[x] < q.position[y]
                    words[y] = words[x] + ((i, s),)
                for x, word in words.items():
                    assert q.of_word(word) == x
                schreier = reidemeister_schreier(P, q)
                assert all(q.of_word(w) == 0 for w in schreier)
                div = 0
                for x in q.order:
                    for i, img in enumerate(q.images):
                        y = G.mul(x, img)
                        v = (phi.of_word(words[x])[0] + images[i][0]
                             - phi.of_word(words[y])[0])
                        div = gcd(div, v)
                assert div == pullback_class(phi, q, schreier)[1]
    assert total == 6256


def test_certificate_builds_no_cover_presentation(monkeypatch):
    """fibred_certificate reads only the Schreier generator words of each
    cover: on m.pres at budget 5 it builds no Presentation, where rewriting
    every relator on every coset built one per distinct quotient, 367."""
    P, phi = fixture_class("m.pres")
    built = []
    init = Presentation.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Presentation, "__init__", counting_init)
    cert = fibred_certificate(P, phi, 0, 5)
    assert len(cert.records) == 1170
    assert built == []


def test_multivariable_examples():
    t2 = Presentation.from_text(["a", "b"], ["[a,b]"])
    assert str(multivariable_alexander(t2).value) == "1"
    na = na_presentation()
    assert str(multivariable_alexander(na).value) == "1"
    # the T(2,4) torus link
    t24 = Presentation.from_text(["x", "y"], ["x y x y x^-1 y^-1 x^-1 y^-1"])
    assert str(multivariable_alexander(t24).value) == "t1*t2 + 1"
    with pytest.raises(NoValidColumn):
        multivariable_alexander(Presentation.from_text(["a"], ["a^3"]))


def test_multivariable_rank_guard():
    from twistalex.laurent import UnsupportedRank
    free4 = Presentation(["a", "b", "c", "d"], [])
    with pytest.raises(UnsupportedRank):
        multivariable_alexander(free4)


def test_zero_polynomial_for_free_group():
    P = Presentation(["a", "b"], [])
    phi = ClassMap(P, [(1,), (0,)])
    tw = twisted_alexander(Twister(phi), trivial_quotient(P))
    assert tw.value.is_zero()
    assert tw.raw_minor_gcd.is_zero()


def test_circle_has_trivial_polynomial():
    P = Presentation(["a"], [])
    phi = ClassMap(P, [(1,)])
    tw = twisted_alexander(Twister(phi), trivial_quotient(P))
    assert str(tw.value) == "1"
    assert str(tw.raw_minor_gcd) == "1"  # empty determinant
    assert str(multivariable_alexander(P).value) == "1"
    # and through a double cover, which is again a circle
    q = FiniteQuotient(P, cyclic_group(2), (1,))
    assert str(twisted_alexander(Twister(phi), q).value) == "1"
    phi_a, _ = pullback_class(phi, q, reidemeister_schreier(P, q))
    tw_cover = twisted_alexander(Twister(phi_a),
                                 trivial_quotient(phi_a.presentation))
    assert str(tw_cover.value) == "1"


def test_symmetry_of_computed_polynomials():
    cases = []
    P = na_presentation()
    phi = na_fibration_class(P)
    cases.append(twisted_alexander(Twister(phi), trivial_quotient(P)).value)
    T = trefoil()
    cases.append(twisted_alexander(Twister(ClassMap(T, [(1,), (1,)])),
                                   trivial_quotient(T)).value)
    rng = random.Random(9)
    for _ in range(5):
        A = random_sl2z(rng)
        Q = mapping_torus(A)
        phi = ClassMap(Q, [(0,), (0,), (1,)])
        cases.append(twisted_alexander(Twister(phi),
                                       trivial_quotient(Q)).value)
    for v in cases:
        rep = symmetric_representative(v)
        assert rep.poly is not None


def test_h0_order_against_brute_fitting_ideal():
    """ord H_0 = gcd of maximal minors of the full twisted degree-0 boundary."""
    from twistalex.twistedalex import _h0_order, _schreier_values
    from twistalex.polymat import laurent_minor_gcd
    P = na_presentation()
    # the fibration class, and Phi onto H = Z^2, whose Schreier values are
    # pairs taken once up to sign
    for phi in (na_fibration_class(P), ClassMap(P, abelianize(P).gen_images)):
        for G in (cyclic_group(2), cyclic_group(3)):
            for q in enumerate_epimorphisms(P, G):
                d = G.order
                cols = [twist_ring_map({((g, 1),): 1, (): -1}, q, phi)
                        for g in range(P.ngens)]
                rows = [[blk[i][j] for blk in cols for j in range(d)]
                        for i in range(d)]
                # transpose: minors of the row span of the block row
                mat = [[rows[i][j] for i in range(d)]
                       for j in range(len(rows[0]))]
                brute = UnitClass(laurent_minor_gcd(mat, phi.target_rank))
                values = _schreier_values(q, phi)
                assert UnitClass(_h0_order(values, phi.target_rank)) == brute


def test_correction_metadata():
    P = na_presentation()
    tw = twisted_alexander(Twister(na_fibration_class(P)),
                           trivial_quotient(P))
    assert tw.correction_exact
    assert str(tw.h0_order) == "t - 1"
    assert str(tw.h0_correction) == "t - 1"
    assert tw.deleted_column == 2
    assert str(tw.raw_minor_gcd) == "t^2 - 2*t + 1"


def test_column_determinants_stop_at_the_valid_column(monkeypatch):
    import twistalex.twistedalex as ta
    calls = []
    real = ta.laurent_det
    monkeypatch.setattr(ta, "laurent_det",
                        lambda m, rank: calls.append(len(m)) or real(m, rank))
    P = na_presentation()
    # g_0 maps to 0, so column 0 is invalid and column 1 is the first valid
    phi = ClassMap(P, [(0,), (1,), (1,)])
    q = trivial_quotient(P)
    auto = twisted_alexander(Twister(phi), q)
    # the correction waits for the value to be read
    assert auto.deleted_column == 1 and len(calls) == 0
    assert str(auto.value) == "t^2 - 2*t + 1" and len(calls) == 1
    # the eager oracle agrees on all six fields at column 1 and on the value
    # at column 2; every field is kept, so reading them computes nothing
    # again
    eager = eager_twisted_alexander(phi, q, column=1)
    assert tuple(getattr(auto, f) for f in eager._fields) == eager
    assert eager_twisted_alexander(phi, q, column=2).value == auto.value
    assert len(calls) == 1


def test_generator_determinant_closed_form():
    """det of the twisted image of g - 1 is +-(t^(e ord g) - 1)^(|G|/ord g),
    e = Phi(g), on every quotient of na, fig8 and trefoil of order <= 8: in
    the regular representation alpha(g) permutes G in |G|/ord g cycles of
    length ord g."""
    from twistalex.polymat import laurent_det
    cases = ((na_presentation(), [(0,), (0,), (1,)]),
             (fig8(), [(0,), (0,), (1,)]),
             (trefoil(), [(1,), (1,)]))
    one = LaurentPoly.one(1)
    total = 0
    for P, images in cases:
        phi = ClassMap(P, images)
        first = next(g for g, v in enumerate(images) if any(v))
        twister = Twister(phi)
        for G in group_catalog(8):
            for q in enumerate_epimorphisms(P, G):
                assert twisted_alexander(twister, q).deleted_column == first
                for g, img in enumerate(q.images):
                    order = G.element_order(img)
                    e = images[g][0]
                    closed = (LaurentPoly.monomial(1, (e * order,)) - one) ** (
                        G.order // order)
                    g_minus_1 = {((g, 1),): 1, (): -1}
                    det = laurent_det(twist_ring_map(g_minus_1, q, phi), 1)
                    assert UnitClass(det) == UnitClass(closed)
                    total += 1
    assert total == 708


def generating_pair(G):
    """The least pair (a, b) of elements of G that generates it."""
    P = Presentation.from_text(["a", "b"], [])
    for a in range(G.order):
        for b in range(G.order):
            try:
                FiniteQuotient(P, G, (a, b))
            except InvalidQuotient:
                continue
            return a, b


def test_correction_key_is_enough(monkeypatch):
    """det(twist(g - 1)) = +-(t^(e ord g) - 1)^(|G|/ord g) for every element
    g of every group of group_catalog(24) and e = Phi(g) in {1, 2}, on the
    free group <g, a, b> with a, b sent onto a generating pair, so that
    Twister.correction may key the determinant by (|G|, ord g) alone; and a
    second quotient with a key met before, even one onto another group,
    computes no determinant."""
    from twistalex.polymat import laurent_det
    P = Presentation.from_text(["g", "a", "b"], [])
    one = LaurentPoly.one(1)
    g_minus_1 = {((0, 1),): 1, (): -1}
    total = 0
    for G in group_catalog(24):
        pair = generating_pair(G)
        for e in (1, 2):
            phi = ClassMap(P, [(e,), (0,), (0,)])
            for x in range(G.order):
                q = FiniteQuotient(P, G, (x,) + pair)
                order = G.element_order(x)
                closed = (LaurentPoly.monomial(1, (e * order,)) - one) ** (
                    G.order // order)
                det = laurent_det(twist_ring_map(g_minus_1, q, phi), 1)
                assert UnitClass(det) == UnitClass(closed)
                total += 1
    assert total == 2 * sum(G.order for G in group_catalog(24)) == 954

    calls = []
    real = twistedalex.laurent_det
    monkeypatch.setattr(twistedalex, "laurent_det",
                        lambda m, rank: calls.append(len(m)) or real(m, rank))
    twister = Twister(ClassMap(P, [(1,), (0,), (0,)]))

    def correction(G, x):
        return twister.correction(
            FiniteQuotient(P, G, (x,) + generating_pair(G)))

    z4 = cyclic_group(4)
    first = correction(z4, 2)   # order 2 in Z4: a miss
    assert first == UnitClass((LaurentPoly.monomial(1, (2,)) - one) ** 2)
    assert len(calls) == 1
    # order 2 in D2 = Z2 x Z2, another group of order 4, and in Z4 again
    assert correction(dihedral_group(2), 1) == correction(z4, 2) == first
    assert len(calls) == 1
    # order 4: a new key
    assert correction(z4, 1) == UnitClass(LaurentPoly.monomial(1, (4,)) - one)
    assert calls == [4, 4]


# ---- sparse assembly and rational summands ----

# the classes of the CLI golden commands
FIXTURE_CLASSES = {"fig8.pres": "fib", "m.pres": "0,0,1,0,0,0,1,0",
                   "na.pres": "fib", "t3.pres": "x", "torus.pres": "x",
                   "trefoil.pres": "ab", "zero_alex.pres": "x"}


def fixture_class(name):
    _, (P, classes) = parse_document(fixture_text(name))
    spec = FIXTURE_CLASSES[name]
    if spec in classes:
        return P, classes[spec]
    return P, ClassMap(P, [(int(v),) for v in spec.split(",")])


def first_column(phi):
    return next(g for g, img in enumerate(phi.images) if any(img))


def catalog_quotients(P, budget, dedup_auto=False):
    """The trivial quotient, then every catalog quotient up to the budget."""
    yield FiniteQuotient(P, trivial_group(), (0,) * P.ngens)
    for G in group_catalog(budget):
        yield from enumerate_epimorphisms(P, G, dedup_auto=dedup_auto)


def distinct_quotients(P, budget):
    """catalog_quotients, one per (group, kernel) as the fibredness
    certificate keys its records."""
    seen = set()
    for q in catalog_quotients(P, budget):
        key = (q.group.label, q.kernel_key())
        if key not in seen:
            seen.add(key)
            yield q


def dense_rows(q, phi, j):
    """The twisted Jacobian of q x Phi from dense twist_ring_map blocks of
    the oracle's Fox words, column j deleted: the assembly the sparse rows
    replace."""
    P = phi.presentation
    rows = []
    for rel in P.relators:
        blocks = [twist_ring_map(fox_derivative(rel, g), q, phi)
                  for g in range(P.ngens) if g != j]
        for i in range(q.group.order):
            rows.append([e for blk in blocks for e in blk[i]])
    return rows


def strip_t(a):
    """An array divided by its largest power of t."""
    return a[next(i for i, c in enumerate(a) if c):]


class WalkedTerms(Exception):
    """Raised in place of _twisted_rows, with the terms it was handed."""


@pytest.fixture
def walked_rows(monkeypatch):
    """walked_rows(phi, q): the rows in the regular representation of the
    terms a fresh Twister walks along the relators at q, as raw_minor_gcd
    hands them to _twisted_rows on its first assembly."""
    def capture(terms, *_):
        raise WalkedTerms(list(terms))

    monkeypatch.setattr(twistedalex, "_twisted_rows", capture)

    def rows(phi, q):
        with pytest.raises(WalkedTerms) as caught:
            Twister(phi).raw_minor_gcd(q)
        P = phi.presentation
        return _twisted_rows(caught.value.args[0], _regular_rep(q.group),
                             len(P.relators), P.ngens - 1, phi.target_rank)
    return rows


def random_presentations(seed, count):
    """Seeded presentations on a, b, c with two relators, each a conjugated
    commutator u [x, y] u^-1 of random words, so b_1 = 3, with one to three
    cancelling pairs g^s g^-s inserted for the presentation to reduce."""
    rng = random.Random(seed)

    def word(lo, hi):
        return [(rng.randint(0, 2), rng.choice((1, -1)))
                for _ in range(rng.randint(lo, hi))]

    def inverse(w):
        return [(g, -s) for g, s in reversed(w)]

    for _ in range(count):
        relators = []
        for _ in range(2):
            u, x, y = word(0, 3), word(1, 3), word(1, 3)
            rel = u + x + y + inverse(x) + inverse(y) + inverse(u)
            for _ in range(rng.randint(1, 3)):
                g, s = rng.randint(0, 2), rng.choice((1, -1))
                i = rng.randint(0, len(rel))
                rel[i:i] = [(g, s), (g, -s)]
            relators.append(rel)
        yield Presentation(["a", "b", "c"], relators)


def test_sparse_rows_equal_the_dense_twist(walked_rows):
    """Array for array, the rows walked along the relators, the rows of the
    oracle's Fox words and the dense twist of those words, on every fixture
    and catalog quotient up to order 8 (m.pres up to 5), and with the class
    negated up to order 6 (m.pres up to 3), and on six seeded presentations
    with the class (1, -1, 2) up to order 4: the negated classes give Fox
    terms with Phi < 0, whose rows are shifted as _pack shifts them."""
    cases = []
    for name in FIXTURE_CLASSES:
        P, phi = fixture_class(name)
        minus = ClassMap(P, [tuple(-v for v in img) for img in phi.images])
        cut = 3 if name == "m.pres" else 0
        cases += [(phi, 8 - cut), (minus, 6 - cut)]
    cases += [(ClassMap(P, [(1,), (-1,), (2,)]), 4)
              for P in random_presentations(5, 6)]
    counts = []
    for cls, budget in cases:
        j = first_column(cls)
        total = shifted = 0
        for q in catalog_quotients(cls.presentation, budget):
            rows, _ = twisted_jacobian(cls, q, j)
            dense = dense_rows(q, cls, j)
            assert walked_rows(cls, q) == rows == _pack(dense, 1)[0]
            shifted += sum(1 for row in dense if _pack([row], 1)[2][0])
            total += 1
        counts.append((total, shifted))
    fixtures = [sum(c) for c in zip(*counts[:2 * len(FIXTURE_CLASSES)])]
    assert fixtures == [3852, 7304]
    assert counts[2 * len(FIXTURE_CLASSES):] == [
        (132, 970), (132, 485), (132, 0), (132, 0), (132, 485), (132, 485)]


def test_multivariable_rows_equal_the_dense_twist(walked_rows):
    """The walked rows, the rows of the oracle's Fox words and the dense
    twist, with Phi the identity on H = Z^{b_1}, on four fixtures and three
    seeded presentations, every catalog quotient up to order 4."""
    presentations = [fixture_class(name)[0] for name in
                     ("na.pres", "t3.pres", "torus.pres", "zero_alex.pres")]
    presentations += random_presentations(7, 3)
    counts = []
    for P in presentations:
        phi = ClassMap(P, abelianize(P).gen_images)
        assert phi.target_rank >= 2
        j = first_column(phi)
        total = 0
        for q in catalog_quotients(P, 4):
            rows, summands = twisted_jacobian(phi, q, j)
            assert summands == []
            assert walked_rows(phi, q) == rows == dense_rows(q, phi, j)
            total += 1
        counts.append(total)
    assert sum(counts[:4]) == 222
    assert counts[4:] == [132, 132, 132]


def test_summand_representations_are_homomorphisms():
    """rep(a) rep(b) = rep(ab) and rep(0) = 1 for the regular
    representation and the summands of every catalog group up to order 12;
    on a cyclotomic summand the generator 1 of Z_n acts by the companion
    matrix of Phi_d, column y holding z^(y + 1) mod Phi_d."""
    def dense(cols):
        out = [[0] * len(cols) for _ in cols]
        for y, col in enumerate(cols):
            for i, v in col:
                out[i][y] = v
        return out

    def matmul(A, B):
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
                for row in A]

    checked = 0
    for G in group_catalog(12):
        cyclic = G.label.startswith("Z")
        divisors = [d for d in range(1, G.order + 1) if G.order % d == 0]
        summands = summand_reps(G)
        assert len(summands) == (len(divisors) if cyclic else 1)
        for rep in [_regular_rep(G)] + summands:
            mats = [dense(rep[a]) for a in range(G.order)]
            m = len(mats[0])
            assert mats[0] == [[int(i == y) for y in range(m)]
                               for i in range(m)]
            for a in range(G.order):
                for b in range(G.order):
                    assert matmul(mats[a], mats[b]) == mats[G.mul(a, b)]
            checked += 1
        if cyclic:
            for d, rep in zip(divisors, summands):
                phi_d = _cyclotomic(d)
                m = len(phi_d) - 1
                companion = [[int(i == y + 1) for y in range(m - 1)]
                             + [-phi_d[i]] for i in range(m)]
                assert dense(rep[1]) == companion
    assert checked == 55


def test_cyclotomic_blocks_give_the_full_qpart():
    """On the cyclic quotients (na.pres up to Z16, m.pres up to Z5, the
    other fixtures up to Z12) the summands are one block per divisor d of n,
    (ngens - 1) * phi(d) columns wide, and the primitive product of their
    Hermite pivot products is the full matrix's up to a power of t; a block
    has rank below its width exactly when the full matrix does.  t3.pres
    and m.pres take one quotient per kernel: quotients with one kernel
    differ by an automorphism of Z_n, and every quotient would cost the
    full-matrix oracle about 20 s."""
    counts = {}
    for name in FIXTURE_CLASSES:
        P, phi = fixture_class(name)
        j = first_column(phi)
        top = {"na.pres": 16, "m.pres": 5}.get(name, 12)
        for n in range(2, top + 1):
            widths = [(P.ngens - 1) * (len(_cyclotomic(d)) - 1)
                      for d in range(1, n + 1) if n % d == 0]
            for q in enumerate_epimorphisms(
                    P, cyclic_group(n),
                    dedup_auto=name in ("t3.pres", "m.pres")):
                rows, summands = twisted_jacobian(phi, q, j)
                k = (P.ngens - 1) * n
                assert [k_s for _, k_s in summands] == widths
                assert sum(widths) == k
                full = _hermite_qpart(rows, k)
                parts = [_hermite_qpart(b, k_s) for b, k_s in summands]
                key = (name, full is None)
                counts[key] = counts.get(key, 0) + 1
                if full is None:
                    assert None in parts
                    continue
                assert None not in parts
                prod = [1]
                for part in parts:
                    prod = _mul(prod, part)
                assert _prim(strip_t(prod)) == strip_t(full)
    assert counts == {("fig8.pres", False): 45, ("m.pres", True): 331,
                      ("na.pres", False): 1223, ("t3.pres", False): 1170,
                      ("torus.pres", False): 527, ("trefoil.pres", False): 45,
                      ("zero_alex.pres", True): 527}


def test_trivial_summand_rank_bounds_the_full_rank():
    """On every catalog quotient up to order 8 (m.pres up to 5) the first
    summand is the untwisted Jacobian, and where its rank is below its
    width the full matrix's is too."""
    deficient = {}
    for name in FIXTURE_CLASSES:
        P, phi = fixture_class(name)
        j = first_column(phi)
        trivial, *quotients = catalog_quotients(
            P, 5 if name == "m.pres" else 8)
        untwisted, _ = twisted_jacobian(phi, trivial, j)
        for q in quotients:
            rows, summands = twisted_jacobian(phi, q, j)
            block, k1 = summands[0]
            assert (block, k1) == (untwisted, P.ngens - 1)
            if _hermite_qpart(block, k1) is None:
                assert _hermite_qpart(rows, (P.ngens - 1) * q.group.order) \
                    is None
                deficient[name] = deficient.get(name, 0) + 1
    assert deficient == {"m.pres": 1169, "zero_alex.pres": 215}


def test_summands_are_assembled_up_to_the_first_deficient_one(monkeypatch):
    """The representations twisted_alexander assembles the Jacobian in, by
    dimension, and the calls of _independent_rows, per catalog quotient,
    each call with a Twister of its own: on m.pres up to order 5,
    whose trivial summand has rank below its width on every quotient, one
    block of dimension 1 per quotient and no regular rows; on na.pres up to
    order 8, whose summands all have full rank, every summand, and then the
    regular rows for the dihedral quotients alone: a cyclic quotient of na
    reads its integer content from its blocks, none of which has a content
    sharing a prime with |G|.  Each block's content step, and the regular
    rows' one, runs its row search where the minors are too many to
    enumerate.  The trivial quotient's one summand is the trivial
    representation, which is also its regular one."""
    built, searched = [], []
    real_rows = twistedalex._twisted_rows
    real_search = polymat._independent_rows

    def rows(terms, rep, *args):
        built.append(len(rep[0]))
        return real_rows(terms, rep, *args)

    def search(*args):
        searched.append(args)
        return real_search(*args)

    monkeypatch.setattr(twistedalex, "_twisted_rows", rows)
    monkeypatch.setattr(polymat, "_independent_rows", search)
    counts = {}
    for name, budget in (("m.pres", 5), ("na.pres", 8)):
        P, phi = fixture_class(name)
        for q in catalog_quotients(P, budget):
            built.clear()
            searched.clear()
            twisted_alexander(Twister(phi), q)
            n, cyclic = q.group.order, q.group.is_addition_mod_n
            summands = [len(rep[0]) for rep in summand_reps(q.group)]
            if name == "m.pres":
                assert built == [1] and searched == []
            else:
                assert built == summands + ([] if cyclic else [n])
                assert len(searched) == sum(
                    comb(len(P.relators) * m, (P.ngens - 1) * m)
                    > polymat.ENUM_BOUND for m in built)
            key = (name, cyclic, len(searched))
            counts[key] = counts.get(key, 0) + 1
    assert counts == {("m.pres", False, 0): 210, ("m.pres", True, 0): 960,
                      ("na.pres", False, 1): 30, ("na.pres", True, 0): 48,
                      ("na.pres", True, 1): 120}


def test_lazy_raw_gcd_equals_the_full_hermite():
    """twisted_alexander's raw minor gcd, summand by summand, against
    max_minor_gcd on the eagerly assembled regular rows with no Q[t] part
    given (their own Hermite pivot product, or the enumeration): every
    catalog quotient up to order 8 of every fixture class, m.pres up to 5."""
    counts = {}
    for name in FIXTURE_CLASSES:
        P, phi = fixture_class(name)
        j = first_column(phi)
        for q in catalog_quotients(P, 5 if name == "m.pres" else 8):
            rows, _ = twisted_jacobian(phi, q, j)
            full = max_minor_gcd(rows, (P.ngens - 1) * q.group.order)
            assert twisted_alexander(Twister(phi), q).raw_minor_gcd \
                == UnitClass(_arr_to_poly(full))
            key = (name, full == [])
            counts[key] = counts.get(key, 0) + 1
    assert counts == {("fig8.pres", False): 22, ("m.pres", True): 1170,
                      ("na.pres", False): 198, ("t3.pres", False): 1228,
                      ("torus.pres", False): 174, ("trefoil.pres", False): 28,
                      ("zero_alex.pres", True): 216}


def random_fibred_presentations(seed, count):
    """Seeded presentations on a, b, t with three relators of 4 to 8
    letters, freely reduced, each with t-exponent sum 0, so that
    Phi = (0, 0, 1) is a class on each."""
    rng = random.Random(seed)

    def relator():
        while True:
            w = [(rng.randint(0, 2), rng.choice((1, -1)))
                 for _ in range(rng.randint(4, 8))]
            if (sum(s for g, s in w if g == 2) == 0
                    and all(x != (g, -s) for x, (g, s) in zip(w, w[1:]))):
                return w

    for _ in range(count):
        yield Presentation(["a", "b", "t"], [relator() for _ in range(3)])


def test_cyclic_content_from_blocks_equals_the_regular_rows(monkeypatch):
    """raw_minor_gcd on every Z_n quotient, n <= 6, of 40 seeded
    presentations, one Twister per presentation, against max_minor_gcd on
    the regular rows assembled by the oracle.  The integer content c of
    the gcd is read from the blocks' contents when it is prime to n, and
    from the regular rows otherwise: regular rows are assembled exactly
    where c shares a prime with n.  Every branch occurs: gcd 0, c = 1,
    c > 1 prime to n, and the fallback."""
    built = []
    real_rows = twistedalex._twisted_rows

    def rows(terms, rep, *args):
        built.append(len(rep[0]))
        return real_rows(terms, rep, *args)

    monkeypatch.setattr(twistedalex, "_twisted_rows", rows)
    counts = {}
    for P in random_fibred_presentations(5, 40):
        phi = ClassMap(P, [(0,), (0,), (1,)])
        twister = Twister(phi)
        for n in range(2, 7):
            for q in enumerate_epimorphisms(P, cyclic_group(n)):
                regular, _ = twisted_jacobian(phi, q, 2)
                full = max_minor_gcd(regular, 2 * n)
                built.clear()
                assert UnitClass(twister.raw_minor_gcd(q)) \
                    == UnitClass(_arr_to_poly(full))
                c = gcd(*full) if full else 0
                branch = ("zero" if not full else
                          "fallback" if gcd(c, n) > 1 else
                          "prime to n" if c > 1 else "one")
                assert (n in built) == (branch == "fallback")
                counts[branch] = counts.get(branch, 0) + 1
    assert counts == {"zero": 76, "one": 595, "prime to n": 43,
                      "fallback": 66}


def test_block_contents_examine_no_prime_of_their_d(monkeypatch):
    """fibred na.pres at budget 24: a block's content step leaves out the
    primes dividing its d, so no _gauss_valuation_sum runs at one of them.
    At a prime ramified in Z[z]/Phi_d, such as 13 in the d = 13 block, the
    evaluations keep a common factor to their last point, and a valuation
    there runs on a 36 x 24 matrix for nothing.  The blocks examined are
    the faithful ones of the cyclic quotients, d = 1 to 24, and no
    valuation runs at all: with the primes of d left out, the gcd of the
    evaluations reaches 1 in every block."""
    active, examined, skips = [], [], set()
    real_gcd = twistedalex.max_minor_gcd
    real_valuation = polymat._gauss_valuation_sum

    def minor_gcd(rows, k, qpart=None, skip=1):
        skips.add(skip)
        active.append(skip)
        try:
            return real_gcd(rows, k, qpart, skip)
        finally:
            active.pop()

    def valuation(rows, k, p):
        # fail at the first such prime, before the valuation runs
        d = active[-1] if active else 1
        assert d % p, f"a valuation at {p} in a {d}-block"
        examined.append((d, p))
        return real_valuation(rows, k, p)

    monkeypatch.setattr(twistedalex, "max_minor_gcd", minor_gcd)
    monkeypatch.setattr(polymat, "_gauss_valuation_sum", valuation)
    P, phi = fixture_class("na.pres")
    fibred_certificate(P, phi, 0, 24)
    assert skips == set(range(1, 25)) and examined == []


# ---- oracles on every quotient ----

def test_scaled_class_substitutes_t_to_the_k():
    """Delta_{k Phi} = Delta_Phi(t^k) up to units: the class k Phi twists
    every Jacobian entry, det(twist(g_j) - I) and the H_0 generators by
    t -> t^k.  k = 2, 3 on every distinct quotient up to order 4 (m.pres up
    to 3) of every fixture class, and k = 1000 on T^3 over the trivial
    group and Z2, whose entries 1 - t^1000 have two terms."""
    def check(P, phi, q, ks):
        base = twisted_alexander(Twister(phi), q).value.representative
        for k in ks:
            scaled = ClassMap(P, [(k * img[0],) for img in phi.images])
            assert twisted_alexander(Twister(scaled), q).value \
                == UnitClass(specialize(base, [k]))
        return len(ks)

    total = 0
    for name in FIXTURE_CLASSES:
        P, phi = fixture_class(name)
        for q in distinct_quotients(P, 3 if name == "m.pres" else 4):
            total += check(P, phi, q, (2, 3))
    P, phi = fixture_class("t3.pres")
    for q in distinct_quotients(P, 2):
        total += check(P, phi, q, (1000,))
    assert total == 338


def test_h0_order_is_t_to_the_div_minus_one():
    """ord H_0 = t^div - 1, div the divisibility of Phi pulled back to
    ker alpha, on every distinct quotient up to order 6 (m.pres up to 4) of
    every fixture class."""
    one = LaurentPoly.one(1)
    total = 0
    for name in FIXTURE_CLASSES:
        P, phi = fixture_class(name)
        for q in distinct_quotients(P, 4 if name == "m.pres" else 6):
            _, div = pullback_class(phi, q, reidemeister_schreier(P, q))
            assert twisted_alexander(Twister(phi), q).h0_order \
                == UnitClass(LaurentPoly.monomial(1, (div,)) - one)
            total += 1
    assert total == 504


def test_certificate_div_against_pulled_back_class():
    """Every record's div, the gcd of Phi on the Schreier generators, equals
    the divisibility of the class pulled back to the cover, on every
    quotient up to order 8 (m.pres up to 5) of every fixture class."""
    total = 0
    for name in FIXTURE_CLASSES:
        P, phi = fixture_class(name)
        budget = 5 if name == "m.pres" else 8
        cert = fibred_certificate(P, phi, 0, budget)
        quotients = list(catalog_quotients(P, budget))
        assert len(quotients) == len(cert.records)
        for q, rec in zip(quotients, cert.records):
            assert (rec.group_label, rec.images) == (q.group.label, q.images)
            assert rec.div == pullback_class(phi, q,
                                             reidemeister_schreier(P, q))[1]
            total += 1
    assert total == 3036


def test_certificate_builds_no_class_on_the_cover(monkeypatch):
    """div is read from the Schreier generator words: no ClassMap is built
    while the certificate runs."""
    P, phi = fixture_class("m.pres")
    built = []
    init = ClassMap.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ClassMap, "__init__", counting_init)
    cert = fibred_certificate(P, phi, 0, 5)
    assert len(cert.records) > 1000
    assert built == []


def test_zero_untwisted_polynomial_is_zero_on_every_quotient():
    """The regular representation contains the trivial one (Maschke), so
    the untwisted Jacobian is a summand of every twisted one and a zero
    untwisted polynomial stays zero: zero_alex.pres up to order 8, m.pres
    up to 5, every distinct quotient."""
    counts = {}
    for name, budget in (("zero_alex.pres", 8), ("m.pres", 5)):
        P, phi = fixture_class(name)
        for q in distinct_quotients(P, budget):
            assert twisted_alexander(Twister(phi), q).value.is_zero()
            counts[name] = counts.get(name, 0) + 1
    assert counts == {"zero_alex.pres": 59, "m.pres": 367}


# ---- the H_0 correction, computed on first read ----

def test_lazy_correction_equals_the_eager_one():
    """All six fields of twisted_alexander, read value first and read
    h0_correction first, each with a Twister of its own and with one
    Twister shared by the fixture class's quotients, as fibred_certificate
    shares it, against eager_twisted_alexander, which assembles every block
    of the quotient afresh, on every distinct catalog quotient up to order 8 of
    every fixture class (m.pres up to 5).  A zero raw gcd reads no
    correction, yet h0_correction, read anyway, is still
    +-(t^(e ord g_j) - 1)^(|G|/ord g_j) with e = Phi(g_j)."""
    one = LaurentPoly.one(1)
    counts = {}
    for name in FIXTURE_CLASSES:
        P, phi = fixture_class(name)
        j = first_column(phi)
        shared = Twister(phi)
        for q in distinct_quotients(P, 5 if name == "m.pres" else 8):
            eager = eager_twisted_alexander(phi, q)
            for first, twister in (("value", Twister(phi)),
                                   ("h0_correction", Twister(phi)),
                                   ("value", shared),
                                   ("h0_correction", shared)):
                tw = twisted_alexander(twister, q)
                getattr(tw, first)
                assert tuple(getattr(tw, f) for f in eager._fields) == eager
            zero = eager.raw_minor_gcd.is_zero()
            if zero:
                G = q.group
                order = G.element_order(q.images[j])
                e = phi.images[j][0]
                closed = (LaurentPoly.monomial(1, (e * order,)) - one) ** (
                    G.order // order)
                assert tw.h0_correction == UnitClass(closed)
            counts[name, zero] = counts.get((name, zero), 0) + 1
    assert counts == {("fig8.pres", False): 8, ("m.pres", True): 367,
                      ("na.pres", False): 56, ("t3.pres", False): 347,
                      ("torus.pres", False): 53, ("trefoil.pres", False): 9,
                      ("zero_alex.pres", True): 59}


def test_certificate_reads_the_correction_of_nonzero_records_only(
        monkeypatch):
    """fibred_certificate on m.pres at budget 5, whose records are all zero,
    computes no H_0 correction; on na.pres at budget 8, whose records are
    all nonzero, it reads one per twisted_alexander call from its Twister,
    which computes det(twist(g_j) - I) once per (|G|, ord alpha(g_j)) and
    ord(H_0) once per set of Schreier values."""
    P, phi = fixture_class("na.pres")
    j = first_column(phi)
    quotients = list(distinct_quotients(P, 8))
    det_keys = {(q.group.order, q.group.element_order(q.images[j]))
                for q in quotients}
    value_sets = {twistedalex._schreier_values(q, phi) for q in quotients}
    assert (len(quotients), len(det_keys), len(value_sets)) == (56, 20, 11)
    calls = {}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("laurent_det", "twist_ring_map", "_h0_order"):
        count(twistedalex, name)
    count(normsfibred, "twisted_alexander")
    got = {}
    for name, budget in (("m.pres", 5), ("na.pres", 8)):
        calls.clear()
        P, phi = fixture_class(name)
        fibred_certificate(P, phi, 0, budget)
        got[name] = dict(calls)
    assert got == {"m.pres": {"twisted_alexander": 367},
                   "na.pres": {"twisted_alexander": len(quotients),
                               "laurent_det": len(det_keys),
                               "twist_ring_map": len(det_keys),
                               "_h0_order": len(value_sets)}}


# ---- one Twister per run: Fox terms and the block cache ----

def tap_parts(monkeypatch):
    """Record, per raw_minor_gcd call, the block keys it reads, in the order
    and as far as it reads them: each key's (part, content) is read from the
    twister's cache, filled on a miss, right after its _block_key call."""
    read = []
    real_raw, real_key = Twister.raw_minor_gcd, twistedalex._block_key

    def raw(self, q):
        read.append([])
        return real_raw(self, q)

    def key(images, d):
        read[-1].append(real_key(images, d))
        return read[-1][-1]

    monkeypatch.setattr(Twister, "raw_minor_gcd", raw)
    monkeypatch.setattr(twistedalex, "_block_key", key)
    return read


def galois_key(images, d):
    """(d, the least of u * images mod d over the units u mod d)."""
    return d, min(tuple(u * x % d for x in images)
                  for u in range(1, d + 1) if gcd(u, d) == 1)


def prime_to(n, m):
    """The largest divisor of n prime to m."""
    while gcd(n, m) > 1:
        n //= gcd(n, m)
    return n


def test_cached_parts_equal_fresh_hermite_parts(monkeypatch):
    """Every block part the run's Twister reads, fresh or from its cache,
    equals _hermite_qpart on the block assembled afresh for the quotient at
    hand, its power of t removed ([] where that has rank below its width,
    and no later block is read), and the content cached with it equals
    that of max_minor_gcd on the fresh block, its primes dividing d left
    out: every distinct catalog quotient up to order 8 of every fixture
    class (m.pres up to 5), one Twister per class as fibred_certificate
    shares it.  The cache is keyed by the Galois orbit of the images mod d,
    so a part may come from a quotient with other images."""
    read = tap_parts(monkeypatch)
    counts = {}
    for name in FIXTURE_CLASSES:
        P, phi = fixture_class(name)
        twister = Twister(phi)
        j = twister.column
        for q in distinct_quotients(P, 5 if name == "m.pres" else 8):
            read.clear()
            twisted_alexander(twister, q)
            [keys] = read
            _, summands = twisted_jacobian(phi, q, j)
            assert 1 <= len(keys) <= len(summands)
            assert all(twister._parts[key][0] for key in keys[:-1])
            divisors = [d for d in range(1, q.group.order + 1)
                        if q.group.order % d == 0]
            for key, (block, width), d in zip(keys, summands, divisors):
                assert key == galois_key(q.images, d)
                fresh = _hermite_qpart(block, width)
                fresh = strip_t(fresh) if fresh else []
                content = (prime_to(gcd(*max_minor_gcd(block, width)), d)
                           if fresh else 0)
                assert twister._parts[key] == (fresh, content)
            counts[name] = counts.get(name, 0) + len(keys)
        # parts read, and blocks assembled: one per key
        counts[name] = (counts[name], len(twister._parts))
    assert counts == {"fig8.pres": (20, 8), "m.pres": (367, 1),
                      "na.pres": (161, 52), "t3.pres": (1120, 340),
                      "torus.pres": (158, 52), "trefoil.pres": (21, 8),
                      "zero_alex.pres": (59, 1)}


def test_block_cache_counts(monkeypatch):
    """What one fibred_certificate run assembles.  m.pres at budget 5: one
    _block_parts call in all, on the trivial block, whose part [] every
    later quotient reads from the cache, and one Phi walk along the
    relators, with no ClassMap.of_word call from twistedalex.
    na.pres at budget 16: each block key once per run, and every cyclic
    quotient assembles its faithful block, d = n, and no other.  Records
    are keyed by kernel, and blocks by the Galois orbit of the images
    mod d, the orbit of the kernel of the composite onto Z_d; so the block
    of a divisor d < n is the faithful block of the Z_d record with that
    kernel, which the catalog met first."""
    built = []
    real_parts = twistedalex._block_parts

    def block_parts(rows, width, d):
        built.append(width)
        return real_parts(rows, width, d)

    monkeypatch.setattr(twistedalex, "_block_parts", block_parts)
    of_word, fox_calls = ClassMap.of_word, []

    def counting_of_word(self, word):
        if sys._getframe(1).f_globals["__name__"] == twistedalex.__name__:
            fox_calls.append(word)
        return of_word(self, word)

    monkeypatch.setattr(ClassMap, "of_word", counting_of_word)
    real_walk, walks = vars(Twister)["_fox_terms"].func, []
    walk = cached_property(lambda self: walks.append(self) or real_walk(self))
    walk.__set_name__(Twister, "_fox_terms")
    monkeypatch.setattr(Twister, "_fox_terms", walk)
    P, phi = fixture_class("m.pres")
    cert = fibred_certificate(P, phi, 0, 5)
    assert len(cert.records) == 1170 and built == [P.ngens - 1]
    assert len(walks) == 1 and fox_calls == []

    read = tap_parts(monkeypatch)
    new_blocks, owners = {}, set()
    real_ta = normsfibred.twisted_alexander

    def per_call(twister, q):
        owners.add(twister)
        start = len(built)
        out = real_ta(twister, q)
        G = q.group
        if G.label.startswith("Z"):
            widths = built[start:]
            # the faithful block comes last
            assert widths[-1] == (P.ngens - 1) * (len(_cyclotomic(G.order))
                                                  - 1)
            new_blocks[len(widths)] = new_blocks.get(len(widths), 0) + 1
        return out

    monkeypatch.setattr(normsfibred, "twisted_alexander", per_call)
    P, phi = fixture_class("na.pres")
    built.clear()
    read.clear()
    fibred_certificate(P, phi, 0, 16)
    assert new_blocks == {1: 203}
    misses = sum(k * v for k, v in new_blocks.items())
    parts = sum(len(p) for p in read)
    # and the trivial quotient's block: every other part came from the
    # cache, and no key was assembled twice
    assert len(built) == 1 + misses and parts == 777
    [twister] = owners
    assert len(twister._parts) == len(built)


def test_hermite_runs_only_past_the_enumeration_bound(monkeypatch):
    """fibred na.pres at budget 16: a block with at most ENUM_BOUND maximal
    minors reads its part and content from the enumeration alone, with no
    _hermite_qpart call, and a larger block runs one.  The 204 blocks are
    26 small and 178 large, and the four non-cyclic quotients (one onto D2,
    three onto D4) run one more each on their regular rows: 182 calls in
    all, and 26 enumerations."""
    calls = {"_hermite_qpart": 0, "_enum_minor_gcd_arrays": 0}
    small = []

    def count(name):
        real = getattr(polymat, name)

        def counted(rows, k):
            calls[name] += 1
            return real(rows, k)
        monkeypatch.setattr(polymat, name, counted)

    for name in calls:
        count(name)
    real_parts = twistedalex._block_parts

    def block_parts(rows, width, d):
        start = calls["_hermite_qpart"]
        out = real_parts(rows, width, d)
        small.append(comb(len(rows), width) <= polymat.ENUM_BOUND)
        assert calls["_hermite_qpart"] - start == (not small[-1])
        return out

    monkeypatch.setattr(twistedalex, "_block_parts", block_parts)
    P, phi = fixture_class("na.pres")
    fibred_certificate(P, phi, 0, 16)
    assert (small.count(True), small.count(False)) == (26, 178)
    assert calls == {"_hermite_qpart": 182, "_enum_minor_gcd_arrays": 26}


def test_interleaved_runs_equal_fresh_runs():
    """Certificates on two presentations, and on one presentation with two
    classes, run in turn with fresh parses, give the records of a fresh
    run: no state outlives its run, even where a freed presentation's id is
    reused."""
    def run(name, spec, budget):
        _, (P, classes) = parse_document(fixture_text(name))
        phi = classes.get(spec) or ClassMap(
            P, [(int(v),) for v in spec.split(",")])
        return fibred_certificate(P, phi, 0, budget)

    jobs = [("na.pres", "fib", 8), ("m.pres", "0,0,1,0,0,0,1,0", 4),
            ("t3.pres", "x", 6), ("t3.pres", "0,1,0", 6)]
    fresh = [run(*job) for job in jobs]
    assert any(r.poly.is_zero() for r in fresh[1].records)
    assert not any(r.poly.is_zero() for r in fresh[0].records)
    for order in (jobs, jobs[::-1], jobs + jobs):
        for job in order:
            assert run(*job) == fresh[jobs.index(job)]


def test_twister_refuses_another_presentation_or_a_trivial_class():
    """A twister takes its presentation from Phi, refuses a trivial Phi,
    and serves only quotients of that presentation; a structurally equal
    copy of it is the same presentation."""
    P, phi = fixture_class("t3.pres")
    twister = Twister(phi)
    assert twister.presentation is P and twister.column == 0
    q = next(iter(distinct_quotients(P, 2)))
    copy = Presentation(P.generators, P.relators)
    same = FiniteQuotient(copy, q.group, q.images)
    assert twisted_alexander(twister, same) == twisted_alexander(twister, q)
    other = Presentation(P.generators, P.relators[:2])
    with pytest.raises(Incompatible, match="different presentations"):
        twisted_alexander(twister, FiniteQuotient(other, q.group, q.images))
    with pytest.raises(ValueError, match="Phi must be nontrivial"):
        Twister(ClassMap(P, [(0,), (0,), (0,)]))
