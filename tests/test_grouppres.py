import random
import tracemalloc
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex import grouppres
from twistalex.docio import parse_document
from twistalex.grouppres import (BoundExceeded, ClassMap, FiniteQuotient,
                                 Incompatible, InvalidQuotient,
                                 MAX_TABLE_ENTRIES, Presentation, abelianize,
                                 automorphisms, check_order,
                                 cyclic_group, dihedral_group,
                                 enumerate_epimorphisms,
                                 fox_jacobian, free_reduce,
                                 MAX_WORD_LETTERS, parse_group_spec, parse_word,
                                 reidemeister_schreier, render_word,
                                 symmetric_group, trivial_group,
                                 trivial_quotient, word_inverse, word_mul)
from twistalex.normsfibred import fibred_certificate, group_catalog

from conftest import FIXTURES, fixture_text
from oracles import (GroupRingElement, brute_epimorphisms,
                     eager_cover_presentation, first_of_each_kernel,
                     fox_derivative, pullback_class, schreier_generator_words,
                     two_snf_weights)


def na_presentation():
    return Presentation.from_text(
        ["a", "b", "c"], ["[a,b]", "[a,c]", "b c b^-1 a^-1 c^-1"])


def test_free_reduce():
    assert free_reduce(((0, 1), (0, -1), (1, 1))) == ((1, 1),)
    assert free_reduce(()) == ()
    comm = parse_word("[a,b]", ["a", "b"])
    assert comm == ((0, 1), (1, 1), (0, -1), (1, -1))
    assert free_reduce(comm) == comm


def test_free_reduce_idempotent_and_shorter():
    rng = random.Random(3)
    for _ in range(200):
        w = tuple((rng.randint(0, 2), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 12)))
        r = free_reduce(w)
        assert free_reduce(r) == r
        assert len(r) <= len(w)


def test_parse_word_powers():
    assert parse_word("a^3", ["a"]) == ((0, 1),) * 3
    assert parse_word("a^-2", ["a"]) == ((0, -1),) * 2
    with pytest.raises(ValueError):
        parse_word("q", ["a"])


def test_abelianize_na():
    ab = abelianize(na_presentation())
    assert ab.free_rank == 2
    assert ab.torsion == ()
    # a dies; b, c map to a basis
    assert ab.gen_images[0] == (0, 0)


def test_abelianize_m():
    gens = ["a1", "b1", "c1", "d1", "a2", "b2", "c2", "d2"]
    rels = ["[a1,b1] d1", "[a1,c1]", "b1 c1 a1^-1 b1^-1 c1^-1", "[c1,d1]",
            "[a2,b2] d2", "[a2,c2]", "b2 c2 a2^-1 b2^-1 c2^-1", "[c2,d2]",
            "d1 d2^-1"]
    ab = abelianize(Presentation.from_text(gens, rels))
    assert ab.free_rank == 4
    assert ab.torsion == ()


def test_abelianize_free_group_and_torsion():
    assert abelianize(Presentation(["a", "b"], [])).free_rank == 2
    ab = abelianize(Presentation.from_text(["a"], ["a^3"]))
    assert ab.free_rank == 0
    assert ab.torsion == (3,)


def test_fox_derivative_examples():
    ab = parse_word("a b", ["a", "b"])
    assert fox_derivative(ab, 0) == {(): 1}
    ainv = parse_word("a^-1", ["a", "b"])
    assert fox_derivative(ainv, 0) == {((0, -1),): -1}
    comm = parse_word("[a,b]", ["a", "b"])
    assert fox_derivative(comm, 0) == {(): 1, ((0, 1), (1, 1), (0, -1)): -1}


def fox_term_maps(P):
    """fox_jacobian(P) summed per (r, g) into {r[:i]: s} term maps."""
    maps = {}
    for r, g, i, s in fox_jacobian(P):
        d = maps.setdefault((r, g), {})
        w = P.relators[r][:i]
        d[w] = d.get(w, 0) + s
    return maps


def test_fox_jacobian_examples():
    a3 = Presentation.from_text(["a"], ["a^3"])
    assert fox_jacobian(a3) == [(0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 2, 1)]
    assert fox_derivative(a3.relators[0], 0) \
        == {(): 1, ((0, 1),): 1, ((0, 1), (0, 1)): 1}
    tre = Presentation.from_text(["x", "y"], ["x y x y^-1 x^-1 y^-1"])
    assert fox_jacobian(tre) == [(0, 0, 0, 1), (0, 1, 1, 1), (0, 0, 2, 1),
                                 (0, 1, 4, -1), (0, 0, 5, -1), (0, 1, 6, -1)]
    x, y = ((0, 1),), ((1, 1),)
    xy = word_mul(x, y)
    xyxyi = word_mul(xy, x, word_inverse(y))
    xyxyixi = word_mul(xyxyi, word_inverse(x))
    assert fox_term_maps(tre) == {
        (0, 0): {(): 1, xy: 1, xyxyixi: -1},
        (0, 1): {x: 1, xyxyi: -1, word_mul(xyxyixi, word_inverse(y)): -1}}
    assert fox_jacobian(Presentation(["a"], [])) == []


def test_fox_jacobian_against_fox_derivative():
    """The terms (r, g, i, s), summed per (r, g) as s * r[:i], are the Fox
    derivatives of the oracle, on every fixture and on 300 seeded relators
    with cancelling letters, which the presentation reduces."""
    cases = [parse_document(fixture_text(p.name))[1][0]
             for p in sorted(FIXTURES.glob("*.pres"))]
    cases.append(Presentation(["a", "b", "c"],
                              list(words_with_cancelling_letters())))
    for P in cases:
        maps = fox_term_maps(P)
        for r, rel in enumerate(P.relators):
            for g in range(P.ngens):
                assert maps.get((r, g), {}) == fox_derivative(rel, g)


def _fundamental_identity(word, ngens):
    total = GroupRingElement.zero()
    for j in range(ngens):
        gj = GroupRingElement.from_word(((j, 1),))
        diff = gj - GroupRingElement.one()
        total = total + GroupRingElement(fox_derivative(word, j)) * diff
    expected = GroupRingElement.from_word(word) - GroupRingElement.one()
    return total == expected


def test_fox_fundamental_identity_fixtures():
    for P in (na_presentation(),
              Presentation.from_text(["x", "y"], ["x y x y^-1 x^-1 y^-1"])):
        for r in P.relators:
            assert _fundamental_identity(r, P.ngens)


@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])),
                max_size=10))
@settings(max_examples=300)
def test_fox_fundamental_identity_random(letters):
    assert _fundamental_identity(free_reduce(tuple(letters)), 3)


def words_with_cancelling_letters():
    """300 seeded words on 3 generators, each with 1 to 4 inserted pairs
    g^s g^-s."""
    rng = random.Random(11)
    for _ in range(300):
        word = [(rng.randint(0, 2), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 10))]
        for _ in range(rng.randint(1, 4)):
            g, s = rng.randint(0, 2), rng.choice((1, -1))
            i = rng.randint(0, len(word))
            word[i:i] = [(g, s), (g, -s)]
        yield tuple(word)


def test_fox_derivative_of_unreduced_word():
    for word in words_with_cancelling_letters():
        for j in range(3):
            assert fox_derivative(word, j) \
                == fox_derivative(free_reduce(word), j)


def test_fox_derivative_terms_are_reduced_and_nonzero():
    """The term map has freely reduced keys and nonzero integer values, and
    equals the group-ring sum of the unreduced prefix slices."""
    for word in words_with_cancelling_letters():
        for j in range(3):
            d = fox_derivative(word, j)
            assert all(free_reduce(w) == w for w in d)
            assert all(type(c) is int and c for c in d.values())
            expected = GroupRingElement.zero()
            for i, (g, s) in enumerate(word):
                if g == j:
                    expected = expected + GroupRingElement.from_word(
                        word[:i] if s == 1 else word[:i + 1], s)
            assert d == expected.terms


def test_fox_jacobian_retained_memory():
    """A relator of L letters keeps L terms of four integers, and no prefix
    word."""
    P = Presentation.from_text(["a", "b"], ["a^1000 b a^-1000 b^-1"])
    tracemalloc.start()
    try:
        J = fox_jacobian(P)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(J) == 2002
    assert retained < 10**6


def test_enumerate_epimorphisms_examples():
    free1 = Presentation(["a"], [])
    assert len(enumerate_epimorphisms(free1, cyclic_group(2))) == 1
    assert len(enumerate_epimorphisms(na_presentation(), cyclic_group(2))) == 3
    z3 = Presentation.from_text(["a"], ["a^3"])
    assert enumerate_epimorphisms(z3, cyclic_group(2)) == []


def test_enumerate_epimorphisms_against_brute_force():
    # every catalog group of order <= 8 (m.pres has 8 generators, so 8^8
    # tuples per order-8 group in the oracle: <= 5 there), and S3, whose
    # element labels differ from D3's
    for path in sorted(FIXTURES.glob("*.pres")):
        _, (P, _) = parse_document(fixture_text(path.name))
        groups = group_catalog(5 if path.name == "m.pres" else 8)
        for G in groups + [symmetric_group(3)]:
            epis = brute_epimorphisms(P, G)
            firsts = first_of_each_kernel(G, epis)
            # each kernel is one Aut(G)-orbit of |Aut(G)| epimorphisms
            assert len(epis) == len(automorphisms(G)) * len(firsts)
            for dedup, want in ((False, epis), (True, firsts)):
                got = enumerate_epimorphisms(P, G, dedup_auto=dedup)
                assert [q.images for q in got] == want, (path.name, G.label)
                # relabelled members carry the coset table and kernel key
                # that a fresh walk and a fresh standardization give
                for q in got:
                    fresh = FiniteQuotient(P, G, q.images)
                    key = tuple(tuple(fresh.position[G.mul(x, img)]
                                      for x in fresh.order)
                                for img in fresh.images)
                    assert (q.order, q.position, q.parent, q.kernel_key()) \
                        == (fresh.order, fresh.position, fresh.parent, key)


@pytest.mark.parametrize("G, count", [
    (trivial_group(), 1), (cyclic_group(2), 1), (cyclic_group(5), 4),
    (cyclic_group(12), 4), (cyclic_group(125), 100), (dihedral_group(2), 6),
    (dihedral_group(3), 6), (dihedral_group(5), 20), (dihedral_group(12), 48),
    (dihedral_group(62), 1860), (symmetric_group(3), 6),
    (symmetric_group(4), 24)])
def test_automorphisms(G, count):
    # |Aut Z_n| = phi(n), |Aut D_n| = n phi(n) for n >= 3, Aut D2 = S3,
    # Aut S_n = S_n for n = 3, 4
    auts = automorphisms(G)
    assert len(auts) == len(set(auts)) == count
    assert auts[0] == tuple(range(G.order))
    n = G.order
    # a bijection with a(x y) = a(x) a(y) for y in a generating set is an
    # automorphism; past 10^6 products, check y on r and s (D62) or on 1
    # (Z125) only
    ys = range(n) if count * n * n <= 10 ** 6 else (1, n // 2)
    for a in auts:
        assert sorted(a) == list(range(n))
        assert all(a[G.mul(x, y)] == G.mul(a[x], a[y])
                   for x in range(n) for y in ys)
    if count <= 48:
        members = set(auts)
        assert all(tuple(a[b[x]] for x in range(n)) in members
                   for a in auts for b in auts)


def test_automorphisms_built_only_for_an_epimorphism(monkeypatch):
    # trefoil maps onto D3 and onto no other dihedral group: Aut(D62), with
    # 1,860 elements, is never built
    calls = []

    def counting(G):
        calls.append(G.label)
        return automorphisms(G)

    monkeypatch.setattr(grouppres, "automorphisms", counting)
    trefoil = Presentation.from_text(["x", "y"], ["x y x y^-1 x^-1 y^-1"])
    assert enumerate_epimorphisms(trefoil, dihedral_group(62)) == []
    assert calls == []
    assert len(enumerate_epimorphisms(trefoil, dihedral_group(3))) == 6
    assert calls == ["D3"]


def test_one_walk_per_kernel(monkeypatch):
    # m.pres onto Z5: 624 epimorphisms in 156 Aut(Z5)-orbits of 4.  The
    # existence check walks the zero tuple, the one non-generating relator
    # solution (every other tuple holds a generator of Z5), and the first
    # epimorphism; the pruned search walks the zero tuple again and the 156
    # representatives.  The other 468 members walk only when read, once each
    _, (P, _) = parse_document(fixture_text("m.pres"))
    real_walk, walks = vars(FiniteQuotient)["_walk"].func, []
    walk = cached_property(lambda q: walks.append(q.images) or real_walk(q))
    walk.__set_name__(FiniteQuotient, "_walk")
    monkeypatch.setattr(FiniteQuotient, "_walk", walk)
    G = cyclic_group(5)
    epis = enumerate_epimorphisms(P, G)
    assert len(epis) == 624
    assert len({q.kernel_key() for q in epis}) == 156
    assert len(walks) == 159
    assert walks[0] == walks[2] == (0,) * 8
    assert walks[1] == walks[3] == epis[0].images
    assert len(enumerate_epimorphisms(P, G, dedup_auto=True)) == 156
    assert len(walks) == 2 * 159
    reps = set(walks)
    for _ in range(2):
        for q in epis:
            assert len(q.order) == len(q.position) == len(q.parent) == 5
    members = walks[2 * 159:]
    assert len(members) == len(set(members)) == 468
    assert set(members) == {q.images for q in epis} - reps


def test_certificate_walks_no_orbit_member(monkeypatch):
    # fibred m.pres --budget 5: the 803 orbit members are kernel-cache hits,
    # so none of them holds a coset table after the run; one read later
    # walks the table a fresh quotient has
    _, (P, _) = parse_document(fixture_text("m.pres"))
    phi = ClassMap(P, [(v,) for v in (0, 0, 1, 0, 0, 0, 1, 0)])
    relabelled, members = FiniteQuotient._relabelled, []

    def collecting(q, a):
        members.append(relabelled(q, a))
        return members[-1]

    monkeypatch.setattr(FiniteQuotient, "_relabelled", collecting)
    cert = fibred_certificate(P, phi, 0, 5)
    assert len(cert.records) == 1170 and len(members) == 803
    table = {"_walk", "order", "position", "parent"}
    assert not any(table & vars(q).keys() for q in members)
    q = members[-1]
    fresh = FiniteQuotient(P, q.group, q.images)
    assert (q.order, q.position, q.parent) \
        == (fresh.order, fresh.position, fresh.parent)
    assert q.kernel_key() == fresh.kernel_key()


def test_epimorphism_validation():
    with pytest.raises(InvalidQuotient):
        FiniteQuotient(na_presentation(), cyclic_group(2), (1, 0, 0))
    with pytest.raises(InvalidQuotient):
        FiniteQuotient(Presentation(["a"], []), cyclic_group(2), (0,))


def test_parse_word_letter_cap():
    assert len(parse_word(f"a^{MAX_WORD_LETTERS}", ["a"])) == MAX_WORD_LETTERS
    with pytest.raises(ValueError, match="word longer than"):
        parse_word(f"a^{MAX_WORD_LETTERS} b", ["a", "b"])
    with pytest.raises(ValueError, match="word longer than"):
        parse_word(f"a^-{MAX_WORD_LETTERS + 1}", ["a"])
    # a commutator counts both halves
    half = MAX_WORD_LETTERS // 4
    assert len(parse_word(f"[a^{half},b^{half}]", ["a", "b"])) == 4 * half
    with pytest.raises(ValueError, match="word longer than"):
        parse_word(f"[a^{half},b^{half + 1}]", ["a", "b"])


def test_duplicate_generator_names_rejected():
    with pytest.raises(ValueError, match="duplicate generator name 'a'"):
        Presentation(["a", "b", "a"], [])
    with pytest.raises(ValueError, match="duplicate"):
        Presentation.from_text(["a", "a"], ["a"])


def test_dedup_auto():
    P = na_presentation()
    epis = enumerate_epimorphisms(P, cyclic_group(5))
    deduped = enumerate_epimorphisms(P, cyclic_group(5), dedup_auto=True)
    assert len(epis) == 24
    assert len(deduped) == 6
    assert len({q.kernel_key() for q in epis}) == 6


def test_group_from_spec():
    for spec, order in (("trivial", 1), ("Z6", 6), ("D3", 6), ("S4", 24)):
        read, build = parse_group_spec(spec)
        assert read == build().order == order
    for bad in ("Q8", "", "Z", "S5"):
        with pytest.raises(ValueError):
            parse_group_spec(bad)


def test_check_order_bounds_the_table():
    assert MAX_TABLE_ENTRIES == 1000 ** 2
    check_order(1000, 1000)
    with pytest.raises(BoundExceeded, match="exceeds bound 999"):
        check_order(1000, 999)
    with pytest.raises(BoundExceeded, match="1002001 group table entries "
                                            "exceed the bound of 1000000"):
        check_order(1001, 10 ** 5)


def test_reidemeister_schreier_index_two_in_z():
    P = Presentation(["a"], [])
    q = FiniteQuotient(P, cyclic_group(2), (1,))
    cover = eager_cover_presentation(P, q)
    assert cover.ngens == 1
    assert cover.relators == ()
    assert schreier_generator_words(q) == (((0, 1), (0, 1)),)  # a^2
    assert reidemeister_schreier(q, ClassMap(P, [(1,)])) == {(2,)}


def test_reidemeister_schreier_z2_cover():
    P = Presentation.from_text(["a", "b"], ["[a,b]"])
    q = FiniteQuotient(P, cyclic_group(2), (1, 0))
    cover = eager_cover_presentation(P, q)
    assert cover.ngens == len(schreier_generator_words(q)) == 3  # 2*(2-1)+1
    assert abelianize(cover).free_rank == 2


def test_reidemeister_schreier_na_covers():
    P = na_presentation()
    for q in enumerate_epimorphisms(P, cyclic_group(2)):
        cover = eager_cover_presentation(P, q)
        assert cover.ngens == len(schreier_generator_words(q)) == 5
        assert abelianize(cover).free_rank >= 2


def test_reidemeister_schreier_checks_the_presentation():
    # a class on a structurally equal presentation reads the same values;
    # one on another presentation is refused
    P = na_presentation()
    q = enumerate_epimorphisms(P, cyclic_group(3))[0]
    images = [(0,), (0,), (1,)]
    values = reidemeister_schreier(q, ClassMap(P, images))
    copy = Presentation(P.generators, P.relators)
    assert reidemeister_schreier(q, ClassMap(copy, images)) == values
    other = Presentation(P.generators, P.relators[:-1])
    with pytest.raises(Incompatible,
                       match="quotient belongs to a different presentation"):
        reidemeister_schreier(q, ClassMap(other, images))


def up_to_sign(v):
    return v if v > (0,) * len(v) else tuple(-a for a in v)


@pytest.mark.parametrize("name", sorted(p.name
                                        for p in FIXTURES.glob("*.pres")))
def test_reidemeister_schreier_against_the_words(name):
    # the values walked off the coset table are Phi of the Schreier
    # generator words, nonzero and up to sign, for the document's classes
    # (m.pres: the class of the fibred benchmark) and the class onto
    # H = Z^{b_1}, on the trivial quotient and every catalog quotient up to
    # order 8 (m.pres up to 5), relabelled orbit members included
    _, (P, classes) = parse_document(fixture_text(name))
    phis = list(classes.values()) or [ClassMap(P, [(0,), (0,), (1,), (0,),
                                                   (0,), (0,), (1,), (0,)])]
    phis.append(ClassMap(P, P.abelianization.gen_images))
    budget = 5 if name == "m.pres" else 8
    quotients = [trivial_quotient(P)] + [q for G in group_catalog(budget)
                                         for q in enumerate_epimorphisms(P, G)]
    for phi in phis:
        for q in quotients:
            words = {phi.of_word(w) for w in schreier_generator_words(q)}
            assert reidemeister_schreier(q, phi) \
                == {up_to_sign(v) for v in words if any(v)}
    assert len(phis) * len(quotients) == {
        "fig8.pres": 44, "m.pres": 2340, "na.pres": 396, "t3.pres": 2456,
        "torus.pres": 348, "trefoil.pres": 56, "zero_alex.pres": 432}[name]


def test_cover_b1_never_drops_on_fixtures():
    base_b1 = {}
    for name, P in (("na", na_presentation()),
                    ("trefoil", Presentation.from_text(
                        ["x", "y"], ["x y x y^-1 x^-1 y^-1"]))):
        base_b1[name] = abelianize(P).free_rank
        for G in (cyclic_group(2), cyclic_group(3), cyclic_group(4)):
            for q in enumerate_epimorphisms(P, G):
                cover = eager_cover_presentation(P, q)
                assert abelianize(cover).free_rank >= base_b1[name]


@pytest.mark.parametrize("name", sorted(p.name
                                        for p in FIXTURES.glob("*.pres")))
def test_transversal_words_are_reduced_as_built(name):
    # the transversal words read off the parent edges, concatenated without
    # free_reduce, give words t_x g_i t_{x g_i}^-1 that are reduced and
    # nonempty exactly on the |G| (n - 1) + 1 non-tree edges, and equal the
    # word_mul products of schreier_generator_words there, for
    # representatives and relabelled orbit members alike
    _, (P, _) = parse_document(fixture_text(name))
    budget = 5 if name == "m.pres" else 8   # m.pres has 8 generators
    for G in group_catalog(budget):
        for q in enumerate_epimorphisms(P, G):
            trans = {0: ()}
            for y in q.order[1:]:
                x, i, s = q.parent[y]
                trans[y] = trans[x] + ((i, s),)
            words = []
            for x in q.order:
                for i, img in enumerate(q.images):
                    y = G.mul(x, img)
                    if q.parent[y] != (x, i, 1) and q.parent[x] != (y, i, -1):
                        words.append(trans[x] + ((i, 1),)
                                     + word_inverse(trans[y]))
            assert tuple(words) == schreier_generator_words(q)
            assert all(w and free_reduce(w) == w for w in words)
            assert len(words) == G.order * (P.ngens - 1) + 1


def test_schreier_generator_count():
    P = na_presentation()
    for G in (cyclic_group(3), cyclic_group(4)):
        for q in enumerate_epimorphisms(P, G):
            cover = eager_cover_presentation(P, q)
            assert cover.ngens == len(schreier_generator_words(q)) \
                == G.order * (P.ngens - 1) + 1
            assert len(cover.relators) <= G.order * len(P.relators)


def test_pullback_class_examples():
    P = Presentation(["a"], [])
    phi = ClassMap(P, [(1,)])
    q = FiniteQuotient(P, cyclic_group(2), (1,))
    phi_a, div = pullback_class(phi, q, schreier_generator_words(q))
    assert phi_a.images == ((2,),)
    assert div == 2
    # trivial group: identity cover
    P2 = na_presentation()
    phi2 = ClassMap(P2, [(0,), (0,), (1,)])
    q2 = FiniteQuotient(P2, trivial_group(), (0, 0, 0))
    words2 = schreier_generator_words(q2)
    _, div2 = pullback_class(phi2, q2, words2)
    assert div2 == 1
    phi3 = ClassMap(P2, [(0,), (0,), (2,)])
    _, div3 = pullback_class(phi3, q2, words2)
    assert div3 == 2


def test_class_map_validation():
    P = na_presentation()
    with pytest.raises(ValueError):
        ClassMap(P, [(1,), (0,), (0,)])  # does not kill b c b^-1 a^-1 c^-1
    phi = ClassMap(P, [(0,), (1,), (1,)])
    assert phi.of_word(parse_word("b c", P.generators)) == (2,)


def test_h_weights():
    P = na_presentation()
    ab = abelianize(P)
    phi = ClassMap(P, [(0,), (2,), (3,)])
    w = phi.h_weights()
    for j in range(P.ngens):
        assert sum(wi * gi for wi, gi in zip(w, ab.gen_images[j])) \
            == phi.images[j][0]


def test_h_weights_on_fixture_classes():
    total = 0
    for path in sorted(FIXTURES.glob("*.pres")):
        _, (P, classes) = parse_document(path.read_text())
        ab = abelianize(P)
        for phi in classes.values():
            assert phi.h_weights() == two_snf_weights(phi, ab)
            total += 1
    assert total == 6


def test_h_weights_recover_the_drawn_coordinates():
    """Random presentations (1-5 generators, 0-4 relators of at most 8
    letters) and a class drawn through H: Phi(g) = w . q(g) for a random w,
    which h_weights and the two-SNF solve must both give back."""
    rng = random.Random(1601)
    b1s = set()
    for _ in range(2000):
        n = rng.randint(1, 5)
        rels = [[(rng.randrange(n), rng.choice((1, -1)))
                 for _ in range(rng.randint(0, 8))]
                for _ in range(rng.randint(0, 4))]
        P = Presentation([f"g{i}" for i in range(n)], rels)
        ab = abelianize(P)
        w = tuple(rng.randint(-5, 5) for _ in range(ab.free_rank))
        phi = ClassMap(P, [(sum(x * y for x, y in zip(w, img)),)
                           for img in ab.gen_images])
        assert phi.h_weights() == two_snf_weights(phi, ab) == w
        b1s.add(ab.free_rank)
    assert b1s == {0, 1, 2, 3, 4, 5}


def test_h_weights_runs_one_smith_form(monkeypatch):
    # abelianize reads smith_normal_form from exactalg when it runs
    import twistalex.exactalg as exactalg
    calls = []
    real = exactalg.smith_normal_form
    monkeypatch.setattr(exactalg, "smith_normal_form",
                        lambda M: calls.append(M) or real(M))
    assert ClassMap(na_presentation(), [(0,), (2,), (3,)]).h_weights() \
        == (2, 3)
    assert len(calls) == 1


def test_render_word():
    P = na_presentation()
    w = parse_word("b c b^-1 a^-1 c^-1", P.generators)
    assert render_word(w, P.generators) == "b c b^-1 a^-1 c^-1"
    assert render_word((), P.generators) == "1"
