"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v` (add -s to stream the verdict
lines while running).
"""

import random
import time

from twistalex.cli import main
from twistalex.exactalg import ExactSequenceData, IntMatrix, MapData, \
    exact_sequence_solve, smith_normal_form
from twistalex.grouppres import (ClassMap, Presentation, abelianize,
                                 enumerate_epimorphisms, free_reduce,
                                 reidemeister_schreier, trivial_quotient)
from twistalex.laurent import LaurentPoly, laurent_degree, normalize_unit
from twistalex.normsfibred import (alexander_norm, class_divisibility,
                                   fibred_certificate, group_catalog,
                                   norm_relation_check)
from twistalex.twistedalex import (Twister, multivariable_alexander,
                                   twisted_alexander)
from twistalex.clifford import verify_all

from conftest import FIXTURES
from oracles import (GroupRingElement, fox_derivative, int_det,
                     mapping_torus_alexander, pullback_class,
                     seifert_alexander)

_T0 = {}


def _verdict(capsys, n, ok, elapsed, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def na_presentation():
    return Presentation.from_text(
        ["a", "b", "c"], ["[a,b]", "[a,c]", "b c b^-1 a^-1 c^-1"])


def trefoil():
    return Presentation.from_text(["x", "y"], ["x y x y^-1 x^-1 y^-1"])


def test_criterion_01_homology_fixtures(capsys):
    expected = {
        "na.cplx": "H0=Z H1=Z^2 H2=Z^2 H3=Z",
        "na_x_s1.cplx": "H0=Z H1=Z^3 H2=Z^4 H3=Z^3 H4=Z",
        "na_minus_nu.cplx": "H0=Z H1=Z^2 H2=Z H3=0",
    }
    t0 = time.time()
    ok = True
    for name, want in expected.items():
        t1 = time.time()
        code = main(["homology", str(FIXTURES / name)])
        out = capsys.readouterr().out.strip()
        each = time.time() - t1
        ok &= (code == 0 and out == want and each < 1.0)
    _verdict(capsys, 1, ok, time.time() - t0,
             "homology of N_a, N_a x S^1, N_a - nu(S^1) exact, < 1 s each")


def test_criterion_02_mayer_vietoris(capsys):
    t0 = time.time()
    terms = [0, "H4", 1, 2, "H3", 3, 6, "H2", 3, 6, "H1", 1, 2, "H0", 0]
    maps = {2: MapData(image=0), 5: MapData(kernel=2, image=1),
            8: MapData(kernel=1, image=2), 11: MapData(kernel=0)}
    ranks = exact_sequence_solve(ExactSequenceData(terms, maps))
    resolved = [r for t, r in zip(terms, ranks) if isinstance(t, str)]
    ok = resolved == [1, 4, 6, 4, 1]
    _verdict(capsys, 2, ok, time.time() - t0,
             "H_*(M) = (Z, Z^4, Z^6, Z^4, Z) from the map-rank data")


def test_criterion_03_abelianizations(capsys):
    t0 = time.time()
    ab_na = abelianize(na_presentation())
    gens = ["a1", "b1", "c1", "d1", "a2", "b2", "c2", "d2"]
    rels = ["[a1,b1] d1", "[a1,c1]", "b1 c1 a1^-1 b1^-1 c1^-1", "[c1,d1]",
            "[a2,b2] d2", "[a2,c2]", "b2 c2 a2^-1 b2^-1 c2^-1", "[c2,d2]",
            "d1 d2^-1"]
    ab_m = abelianize(Presentation.from_text(gens, rels))
    ok = (ab_na.free_rank == 2 and ab_na.torsion == ()
          and ab_m.free_rank == 4 and ab_m.torsion == ())
    _verdict(capsys, 3, ok, time.time() - t0,
             "pi_1(N_a) -> Z^2, pi_1(M) -> Z^4, torsion-free (no 2-torsion)")


def test_criterion_04_alexander_oracles(capsys):
    t0 = time.time()
    ok = True
    # trefoil and figure-eight against the Seifert-matrix oracle
    t1 = time.time()
    P = trefoil()
    tw = twisted_alexander(Twister(ClassMap(P, [(1,), (1,)])),
                           trivial_quotient(P))
    ok &= tw.value == seifert_alexander([[-1, 1], [0, -1]])
    ok &= str(tw.value) == "t^2 - t + 1" and time.time() - t1 < 1.0
    t1 = time.time()
    f8 = Presentation.from_text(
        ["u", "v", "c"], ["c u c^-1 u^-1 v^-1 u^-1", "c v c^-1 u^-1 v^-1"])
    tw = twisted_alexander(Twister(ClassMap(f8, [(0,), (0,), (1,)])),
                           trivial_quotient(f8))
    ok &= tw.value == seifert_alexander([[1, 1], [0, -1]])
    ok &= str(tw.value) == "t^2 - 3*t + 1" and time.time() - t1 < 1.0
    t1 = time.time()
    na = na_presentation()
    tw = twisted_alexander(Twister(ClassMap(na, [(0,), (0,), (1,)])),
                           trivial_quotient(na))
    ok &= tw.value == mapping_torus_alexander([[1, 1], [0, 1]])
    ok &= time.time() - t1 < 1.0
    # 20 random SL(2,Z) mapping tori
    rng = random.Random(42)
    agree = 0
    for _ in range(20):
        while True:
            A = [[1, 0], [0, 1]]
            for _ in range(rng.randint(1, 6)):
                B = rng.choice(([[1, 1], [0, 1]], [[1, 0], [1, 1]],
                                [[1, -1], [0, 1]], [[1, 0], [-1, 1]]))
                A = [[A[0][0] * B[0][0] + A[0][1] * B[1][0],
                      A[0][0] * B[0][1] + A[0][1] * B[1][1]],
                     [A[1][0] * B[0][0] + A[1][1] * B[1][0],
                      A[1][0] * B[0][1] + A[1][1] * B[1][1]]]
            if all(abs(x) <= 3 for row in A for x in row):
                break
        def pw(g, k):
            return ((g, 1),) * k if k >= 0 else ((g, -1),) * (-k)
        w = pw(0, A[0][0]) + pw(1, A[1][0])
        v = pw(0, A[0][1]) + pw(1, A[1][1])
        rels = [((0, 1), (1, 1), (0, -1), (1, -1)),
                ((2, 1),) + ((0, 1),) + ((2, -1),)
                + tuple((g, -s) for g, s in reversed(w)),
                ((2, 1),) + ((1, 1),) + ((2, -1),)
                + tuple((g, -s) for g, s in reversed(v))]
        bundle = Presentation(["a", "b", "c"], rels)
        tw = twisted_alexander(Twister(ClassMap(bundle, [(0,), (0,), (1,)])),
                               trivial_quotient(bundle))
        if tw.value == mapping_torus_alexander(A):
            agree += 1
    ok &= agree == 20
    _verdict(capsys, 4, ok, time.time() - t0,
             f"trefoil/fig8/N_a oracles and {agree}/20 SL(2,Z) mapping tori")


def test_criterion_05_cover_consistency(capsys):
    t0 = time.time()
    total = 0
    matches = 0
    for P, images in ((na_presentation(), [(0,), (0,), (1,)]),
                      (trefoil(), [(1,), (1,)])):
        phi = ClassMap(P, images)
        cache = {}
        for G in group_catalog(6):
            for q in enumerate_epimorphisms(P, G):
                total += 1
                key = (G.label, q.kernel_key())
                if key not in cache:
                    tw = twisted_alexander(Twister(phi), q)
                    phi_a, _ = pullback_class(phi, q,
                                              reidemeister_schreier(P, q))
                    tw_cover = twisted_alexander(
                        Twister(phi_a), trivial_quotient(phi_a.presentation))
                    cache[key] = (tw.value == tw_cover.value)
                matches += 1 if cache[key] else 0
    elapsed = time.time() - t0
    ok = total > 0 and matches == total and elapsed < 60.0
    _verdict(capsys, 5, ok, elapsed,
             f"twisted = cover polynomial for {matches}/{total} quotients "
             f"with |G| <= 6")


def _unipotent_bundle(k=2):
    rels = ["[a,b]", f"c a c^-1 a^-1", f"c b c^-1 b^-1 a^-{k}"]
    return Presentation.from_text(["a", "b", "c"], rels)


def test_criterion_06_norm_relation_and_degprop(capsys):
    t0 = time.time()
    t3 = Presentation.from_text(["a", "b", "c"], ["[a,b]", "[a,c]", "[b,c]"])
    fixtures = [
        (na_presentation(), [(0,), (0,), (1,)]),
        (na_presentation(), [(0,), (1,), (0,)]),
        (na_presentation(), [(0,), (1,), (1,)]),
        (na_presentation(), [(0,), (0,), (2,)]),
        (t3, [(1,), (0,), (0,)]),
        (t3, [(1,), (1,), (1,)]),
        (t3, [(2,), (4,), (0,)]),
        (_unipotent_bundle(), [(0,), (0,), (1,)]),
        (_unipotent_bundle(3), [(0,), (0,), (1,)]),
    ]
    ok = True
    for P, images in fixtures:
        phi = ClassMap(P, images)
        ab = abelianize(P)
        assert ab.free_rank >= 2
        delta = multivariable_alexander(P).value.representative
        w = phi.h_weights()
        tw = twisted_alexander(Twister(phi), trivial_quotient(P))
        ok &= norm_relation_check(tw.value, delta, w, class_divisibility(phi))
        deg = laurent_degree(tw.value.representative)
        bound = alexander_norm(delta, w) + 2 * class_divisibility(phi)
        ok &= deg <= bound
    _verdict(capsys, 6, ok, time.time() - t0,
             f"Prop. norm identity and degree bound on {len(fixtures)} "
             f"b_1 >= 2 closed fixtures")


def test_criterion_07_fibred_certificate(capsys):
    t0 = time.time()
    P = na_presentation()
    phi = ClassMap(P, [(0,), (0,), (1,)])
    cert = fibred_certificate(P, phi, 0, 6)
    ok = cert.verdict == "Fibred-evidence"
    for r in cert.records:
        ok &= r.monic and r.degree_equation_ok
        ok &= r.degree == r.group_order * 0 + 2 * r.div
    zero = Presentation(["a", "b"], [])
    cert0 = fibred_certificate(zero, ClassMap(zero, [(1,), (0,)]), 0, 2)
    ok &= cert0.verdict == "NotFibred"
    _verdict(capsys, 7, ok, time.time() - t0,
             f"N_a budget 6: Fibred-evidence over {len(cert.records)} "
             f"records; zero polynomial: NotFibred")


def test_criterion_08_clifford_suite(capsys):
    t0 = time.time()
    reports = verify_all()
    elapsed = time.time() - t0
    ok = len(reports) == 7 and all(r.ok for r in reports) and elapsed < 5.0
    checks = sum(len(r.checks) for r in reports)
    _verdict(capsys, 8, ok, elapsed,
             f"all 7 Clifford suites pass ({checks} identities)")


def test_criterion_09_property_suites(capsys):
    t0 = time.time()
    rng = random.Random(1000)
    failures = 0
    # Smith normal form on 1000 random matrices up to 6x6
    for _ in range(1000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = IntMatrix(m, n, [rng.randint(-9, 9) for _ in range(m * n)])
        s = smith_normal_form(M)
        good = (s.U * M * s.V == s.D and abs(int_det(s.U.to_lists())) == 1
                and abs(int_det(s.V.to_lists())) == 1 and s.D.is_diagonal())
        nz = [d for d in s.D.diagonal() if d != 0]
        good &= all(d >= 0 for d in s.D.diagonal())
        good &= all(b % a == 0 for a, b in zip(nz, nz[1:]))
        failures += 0 if good else 1
    # Fox fundamental identity: fixture relators + 500 random words
    def fox_identity(word, ngens):
        total = GroupRingElement.zero()
        for j in range(ngens):
            diff = GroupRingElement.from_word(((j, 1),)) - GroupRingElement.one()
            total = total + GroupRingElement(fox_derivative(word, j)) * diff
        return total == GroupRingElement.from_word(word) - GroupRingElement.one()

    for P in (na_presentation(), trefoil()):
        for r in P.relators:
            failures += 0 if fox_identity(r, P.ngens) else 1
    for _ in range(500):
        w = free_reduce(tuple((rng.randint(0, 2), rng.choice((1, -1)))
                              for _ in range(rng.randint(0, 12))))
        failures += 0 if fox_identity(w, 3) else 1
    # unit-normalization orbit invariance on 500 random Laurent polynomials
    for _ in range(500):
        p = LaurentPoly(1, {(rng.randint(-5, 5),): rng.randint(-9, 9)
                            for _ in range(rng.randint(0, 5))})
        n = rng.randint(-5, 5)
        sign = rng.choice((1, -1))
        if normalize_unit(p.shift((n,)) * sign) != normalize_unit(p):
            failures += 1
    ok = failures == 0
    _verdict(capsys, 9, ok, time.time() - t0,
             f"SNF x1000, Fox identity x{500 + 4}, normalization x500: "
             f"{failures} failures")


def test_criterion_10_form_diagnostics(capsys):
    t0 = time.time()
    code = main(["formcheck", str(FIXTURES / "m_form.form")])
    out = capsys.readouterr().out
    ok = code == 0
    ok &= "adjunction D: true" in out
    ok &= "adjunction iB2: true" in out
    for label in ("iB3", "iB4", "jB3", "jB4"):
        ok &= f"lagrangian_square {label}: true" in out
    ok &= "even: true" in out
    _verdict(capsys, 10, ok, time.time() - t0,
             "adjunction, Lagrangian squares and evenness for the fibre sum")
