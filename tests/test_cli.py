import hashlib
import os
import random
import subprocess
import sys
import time
from math import gcd

import pytest

from twistalex.cli import main
from twistalex.docio import (emit_complex, emit_form, emit_presentation,
                             emit_sequence, parse_document)

from conftest import FIXTURES, fixture_text


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_homology_na(capsys):
    code, out, _ = run(capsys, "homology", FIXTURES / "na.cplx")
    assert code == 0
    assert out == "H0=Z H1=Z^2 H2=Z^2 H3=Z\n"


def test_homology_product(capsys):
    code, out, _ = run(capsys, "homology", FIXTURES / "na_x_s1.cplx")
    assert code == 0
    assert out == "H0=Z H1=Z^3 H2=Z^4 H3=Z^3 H4=Z\n"


def test_homology_complement(capsys):
    code, out, _ = run(capsys, "homology", FIXTURES / "na_minus_nu.cplx")
    assert code == 0
    assert out.startswith("H0=Z H1=Z^2 H2=Z")


def test_homology_empty_complex_warns(capsys):
    code, out, err = run(capsys, "homology", FIXTURES / "empty.cplx")
    assert code == 0
    assert out == "H0=0\n"
    assert "warning" in err


def test_homology_structured(capsys):
    code, out, _ = run(capsys, "--output", "structured",
                       "homology", FIXTURES / "na.cplx")
    assert code == 0
    assert out.splitlines() == ["h.0=Z", "h.1=Z^2", "h.2=Z^2", "h.3=Z"]


def test_homology_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.cplx"
    bad.write_text("chain-complex\ncells: 1 x\n")
    code, _, err = run(capsys, "homology", bad)
    assert code == 2 and "error" in err


def test_homology_invalid_complex(capsys, tmp_path):
    bad = tmp_path / "bad.cplx"
    bad.write_text("chain-complex\ncells: 1 1 1\nboundary 1:\n1\nboundary 2:\n1\n")
    code, _, err = run(capsys, "homology", bad)
    assert code == 3


def test_alexander_na(capsys):
    code, out, _ = run(capsys, "alexander", FIXTURES / "na.pres",
                       "--phi", "fib")
    assert code == 0
    assert out == "delta = t^2 - 2*t + 1, deg 2, monic\n"


def test_alexander_trefoil(capsys):
    code, out, _ = run(capsys, "alexander", FIXTURES / "trefoil.pres",
                       "--phi", "ab")
    assert code == 0
    assert "t^2 - t + 1" in out and "monic" in out


def test_alexander_inline_phi(capsys):
    code, out, _ = run(capsys, "alexander", FIXTURES / "na.pres",
                       "--phi", "0,0,1")
    assert code == 0
    assert "t^2 - 2*t + 1" in out


def test_alexander_trivial_phi_is_precondition_error(capsys):
    code, _, err = run(capsys, "alexander", FIXTURES / "na.pres",
                       "--phi", "0,0,0")
    assert code == 3


def test_alexander_group(capsys):
    code, out, _ = run(capsys, "alexander", FIXTURES / "na.pres",
                       "--phi", "fib", "--group", "Z2")
    assert code == 0
    assert out.count("delta =") == 3
    assert "t^4 - 2*t^2 + 1" in out


def test_duplicate_generator_names_exit2(capsys, tmp_path):
    dup = tmp_path / "dup.pres"
    dup.write_text("presentation\ngenerators: a a\nrelator: a\n")
    code, out, err = run(capsys, "alexander", dup, "--phi", "1,0")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "duplicate generator name 'a'" in err


def test_oversized_power_exit2(capsys, tmp_path):
    big = tmp_path / "big.pres"
    big.write_text("presentation\ngenerators: a b\nrelator: a^1000000000000\n")
    code, out, err = run(capsys, "alexander", big, "--phi", "1,0")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "word longer than" in err


@pytest.mark.parametrize("command, text, extra, code, message", [
    ("formcheck", "form\nlabels: a b\nQ:\n0 1\n", (), 2, "Q: missing rows"),
    ("formcheck", "form\nlabels: a\nQ:\n2\nK: 0\n"
     "surface: a symplectic genus=x\n", (), 2, "expected an integer, got 'x'"),
    ("homology", "chain-complex\ncells: -1 1\n", (), 3,
     "invalid complex: negative cell count"),
    ("alexander", "presentation\n:\ngenerators: a\n", ("--phi", "1"), 2,
     "unexpected ':'"),
    ("homology", "chain-complex\ncells: 100000 100000\n", (), 2, "1000000"),
    ("homology", "chain-complex\ncells:" + " 1000" * 400 + "\n", (), 2,
     "line 2: 400000 cells are past the bound sum(cells) <= 100000"),
    ("homology", "chain-complex\ncells: 1 3\nboundary 1:\n0 7x 1\n", (), 2,
     "doc: line 4: expected an integer, got '7x'\n"),
    ("homology", "chain-complex\ncells: 2 2\nboundary 1:\n1 0\n0 1.5 x\n",
     (), 2, "doc: line 5: expected an integer, got '1.5'\n"),
    ("homology", "chain-complex\ncells: 1 3\nboundary 1:\n-0 00 1x\n", (), 2,
     "doc: line 4: expected an integer, got '1x'\n"),
    ("homology", "chain-complex\ncells: 1 3\nboundary 1:\n+0 1 2 3\n", (), 2,
     "doc: line 4: expected 3 entries\n"),
    ("alexander", None, ("--phi", "fib", "--group", "Z100000"), 3,
     "|G| = 100000 exceeds bound 12"),
    ("alexander", None, ("--phi", "fib", "--group", "Z100000", "--budget",
                         "100000"), 3,
     "10000000000 group table entries exceed the bound of 1000000"),
    ("fibred", None, ("--phi", "fib", "--thurston", "0", "--budget", "1000"),
     3, "group table entries exceed the bound of 1000000"),
    ("alexander", None, ("--phi", "0,0,99999999999"), 3,
     "twist degree 499999999995 exceeds the bound of 1000000"),
    ("fibred", None, ("--phi", "fib", "--thurston", "0", "--budget",
                      "99999999999"), 3,
     "499999999990000000000050000000571 group table entries exceed the bound"),
    ("alexander", "presentation\ngenerators: a b\n"
     "relator: a^49999 b a^-49999 b^-1\n", ("--phi", "0,1"), 2,
     "line 3: relators past the Fox bound sum L(L+1)/2 <= 4000000"),
    ("formcheck", "form\nlabels: a\nQ:\n0\nK: 0\n"
     "surface: a symplectic genus=-4\n", (), 2, "negative genus -4"),
    # a repeated single-valued key line, which would replace what was read
    ("alexander", "presentation\ngenerators: a b\nrelator: a b a^-1 b^-1\n"
     "generators: x y\nclass f: 1 0\n", ("--phi", "f"), 2,
     "line 4: repeated 'generators:'"),
    ("alexander", "presentation\ngenerators: a b\nclass f: 1 0\n"
     "class  f : 0 1\n", ("--phi", "f"), 2, "line 4: repeated 'class f:'"),
    ("homology", "chain-complex\ncells: 1 1\ncells: 1 1\n", (), 2,
     "line 3: repeated 'cells:'"),
    ("homology", "chain-complex\ncells: 1 1\nboundary 1:\n2\n"
     "boundary 01:\n0\n", (), 2, "line 5: repeated 'boundary 1:'"),
    ("formcheck", "form\nlabels: a\nlabels: b\n", (), 2,
     "line 3: repeated 'labels:'"),
    ("formcheck", "form\nlabels: a\nQ:\n0\nQ:\n2\nK: 0\n", (), 2,
     "line 5: repeated 'Q:'"),
    ("formcheck", "form\nlabels: a\nQ:\n0\nK: 0\nK: 2\n", (), 2,
     "line 6: repeated 'K:'"),
    ("formcheck", "form\nlabels: a\nQ:\n0\nK: 0\n"
     "surface: a symplectic\nsurface: a lagrangian\n", (), 2,
     "line 7: repeated 'surface: a'"),
    ("exactseq", "exact-sequence\nterm: 0\nterm: ? x\nmap 0 image: 1\n"
     "map 0 image: 2\n", (), 2, "line 5: repeated 'map 0 image:'"),
])
def test_malformed_input_one_error_line(capsys, tmp_path, command, text,
                                        extra, code, message):
    path = FIXTURES / "na.pres"
    if text is not None:
        path = tmp_path / "doc"
        path.write_text(text)
    start = time.perf_counter()
    got, out, err = run(capsys, command, path, *extra)
    assert time.perf_counter() - start < 1.0
    assert got == code
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert message in err


def test_alexander_no_valid_column_exit4(capsys):
    code, _, err = run(capsys, "alexander", FIXTURES / "t3.pres",
                       "--phi", "0 0 0".replace(" ", ","))
    assert code == 3  # trivial class
    code, _, err = run(capsys, "alexander", FIXTURES / "torus.pres",
                       "--phi", "x")
    assert code == 0


def test_multivariable(capsys):
    code, out, _ = run(capsys, "multivariable", FIXTURES / "na.pres")
    assert code == 0
    assert "delta = 1" in out


def test_norms(capsys):
    code, out, _ = run(capsys, "norms", FIXTURES / "na.pres",
                       "--phi", "fib", "--thurston", "0")
    assert code == 0
    assert "mcmullen_ok=true" in out
    assert "degprop_ok=true" in out
    assert "norm_relation_ok=true" in out


def test_norms_b1_over_3_exit4(capsys, tmp_path):
    wide = tmp_path / "wide.pres"
    wide.write_text("presentation\ngenerators: a b c d\nrelator: [a,b]\n")
    code, out, err = run(capsys, "norms", wide, "--phi", "1,0,0,0",
                         "--thurston", "0")
    assert code == 4
    assert out == ""
    assert err == "error: b_1 = 4 > 3\n"


def test_norms_twist_past_the_degree_bound_exit3(capsys, tmp_path):
    """norms refuses a multivariable twist past MAX_TWIST_DEGREE with the
    message and exit code of multivariable, not a traceback."""
    path = tmp_path / "steep.pres"
    path.write_text("presentation\ngenerators: a b\nrelator: a^1000 b^-999\n"
                    "class fib: 999 1000\n")
    code, out, err = run(capsys, "multivariable", path)
    assert code == 3 and out == ""
    assert err == ("error: twist degree 1999999 exceeds the bound "
                   "of 1000000\n")
    assert run(capsys, "norms", path, "--phi", "fib",
               "--thurston", "0") == (3, "", err)


def test_refusal_on_first_read_keeps_its_exit_code(capsys, monkeypatch):
    """The H_0 correction is computed when the value is first read, inside
    the handlers that guard the raw gcd: a refusal it raises exits 3 from
    multivariable and 4 from norms, with its own message."""
    import twistalex.twistedalex as ta
    from twistalex.laurent import UnsupportedRank

    def refuse(*_):
        raise UnsupportedRank("refused")
    monkeypatch.setattr(ta, "_h0_order", refuse)
    norms = ["norms", FIXTURES / "na.pres", "--phi", "fib", "--thurston", "0"]
    for argv, code in [(["multivariable", FIXTURES / "na.pres"], 3),
                       (norms, 4)]:
        assert run(capsys, *argv) == (code, "", "error: refused\n")


def test_alexander_job_shares_one_twister(capsys, monkeypatch):
    """alexander over many quotients twists by one Twister: the Fox terms
    with their Phi-values are computed once per job, and each summand
    block's part and content once per block key (d, the least of u * images
    mod d over the units u mod d), which the quotients share."""
    from functools import cached_property
    import twistalex.twistedalex as ta
    from twistalex.grouppres import cyclic_group, enumerate_epimorphisms
    owners, blocks = [], []
    real_fox = vars(ta.Twister)["_fox_terms"].func
    real_parts = ta._block_parts

    def fox_terms(self):
        owners.append(self)
        return real_fox(self)

    prop = cached_property(fox_terms)
    prop.__set_name__(ta.Twister, "_fox_terms")
    monkeypatch.setattr(ta.Twister, "_fox_terms", prop)
    monkeypatch.setattr(ta, "_block_parts",
                        lambda rows, width, d: blocks.append(d)
                        or real_parts(rows, width, d))
    code, out, _ = run(capsys, "alexander", FIXTURES / "na.pres", "--phi",
                       "fib", "--group", "Z12")
    _, (P, _) = parse_document(fixture_text("na.pres"))
    quotients = enumerate_epimorphisms(P, cyclic_group(12))
    assert code == 0 and out.count("\n") == len(quotients)
    [twister] = owners
    divisors = [d for d in range(1, 13) if 12 % d == 0]
    keys = {(d, min(tuple(u * x % d for x in q.images)
                    for u in range(1, d + 1) if gcd(u, d) == 1))
            for q in quotients for d in divisors}
    assert set(twister._parts) == keys
    assert len(blocks) == len(keys) < len(quotients) * len(divisors)


def test_norms_job_runs_one_smith_form(capsys, monkeypatch):
    """The Alexander norm's weights and the multivariable polynomial read
    one abelianization of the presentation."""
    import twistalex.exactalg as exactalg
    calls = []
    real = exactalg.smith_normal_form
    monkeypatch.setattr(exactalg, "smith_normal_form",
                        lambda M: calls.append(M) or real(M))
    code, _, _ = run(capsys, "norms", FIXTURES / "t3.pres", "--phi", "x",
                     "--thurston", "0")
    assert code == 0 and len(calls) == 1


def test_fibred(capsys):
    code, out, _ = run(capsys, "fibred", FIXTURES / "na.pres",
                       "--phi", "fib", "--thurston", "0", "--budget", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "verdict: Fibred-evidence"
    assert sum(1 for ln in lines if ln.startswith("alpha ")) == 12  # 1+3+8


def test_fibred_not_fibred(capsys):
    code, out, _ = run(capsys, "fibred", FIXTURES / "zero_alex.pres",
                       "--phi", "x", "--thurston", "0", "--budget", "2")
    assert code == 0
    assert out.splitlines()[-1] == "verdict: NotFibred"


@pytest.mark.parametrize("b3", ["7", "-1", "2"])
def test_fibred_b3_outside_0_1_exit3(capsys, b3):
    code, out, err = run(capsys, "fibred", FIXTURES / "na.pres", "--phi",
                         "fib", "--thurston", "0", "--budget", "2", "--b3", b3)
    assert code == 3 and out == ""
    assert err.splitlines() == ["error: b3 must be 0 (boundary) or 1 (closed)"]


def test_fibred_b3_0(capsys):
    code, out, _ = run(capsys, "fibred", FIXTURES / "na.pres", "--phi", "fib",
                       "--thurston", "0", "--budget", "2", "--b3", "0")
    assert code == 0
    assert out.splitlines() == [
        "thurston_norm=0 (user attested)", "b3=0", "budget=2",
        "alpha group=1 images=(0,0,0) div=1 delta=t^2 - 2*t + 1 deg=2 "
        "monic=true degree_eq=false",
        "alpha group=Z2 images=(0,0,1) div=2 delta=t^4 - 2*t^2 + 1 deg=4 "
        "monic=true degree_eq=false",
        "alpha group=Z2 images=(0,1,0) div=1 delta=t^2 - 2*t + 1 deg=2 "
        "monic=true degree_eq=false",
        "alpha group=Z2 images=(0,1,1) div=1 delta=t^2 - 2*t + 1 deg=2 "
        "monic=true degree_eq=false",
        "verdict: NotFibred"]


def test_fibred_budget_zero_exit4(capsys):
    code, _, err = run(capsys, "fibred", FIXTURES / "na.pres",
                       "--phi", "fib", "--thurston", "0", "--budget", "0")
    assert code == 4


def test_fibred_closed_stdout_exit1():
    """A reader that closes the pipe early (`| head`) gets exit 1 and no
    traceback."""
    root = FIXTURES.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "twistalex.cli", "fibred", "fixtures/na.pres",
         "--phi", "fib", "--thurston", "0", "--budget", "6"],
        cwd=root, env=env, stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    os.close(read_end)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


LARGE_CLASS_VALUES = [
    (("--phi", "30000,1,0"), b"delta = t^2 - 2*t + 1, deg 2, monic\n"),
    (("--phi", "3000,1,0", "--group", "Z2"),
     b"[Z2; a = (0,0,1)] delta = t^2 - 2*t + 1, deg 2, monic\n"
     b"[Z2; a = (0,1,0)] delta = t^4 - 2*t^2 + 1, deg 4, monic\n"
     b"[Z2; a = (0,1,1)] delta = t^2 - 2*t + 1, deg 2, monic\n"
     b"[Z2; a = (1,0,0)] delta = t^2 - 2*t + 1, deg 2, monic\n"
     b"[Z2; a = (1,0,1)] delta = t^2 - 2*t + 1, deg 2, monic\n"
     b"[Z2; a = (1,1,0)] delta = t^2 - 2*t + 1, deg 2, monic\n"
     b"[Z2; a = (1,1,1)] delta = t^2 - 2*t + 1, deg 2, monic\n"),
]


def test_large_class_value_finishes():
    """The Jacobian entries 1 - t^30000 cost their two terms, not their
    degree, in the Z[t] elimination; over Z2 the gcd check and the H_0
    correction divide polynomials of degree in the thousands."""
    root = FIXTURES.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for extra, expected in LARGE_CLASS_VALUES:
        proc = subprocess.run(
            [sys.executable, "-m", "twistalex.cli", "alexander",
             "fixtures/t3.pres", *extra],
            cwd=root, env=env, capture_output=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected


# The three long-relator jobs and their stdout, as printed before the Fox
# terms were read off one walk per relator (SHA-256 for the longer ones)
LONG_RELATOR_JOBS = [
    (["alexander", "--phi", "0,1"],
     "delta = 1412*t - 1412, deg 1, not monic\n"),
    (["fibred", "--phi", "0,1", "--thurston", "0", "--budget", "3"],
     "6a69a4b97c9925377a2276fe8278242ed69b0d7ceeadd1225446a33cd04529cc"),
    (["norms", "--phi", "0,1", "--thurston", "0"],
     "4192b313ee2f9f9cb6a9f511fa4450d67dc0daa79c8cfb9ffb8dc31a0d7a1466"),
]


@pytest.mark.parametrize("argv, expected", LONG_RELATOR_JOBS)
def test_long_relator_finishes(capsys, tmp_path, argv, expected):
    """a^1412 b a^-1412 b^-1 is the longest single relator that
    docio.MAX_FOX_LETTERS admits; its Fox terms are read off one walk per
    quotient, linear in its length, so each job takes under 1 s."""
    doc = tmp_path / "long.pres"
    doc.write_text("presentation\ngenerators: a b\n"
                   "relator: a^1412 b a^-1412 b^-1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], doc, *argv[1:])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert expected in (out, hashlib.sha256(out.encode()).hexdigest())


PEAK_RSS_CLI = """
import resource, sys
from twistalex import cli
code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_packed_box_past_the_bound_is_refused(tmp_path):
    """The minors of x = a^400 b^400 c^400 over Z^3 would pack into about
    400^3 coefficients: the box is refused before anything that size is
    allocated, with exit 3 for multivariable and 4 for norms."""
    doc = tmp_path / "k400.pres"
    doc.write_text("presentation\ngenerators: a b c x\nrelator: [a,b]\n"
                   "relator: [a,c]\nrelator: [b,c]\n"
                   "relator: x^-1 a^400 b^400 c^400\n")
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    norms = ["norms", doc, "--phi", "1,0,0,400", "--thurston", "0"]
    for argv, code in [(["multivariable", doc], "3"), (norms, "4")]:
        proc = subprocess.run([sys.executable, "-c", PEAK_RSS_CLI, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=5)
        got, peak_kib = proc.stdout.split()
        assert got == code
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: packed polynomial box of ")
        assert int(peak_kib) < 100 * 1024


def test_clifford_verify(capsys):
    code, out, _ = run(capsys, "clifford-verify", "cliffmult")
    assert code == 0
    assert "all passing: true" in out
    assert "FAIL" not in out


def test_clifford_verify_unknown_suite_exit2(capsys):
    code, out, err = run(capsys, "clifford-verify", "nope")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "unknown suite 'nope'" in err and "spin4-adjoint" in err


def test_formcheck_m(capsys):
    code, out, _ = run(capsys, "formcheck", FIXTURES / "m_form.form")
    assert code == 0
    assert "even: true" in out
    assert "adjunction D: true" in out
    assert "lagrangian_square iB3: true" in out


def test_formcheck_odd_reports_without_failing(capsys):
    code, out, _ = run(capsys, "formcheck", FIXTURES / "cp2.form")
    assert code == 0
    assert "even: false" in out


def test_exactseq(capsys):
    code, out, _ = run(capsys, "exactseq", FIXTURES / "m_mv.seq")
    assert code == 0
    assert out.splitlines()[:5] == ["H4=Z", "H3=Z^4", "H2=Z^6", "H1=Z^4",
                                    "H0=Z"]


@pytest.mark.parametrize("text", ["term: -3\n",
                                  "term: 2\nterm: ? x\nmap 0 image: -1\n"])
def test_exactseq_negative_rank_exit2(capsys, tmp_path, text):
    f = tmp_path / "neg.seq"
    f.write_text("exact-sequence\n" + text)
    code, out, err = run(capsys, "exactseq", f)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "negative" in err


def test_exactseq_underdetermined(capsys, tmp_path):
    f = tmp_path / "u.seq"
    f.write_text("exact-sequence\nterm: ? A\nterm: 5\nterm: ? B\n")
    code, _, err = run(capsys, "exactseq", f)
    assert code == 3


def test_determinism(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "fibred", FIXTURES / "na.pres",
                           "--phi", "fib", "--thurston", "0", "--budget", "3")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("name", ["na.cplx", "na_x_s1.cplx",
                                  "na_minus_nu.cplx", "empty.cplx"])
def test_roundtrip_complexes(name):
    tag, C = parse_document(fixture_text(name))
    text = emit_complex(C)
    tag2, C2 = parse_document(text)
    assert tag == tag2 == "chain-complex"
    assert C2.cells == C.cells and C2.boundaries == C.boundaries
    assert emit_complex(C2) == text


@pytest.mark.parametrize("name", ["na.pres", "trefoil.pres", "fig8.pres",
                                  "torus.pres", "t3.pres", "m.pres",
                                  "zero_alex.pres"])
def test_roundtrip_presentations(name):
    tag, (P, classes) = parse_document(fixture_text(name))
    text = emit_presentation(P, classes)
    _, (P2, classes2) = parse_document(text)
    assert P2.generators == P.generators and P2.relators == P.relators
    assert {k: v.images for k, v in classes2.items()} \
        == {k: v.images for k, v in classes.items()}
    assert emit_presentation(P2, classes2) == text


@pytest.mark.parametrize("name", ["m_form.form", "cp2.form"])
def test_roundtrip_forms(name):
    tag, form = parse_document(fixture_text(name))
    text = emit_form(form)
    _, form2 = parse_document(text)
    assert form2.labels == form.labels and form2.Q == form.Q
    assert form2.K == form.K and form2.surfaces == form.surfaces
    assert emit_form(form2) == text


def test_roundtrip_sequence():
    tag, seq = parse_document(fixture_text("m_mv.seq"))
    text = emit_sequence(seq)
    _, seq2 = parse_document(text)
    assert seq2.terms == seq.terms and seq2.maps == seq.maps
    assert emit_sequence(seq2) == text


# Odd option values for the argv sweep.  Groups stay at order <= 6 and
# valid fibred budgets at <= 4, so each call is cheap on m.pres too.
ODD_PHI = ("fib", "x", "ab", "0", "1,0", "", ",", "1,,0", "1.5", "a b")
ODD_GROUP = ("trivial", "1", "Z1", "Z2", "Z3", "Z6", "D2", "D3", "S3", "S0",
             "Z0", "D0", "D1", "Z-2", "Zx", "Q8", "S5", "Z99999999999",
             "D99999999999", "S99999999999", "")
ODD_INT = ("-1", "0", "1", "2", "3", "x", "1.5", "99999999999")
ODD_BUDGET = ("-1", "0", "1", "2", "3", "4", "x", "1000", "99999999999")


def _odd_phi(rng, ngens):
    """A class spec: an odd string, or one value per generator with now
    and then a huge one."""
    if rng.random() < 0.3:
        return rng.choice(ODD_PHI)
    values = [rng.choice((-2, -1, 0, 0, 1, 1, 2)) for _ in range(ngens)]
    if rng.random() < 0.15:
        values[rng.randrange(ngens)] = 99999999999
    return ",".join(map(str, values))


def _odd_argvs(per_pair=24):
    """A fixed sample of argvs: each .pres fixture x alexander,
    multivariable, norms and fibred, with odd option values."""
    rng = random.Random(9)
    options = {"alexander": ("--phi", "--group", "--budget"),
               "multivariable": ("--phi",),   # no such option
               "norms": ("--phi", "--thurston"),
               "fibred": ("--phi", "--thurston", "--b3", "--budget")}
    values = {"--group": ODD_GROUP, "--thurston": ODD_INT, "--b3": ODD_INT,
              "--budget": ODD_BUDGET}
    argvs = set()
    for path in sorted(FIXTURES.glob("*.pres")):
        _, (P, classes) = parse_document(path.read_text())
        for command, flags in options.items():
            for _ in range(per_pair):
                argv = (["--output", "structured"] if rng.random() < 0.2
                        else [])
                argv += [command, str(path)]
                for flag in flags:
                    # a fibred run without --budget would use the default 6
                    if (rng.random() < 0.15 and not
                            (command == "fibred" and flag == "--budget")):
                        continue
                    if flag == "--phi":
                        value = (rng.choice(sorted(classes))
                                 if classes and rng.random() < 0.3
                                 else _odd_phi(rng, P.ngens))
                    else:
                        value = rng.choice(values[flag])
                    argv += [flag, value]
                argvs.add(tuple(argv))
    return sorted(argvs)


def test_odd_argv_exits_with_a_documented_code(capsys):
    argvs = _odd_argvs()
    assert len(argvs) > 550
    for argv in argvs:
        try:
            code = main(list(argv))
        except SystemExit as exc:   # argparse rejects the option
            code = exc.code
        capsys.readouterr()
        assert code in (0, 2, 3, 4, 5), argv
