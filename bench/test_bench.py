"""Self-tests of the benchmark: the span tracer, the output gate and a probe
for a known defect outside the timed workloads.

    PYTHONPATH=src python -m pytest bench -q
"""

import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

FIBRED_SMALL = ["fibred", "fixtures/na.pres", "--phi", "fib", "--thurston",
                "0", "--budget", "6"]
HOMOLOGY_SMALL = ["homology", "fixtures/na_x_s1.cplx"]
CLIFFORD_SMALL = ["clifford-verify", "cliffmult"]

# Spans each workload is measured by, as they fire on a small input of the
# same kind.  polymat.gauss_valuation is absent: the pivot minor of every na
# quotient has content 1, so no prime is ever examined.
EXPECTED_SPANS = {
    "fibred": {"cli", "docio.parse", "normsfibred.certificate",
               "grouppres.enumerate", "grouppres.kernel_key",
               "grouppres.reidemeister_schreier", "grouppres.fox_jacobian",
               "twistedalex.twisted_alexander", "twistedalex.twist_ring_map",
               "twistedalex.h0_order", "polymat.max_minor_gcd",
               "polymat.laurent_det", "polymat.hermite",
               "polymat.enum_minor_gcd", "polymat.independent_rows",
               "polymat.bareiss", "laurent.lp_gcd", "laurent.div_exact"},
    "homology": {"cli", "docio.parse", "exactalg.snf", "exactalg.matmul"},
    "clifford": {"cli", "clifford.suite.cliffmult", "clifford.product",
                 "clifford.matrix_mul"},
}
SMALL = {"fibred": FIBRED_SMALL, "homology": HOMOLOGY_SMALL,
         "clifford": CLIFFORD_SMALL}


def cli_stdout(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "twistalex.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)


# ---- tracer ------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(SMALL))
def test_traced_run_matches_subprocess_and_fires_spans(kind, in_root):
    results, tr = traced.run_pass([[kind, SMALL[kind]]])
    [(_, code, stdout)] = results
    assert code == 0
    assert stdout == cli_stdout(SMALL[kind])
    fired = {name for name, n in tr.calls.items() if n}
    assert EXPECTED_SPANS[kind] <= fired, EXPECTED_SPANS[kind] - fired
    # every span is nested in cli.main, so the self times and the hook time
    # partition the root span exactly
    assert sum(tr.self_ns.values()) + tr.hook_ns == tr.total_ns["cli"]
    m = traced.metrics(tr)
    assert sum(m[f"layer_share.{layer}"] for layer in traced.LAYERS) <= 1 + 1e-9


def test_tracer_restores_every_binding(in_root):
    import twistalex.polymat as polymat
    import twistalex.twistedalex as twistedalex
    from twistalex.clifford import ExactMatrix
    before = (polymat.max_minor_gcd, twistedalex.max_minor_gcd,
              ExactMatrix.__mul__, ExactMatrix.__rmul__)
    with Tracer() as tr:
        assert tr.install(traced.SPANS) == []
        # a from-import binding is wrapped as well as the defining module's
        assert twistedalex.max_minor_gcd is polymat.max_minor_gcd
        assert polymat.max_minor_gcd is not before[0]
        assert ExactMatrix.__rmul__ is ExactMatrix.__mul__
    assert (polymat.max_minor_gcd, twistedalex.max_minor_gcd,
            ExactMatrix.__mul__, ExactMatrix.__rmul__) == before


def test_counters_on_small_fibred_input(in_root):
    _, tr = traced.run_pass([["fibred", FIBRED_SMALL]])
    m = traced.metrics(tr)
    # na has 3 generators; the catalog up to 6 is Z2..Z6, D2 (order 4), D3
    assert m["grouppres.tuples_tried"] == sum(
        n ** 3 for n in (2, 3, 4, 5, 6, 4, 6))
    assert m["normsfibred.records"] == m["grouppres.epimorphisms"] + 1
    assert (m["normsfibred.cache_hits"]
            == m["normsfibred.records"]
            - m["twistedalex.twisted_alexander_calls"])


# ---- output gate ---------------------------------------------------------------

@pytest.mark.parametrize("fixture,phi", [("na.pres", "fib"),
                                         ("fig8.pres", "fib"),
                                         ("m.pres", "0,0,1,0,0,0,1,0")])
@pytest.mark.parametrize("seed", [1, 2])
def test_fibred_invariants_hold_under_full_relabelling(fixture, phi, seed,
                                                       tmp_path):
    budget = "3" if fixture == "m.pres" else "6"
    args = ["--thurston", "0", "--budget", budget]
    base = cli_stdout(["fibred", f"fixtures/{fixture}", "--phi", phi, *args])
    with open(os.path.join(ROOT, "fixtures", fixture), encoding="utf-8") as fh:
        text, new_phi = inputs.relabel_presentation(
            fh.read(), phi, random.Random(seed))
    path = tmp_path / fixture
    path.write_text(text)
    out = cli_stdout(["fibred", str(path), "--phi", new_phi, *args])
    assert workloads.fibred_summary(out) == workloads.fibred_summary(base)


def test_rename_keeps_fibred_output_bytes(tmp_path):
    args = ["--phi", "fib", "--thurston", "0", "--budget", "6"]
    base = cli_stdout(["fibred", "fixtures/na.pres", *args])
    with open(os.path.join(ROOT, "fixtures", "na.pres"), encoding="utf-8") as fh:
        text = inputs.rename_presentation(fh.read(), random.Random(3))
    path = tmp_path / "na.pres"
    path.write_text(text)
    assert cli_stdout(["fibred", str(path), *args]) == base


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_homology_gate_accepts_relabelled_products(seed, tmp_path):
    job_list = workloads.jobs("homology", seed, ROOT, str(tmp_path))
    for job in job_list[2:]:      # na_x_s1 x na_x_s1, the smallest product
        assert job.check(cli_stdout(job.argv)) == []


def test_gates_reject_wrong_output(tmp_path):
    [fib] = workloads.jobs("fibred-na", 0, ROOT, str(tmp_path))
    golden = workloads.load_golden()["fibred-na"]
    lines = [b"alpha group=Z2 images=(0,0,1) div=2 delta=t^4 - 2*t^2 + 1 "
             b"deg=4 monic=true degree_eq=true"] * golden["records"]
    bad = b"\n".join(lines + [golden["verdict"].encode()]) + b"\n"
    assert fib.check(bad) == ["stdout differs from the golden digest",
                              "record multiset differs"]
    hom = workloads.jobs("homology", 1, ROOT, str(tmp_path))[2]
    assert hom.check(b"H0=Z H1=Z^6+Z/2\n")
    [cl] = workloads.jobs("clifford", 5, ROOT, str(tmp_path))
    assert cl.check(b"suites: 7, all passing: false\n")


def test_tensor_complex_is_a_complex():
    cx = inputs.parse_complex(open(os.path.join(ROOT, "fixtures",
                                                "na_minus_nu.cplx")).read())
    for seed in (0, 1):
        cells, bounds = inputs.tensor_complex(cx, cx)
        if seed:
            cells, bounds = inputs.relabel_complex((cells, bounds),
                                                   random.Random(seed))
        for d1, d2 in zip(bounds, bounds[1:]):
            prod = [[sum(a * b for a, b in zip(row, col)) for col in zip(*d2)]
                    for row in d1]
            assert not any(any(r) for r in prod)


# ---- known defect ----------------------------------------------------------------

def dense_conjugated_boundary(n=20, seed=0, steps=40):
    """A rank-(n - 2) integer matrix U * D * V with U, V dense unimodular.

    D is diag(1, ..., 1, 2, 0, 0).  U and V are products of random
    elementary matrices with multipliers in -3..3, so their entries stay
    small and the input entries stay below 2^11.
    """
    rng = random.Random(seed)
    a = [[0] * n for _ in range(n)]
    for i in range(n - 2):
        a[i][i] = 1
    a[n - 3][n - 3] = 2
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        for row in a:
            row[j] += c * row[i]
    return a


PROBE_LIMIT_S = 3


@pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                   reason="smith_normal_form grows coefficients without "
                          "bound on dense unimodularly conjugated input")
def test_snf_finishes_on_dense_conjugated_boundary():
    rows = dense_conjugated_boundary()
    assert max(abs(x) for r in rows for x in r).bit_length() <= 11
    code = ("import sys; from twistalex.exactalg import IntMatrix, "
            "smith_normal_form; smith_normal_form(IntMatrix.from_rows("
            f"{rows!r}))")
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=PROBE_LIMIT_S)
