"""The benchmark workloads: the CLI jobs each one runs and how each job's
output is checked.

Every check returns a list of problems; an empty list means the output is
correct.  At seed 0 the inputs are the fixtures as written (or, for
homology, products built from them deterministically) and each job's stdout
must match the golden SHA-256 recorded in golden.json from the commit that
defined the benchmark.  At every seed the outputs must also satisfy checks
that do not depend on the relabelling.
"""

import hashlib
import json
import os
import re
from fractions import Fraction

from inputs import (emit_complex, parse_complex, relabel_complex,
                    rename_presentation, rng_for, tensor_complex)

HERE = os.path.dirname(os.path.abspath(__file__))

FIBRED = {
    # workload: (fixture, --phi, --budget)
    "fibred-na": ("na.pres", "fib", "16"),
    "fibred-m": ("m.pres", "0,0,1,0,0,0,1,0", "5"),
}
PRODUCTS = (("na_minus_nu", "na_minus_nu", "na"),
            ("na_minus_nu", "na", "na"),
            ("na_x_s1", "na_x_s1"))
WORKLOADS = ("fibred-na", "fibred-m", "clifford", "homology")
CLIFFORD_LAST = "suites: 7, all passing: true"
CLIFFORD_LINES = 63


class Job:
    def __init__(self, name, argv, check):
        self.name = name
        self.argv = argv
        self.check = check


def load_golden():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# ---- fibred ------------------------------------------------------------------

_RECORD = re.compile(r"alpha group=(\S+) images=\([^)]*\) (.*)$")


def fibred_summary(stdout):
    """(verdict, digest of the sorted record multiset without images)."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    verdict = lines[-1] if lines and lines[-1].startswith("verdict: ") else None
    records = []
    for line in lines:
        m = _RECORD.match(line)
        if m:
            records.append(f"{m.group(1)} {m.group(2)}")
    records.sort()
    return verdict, len(records), sha256("\n".join(records).encode())


def _fibred_check(name, golden, seed):
    def check(stdout):
        problems = []
        if seed == 0 and sha256(stdout) != golden[name]["stdout_sha256"]:
            problems.append("stdout differs from the golden digest")
        verdict, count, digest = fibred_summary(stdout)
        want = golden[name]
        if verdict != want["verdict"]:
            problems.append(f"verdict {verdict!r}, expected {want['verdict']!r}")
        if count != want["records"] or digest != want["records_sha256"]:
            problems.append("record multiset differs")
        return problems
    return check


# ---- homology ------------------------------------------------------------------

def _rank(rows):
    """Rank over Q by elimination with fractions; the factors are small."""
    a = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def betti(cx):
    cells, bounds = cx
    ranks = [0] + [_rank(d) if d and d[0] else 0 for d in bounds] + [0]
    return [cells[k] - ranks[k] - ranks[k + 1] for k in range(len(cells))]


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _homology_check(name, golden, seed, expected):
    def check(stdout):
        problems = []
        if seed == 0 and sha256(stdout) != golden[name]["stdout_sha256"]:
            problems.append("stdout differs from the golden digest")
        got = []
        for part in stdout.decode("utf-8", "replace").split():
            _, _, group = part.partition("=")      # "Z^6", "Z", "0", "Z/2"
            if "/" in group:
                problems.append(f"unexpected torsion in {part}")
            free = group.split("+")[0]
            if free == "Z":
                got.append(1)
            elif free.startswith("Z^"):
                got.append(int(free[2:]))
            else:
                got.append(0)
        if got != expected:
            problems.append(f"Betti numbers {got}, Kunneth gives {expected}")
        return problems
    return check


# ---- clifford ------------------------------------------------------------------

def _clifford_check(name, golden, seed):
    def check(stdout):
        problems = []
        if seed == 0 and sha256(stdout) != golden[name]["stdout_sha256"]:
            problems.append("stdout differs from the golden digest")
        lines = stdout.decode("utf-8", "replace").splitlines()
        if len(lines) != CLIFFORD_LINES or not lines or lines[-1] != CLIFFORD_LAST:
            problems.append("expected 63 lines ending with " + CLIFFORD_LAST)
        if any("] FAIL " in line for line in lines):
            problems.append("a Clifford check failed")
        return problems
    return check


# ---- job lists -----------------------------------------------------------------

def jobs(workload, seed, root, workdir):
    """The workload's CLI jobs (argv after the program name) at a seed.

    Inputs that are not fixtures are written under `workdir`; paths in argv
    are relative to `root`, where the jobs run.
    """
    golden = load_golden()
    fixtures = os.path.join(root, "fixtures")
    if workload in FIBRED:
        fixture, phi, budget = FIBRED[workload]
        path = os.path.join(fixtures, fixture)
        if seed != 0:
            with open(path, encoding="utf-8") as fh:
                text = rename_presentation(fh.read(), rng_for(seed, fixture))
            path = os.path.join(workdir, fixture)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = ["fibred", os.path.relpath(path, root), "--phi", phi,
                "--thurston", "0",
                "--budget", budget]
        return [Job(workload, argv, _fibred_check(workload, golden, seed))]
    if workload == "clifford":
        # the Clifford suites take no input; the seed has nothing to relabel
        return [Job(workload, ["clifford-verify"],
                    _clifford_check(workload, golden, seed))]
    if workload == "homology":
        factors = {}
        out = []
        for product in PRODUCTS:
            for f in product:
                if f not in factors:
                    with open(os.path.join(fixtures, f + ".cplx"),
                              encoding="utf-8") as fh:
                        factors[f] = parse_complex(fh.read())
            cx = factors[product[0]]
            expected = betti(cx)
            for f in product[1:]:
                cx = tensor_complex(cx, factors[f])
                expected = convolve(expected, betti(factors[f]))
            label = "x".join(product)
            if seed != 0:
                cx = relabel_complex(cx, rng_for(seed, label))
            path = os.path.join(workdir, label + ".cplx")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(emit_complex(*cx, comment=" x ".join(product)))
            name = f"homology.{label}"
            out.append(Job(name, ["homology", os.path.relpath(path, root)],
                           _homology_check(name, golden, seed, expected)))
        return out
    raise ValueError(f"unknown workload {workload!r}")
