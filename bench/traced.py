"""Traced in-process run of a workload's CLI jobs, for the per-layer metrics.

    python3 bench/traced.py SPEC.json

SPEC.json holds {"jobs": [[name, argv], ...], "seconds": s, "result": path}.
With `src` on the path, the jobs are run through `twistalex.cli.main` in
this process, repeatedly until `seconds` have elapsed, each pass under a
fresh Tracer.  The result file gets, per pass, each job's exit code and
stdout SHA-256 and the metrics below.  run.py starts this in a child
process so that a hung job can be killed, and scales the metrics in seconds
by the probe reading it took while this process ran.

Spans (one per wrapped function) and the metrics derived from them:

  cli.self_s                 self time of cli.main: argparse, formatting
  docio.parse_s              parse_document
  normsfibred.*              fibred_certificate; cache_hits counts records
                             that needed no twisted_alexander call
  grouppres.*                enumerate_epimorphisms (tuples_tried is
                             sum |G|^ngens over calls), kernel_key,
                             reidemeister_schreier, fox_jacobian
  twistedalex.*              twisted_alexander (self_s is its assembly),
                             twist_ring_map, _h0_order; jacobian_entries
                             sums rows * cols over max_minor_gcd calls
  polymat.*                  max_minor_gcd, laurent_det, _hermite_qpart,
                             _enum_minor_gcd_arrays, _independent_rows,
                             _bareiss_det (det_max_bits: largest result
                             coefficient), _gauss_valuation_sum (one call
                             per prime examined)
  laurent.*                  lp_gcd, div_exact
  exactalg.*                 smith_normal_form (max side of the input,
                             largest U/V entry bit length); IntMatrix.__mul__,
                             which ChainComplex uses to check d o d = 0
                             while a document is parsed
  clifford.*                 verify_iso per suite, CliffordElement.__mul__,
                             ExactMatrix.__mul__
  layer_share.<layer>        the layer's self time / traced wall
  trace.wall_s, trace.hook_s traced wall (sum of cli.main spans) and the
                             time spent deriving counters
A `_s` metric of a span is its inclusive time; a `_calls` metric its calls.
"""

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from spans import MODULES as LAYERS, Tracer  # noqa: E402
from workloads import sha256  # noqa: E402

SUITES = ("cliffmult", "cliff3", "cliffm1", "cliffiso", "endiso", "extcliff",
          "spin4-adjoint")


def _bits(values):
    return max((abs(v).bit_length() for v in values), default=0)


def _enum_call(tr, args, kwargs):
    P, G = args[0], args[1]
    tr.count("tuples_tried", G.order ** P.ngens)


def _enum_result(tr, args, result):
    tr.count("epimorphisms", len(result))


def _cert_result(tr, args, result):
    tr.count("records", len(result.records))


def _twisted_call(tr, args, kwargs):
    if tr.active("normsfibred.certificate"):
        tr.count("certificate_misses")


def _mmg_call(tr, args, kwargs):
    M = args[0]
    tr.count("jacobian_entries", len(M) * len(M[0]) if M else 0)


def _bareiss_result(tr, args, result):
    tr.maximum("det_max_bits", _bits(result))


def _snf_call(tr, args, kwargs):
    M = args[0]
    tr.maximum("snf_max_side", max(M.rows, M.cols))


def _snf_result(tr, args, result):
    tr.maximum("snf_transform_bits",
               max(_bits(result.U.entries), _bits(result.V.entries)))


SPANS = {
    "cli:main": "cli",
    "docio:parse_document": "docio.parse",
    "normsfibred:fibred_certificate": ("normsfibred.certificate", None,
                                       _cert_result),
    "grouppres:enumerate_epimorphisms": ("grouppres.enumerate", _enum_call,
                                         _enum_result),
    "grouppres:FiniteQuotient.kernel_key": "grouppres.kernel_key",
    "grouppres:reidemeister_schreier": "grouppres.reidemeister_schreier",
    "grouppres:fox_jacobian": "grouppres.fox_jacobian",
    "twistedalex:twisted_alexander": ("twistedalex.twisted_alexander",
                                      _twisted_call, None),
    "twistedalex:twist_ring_map": "twistedalex.twist_ring_map",
    "twistedalex:_h0_order": "twistedalex.h0_order",
    "polymat:max_minor_gcd": ("polymat.max_minor_gcd", _mmg_call, None),
    "polymat:laurent_det": "polymat.laurent_det",
    "polymat:_hermite_qpart": "polymat.hermite",
    "polymat:_enum_minor_gcd_arrays": "polymat.enum_minor_gcd",
    "polymat:_independent_rows": "polymat.independent_rows",
    "polymat:_bareiss_det": ("polymat.bareiss", None, _bareiss_result),
    "polymat:_gauss_valuation_sum": "polymat.gauss_valuation",
    "laurent:lp_gcd": "laurent.lp_gcd",
    "laurent:div_exact": "laurent.div_exact",
    "exactalg:smith_normal_form": ("exactalg.snf", _snf_call, _snf_result),
    "exactalg:IntMatrix.__mul__": "exactalg.matmul",
    "clifford:verify_iso": lambda args: f"clifford.suite.{args[0]}",
    "clifford:CliffordElement.__mul__": "clifford.product",
    "clifford:ExactMatrix.__mul__": "clifford.matrix_mul",
}


def metrics(tr):
    """Per-layer metrics of one traced pass (seconds, counts, ratios)."""
    s = lambda name: tr.total_ns[name] / 1e9          # noqa: E731
    own = lambda name: tr.self_ns[name] / 1e9         # noqa: E731
    c = tr.calls
    wall = s("cli")
    records = tr.counters["records"]
    hits = records - tr.counters["certificate_misses"]
    tuples = tr.counters["tuples_tried"]
    out = {
        "cli.self_s": own("cli"),
        "docio.parse_s": s("docio.parse"),
        "normsfibred.certificate_s": s("normsfibred.certificate"),
        "normsfibred.self_s": own("normsfibred.certificate"),
        "normsfibred.records": records,
        "normsfibred.cache_hits": hits,
        "normsfibred.cache_hit_ratio": hits / records if records else 0.0,
        "grouppres.enumerate_s": s("grouppres.enumerate"),
        "grouppres.tuples_tried": tuples,
        "grouppres.epimorphisms": tr.counters["epimorphisms"],
        "grouppres.epi_yield": (tr.counters["epimorphisms"] / tuples
                                if tuples else 0.0),
    }
    for span in ("grouppres.kernel_key", "grouppres.reidemeister_schreier",
                 "grouppres.fox_jacobian", "twistedalex.twisted_alexander",
                 "twistedalex.twist_ring_map", "polymat.max_minor_gcd",
                 "polymat.laurent_det", "polymat.bareiss", "laurent.lp_gcd",
                 "exactalg.snf", "exactalg.matmul", "clifford.product",
                 "clifford.matrix_mul"):
        out[f"{span}_s"] = s(span)
        out[f"{span}_calls"] = c[span]
    out.update({
        "twistedalex.self_s": own("twistedalex.twisted_alexander"),
        "twistedalex.h0_order_s": s("twistedalex.h0_order"),
        "twistedalex.jacobian_entries": tr.counters["jacobian_entries"],
        "polymat.hermite_s": s("polymat.hermite"),
        "polymat.hermite_path_calls": c["polymat.hermite"],
        "polymat.enum_path_calls": c["polymat.enum_minor_gcd"],
        "polymat.independent_rows_s": s("polymat.independent_rows"),
        "polymat.det_max_bits": tr.maxima["det_max_bits"],
        "polymat.gauss_valuation_s": s("polymat.gauss_valuation"),
        "polymat.primes_examined": c["polymat.gauss_valuation"],
        "laurent.div_exact_s": s("laurent.div_exact"),
        "exactalg.snf_max_side": tr.maxima["snf_max_side"],
        "exactalg.snf_transform_bits": tr.maxima["snf_transform_bits"],
    })
    for suite in SUITES:
        out[f"clifford.suite_s.{suite}"] = s(f"clifford.suite.{suite}")
    shares = dict.fromkeys(LAYERS, 0)
    for name, ns in tr.self_ns.items():
        shares[name.split(".")[0]] += ns
    for layer in LAYERS:
        out[f"layer_share.{layer}"] = shares[layer] / 1e9 / wall if wall else 0.0
    out["trace.wall_s"] = wall
    out["trace.hook_s"] = tr.hook_ns / 1e9
    return out


def run_pass(jobs):
    """One traced pass: [(name, exit code, stdout bytes)], Tracer."""
    import twistalex.cli as cli
    tr = Tracer()
    results = []
    with tr:
        missing = tr.install(SPANS)
        if missing:
            # their metrics read 0; the self-tests fail until SPANS follows
            print(f"warning: span targets not found: {missing}",
                  file=sys.stderr)
        for name, argv in jobs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            results.append((name, code, buf.getvalue().encode("utf-8")))
    return results, tr


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < spec["seconds"]:
        results, tr = run_pass(spec["jobs"])
        passes.append({"jobs": [[n, code, sha256(out)] for n, code, out in results],
                       "metrics": metrics(tr)})
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump({"passes": passes}, fh)


if __name__ == "__main__":
    main(sys.argv[1])
