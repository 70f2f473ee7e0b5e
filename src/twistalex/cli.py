"""Batch command-line front end.

One job per invocation; deterministic output (byte-identical for identical
inputs).  Exit codes: 0 ok, 1 stdout closed before the report was written,
2 parse error, 3 precondition violated, 4 computation impossible,
5 verification failed.
"""

import argparse
import os
import sys

# Each command imports the modules it runs inside its own body: a job pays
# to compile every module it imports, and `homology` needs three of ten.

EXIT_OK = 0
EXIT_STDOUT_CLOSED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_IMPOSSIBLE = 4
EXIT_VERIFY = 5


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from None


def _load(path, kind):
    from .docio import ParseError, parse_document
    try:
        tag, value = parse_document(_read(path))
    except ParseError as exc:
        raise CliError(EXIT_PARSE, f"{path}: {exc}") from None
    except ValueError as exc:
        # only a chain complex raises ComplexInvalid, and its parser has
        # loaded exactalg already
        from .exactalg import ComplexInvalid
        if not isinstance(exc, ComplexInvalid):
            raise
        raise CliError(EXIT_PRECONDITION, f"{path}: invalid complex: {exc}") from None
    if tag != kind:
        raise CliError(EXIT_PARSE, f"{path}: expected a {kind} document, got {tag}")
    return value


def _resolve_phi(P, classes, spec):
    from .grouppres import ClassMap
    if spec is None:
        raise CliError(EXIT_PRECONDITION, "a class is required (--phi)")
    if spec in classes:
        phi = classes[spec]
    else:
        try:
            values = [int(x) for x in spec.replace(",", " ").split()]
        except ValueError:
            raise CliError(EXIT_PARSE, f"cannot parse class {spec!r}") from None
        if len(values) != P.ngens:
            raise CliError(EXIT_PARSE, "class needs one value per generator")
        try:
            phi = ClassMap(P, [(v,) for v in values])
        except ValueError as exc:
            raise CliError(EXIT_PRECONDITION, str(exc)) from None
    if phi.is_trivial():
        raise CliError(EXIT_PRECONDITION, "the class is trivial")
    return phi


def _bool(b):
    return "true" if b else "false"


# ---- commands -------------------------------------------------------------

def cmd_homology(args):
    from .exactalg import all_homology
    C = _load(args.file, "chain-complex")
    groups = all_homology(C)
    if sum(C.cells) == 0:
        print("warning: empty complex", file=sys.stderr)
    if args.output == "structured":
        return [f"h.{k}={g}" for k, g in enumerate(groups)]
    return [" ".join(f"H{k}={g}" for k, g in enumerate(groups))]


def _alexander_lines(phi, quotients, output):
    from .laurent import is_monic, laurent_degree, render_poly
    from .twistedalex import Twister, twisted_alexander
    twister = Twister(phi)  # the quotients share its Fox terms and blocks
    lines = []
    for q in quotients:
        tw = twisted_alexander(twister, q)
        rep = tw.value.representative
        deg = laurent_degree(rep)
        images = ",".join(str(x) for x in q.images)
        if output == "structured":
            lines.append(f"alpha.group={q.group.label}")
            lines.append(f"alpha.images={images}")
            lines.append(f"delta={render_poly(rep)}")
            lines.append(f"degree={deg}")
            lines.append(f"monic={_bool(is_monic(tw.value))}")
            lines.append(f"raw_minor_gcd={tw.raw_minor_gcd}")
            lines.append(f"h0_correction={tw.h0_correction}")
        else:
            head = f"[{q.group.label}; a = ({images})] " if q.group.order > 1 else ""
            lines.append(f"{head}delta = {render_poly(rep)}, "
                         f"deg {deg}, "
                         f"{'monic' if is_monic(tw.value) else 'not monic'}")
    return lines


def cmd_alexander(args):
    from .grouppres import (BoundExceeded, check_order, enumerate_epimorphisms,
                            parse_group_spec, trivial_quotient)
    P, classes = _load(args.file, "presentation")
    phi = _resolve_phi(P, classes, args.phi)
    try:
        order, build = parse_group_spec(args.group)
        if order > 1:  # the trivial group is the untwisted case, not enumerated
            check_order(order, args.budget)
        G = build()
    except BoundExceeded as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from None
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc)) from None
    try:
        if G.order == 1:
            quotients = [trivial_quotient(P)]
        else:
            quotients = enumerate_epimorphisms(P, G, dedup_auto=args.dedup_aut)
            if not quotients:
                return [f"no epimorphisms onto {G.label}"]
        return _alexander_lines(phi, quotients, args.output)
    except BoundExceeded as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from None


def cmd_multivariable(args):
    from .grouppres import BoundExceeded
    from .laurent import UnsupportedRank, render_poly
    from .twistedalex import NoValidColumn, multivariable_alexander
    P, _ = _load(args.file, "presentation")
    try:
        rep = multivariable_alexander(P).value.representative
    except (NoValidColumn, UnsupportedRank, BoundExceeded) as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from None
    if args.output == "structured":
        return [f"rank={rep.rank}", f"delta={render_poly(rep)}"]
    return [f"delta = {render_poly(rep)} (over Z[t1..t{rep.rank}])"]


def cmd_norms(args):
    from .grouppres import BoundExceeded, trivial_quotient
    from .laurent import UnsupportedRank, laurent_degree
    from .normsfibred import (ZeroClass, class_divisibility,
                              degree_case_analysis, mcmullen_check,
                              norm_relation_check)
    from .twistedalex import (Twister, multivariable_alexander,
                              twisted_alexander)
    P, classes = _load(args.file, "presentation")
    phi = _resolve_phi(P, classes, args.phi)
    if args.thurston is None:
        raise CliError(EXIT_PRECONDITION, "norms needs --thurston")
    try:
        w = phi.h_weights()
        dv = class_divisibility(phi)
    except (ValueError, ZeroClass) as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from None
    b1 = len(w)
    try:
        delta = multivariable_alexander(P).value.representative
    except UnsupportedRank as exc:
        raise CliError(EXIT_IMPOSSIBLE, str(exc)) from None
    except BoundExceeded as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from None
    try:
        report = mcmullen_check(delta, w, args.thurston, b1)
    except ValueError as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from None
    try:
        single = twisted_alexander(Twister(phi), trivial_quotient(P)).value
    except BoundExceeded as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from None
    deg = laurent_degree(single.representative)
    degprop_ok = deg <= report.alexander_norm + 2 * dv
    lines = [
        f"b1={b1}",
        f"alexander_norm={report.alexander_norm}",
        f"div={dv}",
        f"thurston_norm={args.thurston}",
        f"mcmullen_ok={_bool(report.mcmullen_ok)}",
        f"delta_single={single}",
        f"degree={deg}",
        f"degree_case={degree_case_analysis(single)}",
        f"degprop_ok={_bool(degprop_ok)}",
    ]
    if b1 > 1:
        ok = norm_relation_check(single, delta, w, dv)
        lines.append(f"norm_relation_ok={_bool(ok)}")
    return lines


def cmd_fibred(args):
    from .normsfibred import BudgetZero, fibred_certificate
    P, classes = _load(args.file, "presentation")
    phi = _resolve_phi(P, classes, args.phi)
    if args.thurston is None:
        raise CliError(EXIT_PRECONDITION, "fibred needs --thurston")
    try:
        cert = fibred_certificate(P, phi, args.thurston, args.budget,
                                  b3=args.b3, dedup_auto=args.dedup_aut)
    except BudgetZero as exc:
        raise CliError(EXIT_IMPOSSIBLE, str(exc)) from None
    except ValueError as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from None
    lines = [f"thurston_norm={cert.thurston_norm} (user attested)",
             f"b3={cert.b3}", f"budget={cert.budget}"]
    for r in cert.records:
        images = ",".join(str(x) for x in r.images)
        lines.append(f"alpha group={r.group_label} images=({images}) "
                     f"div={r.div} delta={r.poly} deg={r.degree} "
                     f"monic={_bool(r.monic)} "
                     f"degree_eq={_bool(r.degree_equation_ok)}")
    lines.append(f"verdict: {cert.verdict}")
    return lines


def cmd_clifford_verify(args):
    from .clifford import UnknownSuite, verify_all, verify_iso
    try:
        suites = verify_all() if args.suite == "all" else [verify_iso(args.suite)]
    except UnknownSuite as exc:
        raise CliError(EXIT_PARSE, str(exc)) from None
    lines = []
    failed = False
    for rep in suites:
        for c in rep.checks:
            lines.append(f"[{rep.name}] {'ok  ' if c.ok else 'FAIL'} {c.description}")
        failed = failed or not rep.ok
    lines.append(f"suites: {len(suites)}, all passing: {_bool(not failed)}")
    if failed:
        for line in lines:
            print(line)
        raise CliError(EXIT_VERIFY, "clifford verification failed")
    return lines


def cmd_formcheck(args):
    from .fourman import (MissingData, adjunction_check, evenness_check,
                          lagrangian_square_check)
    form = _load(args.file, "form")
    lines = []
    try:
        for label in form.labels:
            if label not in form.surfaces:
                continue
            s = form.surfaces[label]
            if s.kind == "symplectic":
                ok = adjunction_check(form, label)
                lines.append(f"adjunction {label}: {_bool(ok)}")
            elif s.kind == "lagrangian":
                ok = lagrangian_square_check(form, label)
                lines.append(f"lagrangian_square {label}: {_bool(ok)}")
        report = evenness_check(form)
    except MissingData as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from None
    lines.append(f"characteristic_ok: {_bool(report.characteristic_ok)}")
    lines.append(f"even: {_bool(report.even)}")
    return lines


def cmd_exactseq(args):
    from .exactalg import Inconsistent, Underdetermined, exact_sequence_solve
    seq = _load(args.file, "exact-sequence")
    try:
        ranks = exact_sequence_solve(seq)
    except (Underdetermined, Inconsistent) as exc:
        raise CliError(EXIT_PRECONDITION, str(exc)) from None
    lines = []
    for term, rank in zip(seq.terms, ranks):
        if not isinstance(term, int):
            group = "0" if rank == 0 else ("Z" if rank == 1 else f"Z^{rank}")
            lines.append(f"{term}={group}")
    lines.append("ranks: " + " ".join(str(r) for r in ranks))
    return lines


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twistalex",
        description="Exact homology, Alexander polynomials, fibredness "
                    "certificates and Clifford-algebra verification.")
    parser.add_argument("--output", choices=("text", "structured"),
                        default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="homology of a CW chain complex")
    p.add_argument("file")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("alexander", help="(twisted) Alexander polynomial")
    p.add_argument("file")
    p.add_argument("--phi", help="class name from the file, or values like '0,0,1'")
    p.add_argument("--group", default="trivial",
                   help="finite group spec: trivial, Z6, D3, S3, ...")
    p.add_argument("--budget", type=int, default=12)
    p.add_argument("--dedup-aut", action="store_true")
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("multivariable", help="multivariable Alexander polynomial")
    p.add_argument("file")
    p.set_defaults(func=cmd_multivariable)

    p = sub.add_parser("norms", help="Alexander norm and inequality audits")
    p.add_argument("file")
    p.add_argument("--phi")
    p.add_argument("--thurston", type=int)
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("fibred", help="fibredness certificate")
    p.add_argument("file")
    p.add_argument("--phi")
    p.add_argument("--thurston", type=int)
    p.add_argument("--budget", type=int, default=6)
    p.add_argument("--b3", type=int, default=1)
    p.add_argument("--dedup-aut", action="store_true")
    p.set_defaults(func=cmd_fibred)

    p = sub.add_parser("clifford-verify", help="verify the Clifford isomorphisms")
    p.add_argument("suite", nargs="?", default="all")
    p.set_defaults(func=cmd_clifford_verify)

    p = sub.add_parser("formcheck", help="intersection-form diagnostics")
    p.add_argument("file")
    p.set_defaults(func=cmd_formcheck)

    p = sub.add_parser("exactseq", help="resolve ranks in an exact sequence")
    p.add_argument("file")
    p.set_defaults(func=cmd_exactseq)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        lines = args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that write succeed
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
