"""Alexander norms and the fibredness certificate.

The Alexander norm of a class is the width of the multivariable Alexander
polynomial's support along it.  The certificate machinery runs the twisted
polynomial over every enumerated finite quotient up to a budget and checks
monicness together with the degree equation
deg = |G| * thurston + (1 + b3) * div, aggregating a verdict.  The Thurston
norm is user-supplied throughout; it is never computed here.
"""

from collections import namedtuple
from itertools import chain
from math import gcd

from .grouppres import (dihedral_group, check_table_entries, cyclic_group,
                        enumerate_epimorphisms, symmetric_group,
                        trivial_quotient)
from .laurent import (MINUS_INFINITY, LaurentPoly, RankMismatch, UnitClass,
                      laurent_degree, is_monic, specialize)
from .twistedalex import Twister, twisted_alexander


class ZeroClass(ValueError):
    """Divisibility of the zero class is undefined."""


class BudgetZero(ValueError):
    """The group budget admits no groups at all."""


def alexander_norm(delta, weights):
    """sup over support pairs of Phi(h_i - h_j); zero for Delta = 0."""
    if delta.rank != len(weights):
        raise RankMismatch("weight vector length != ring rank")
    if delta.is_zero():
        return 0
    values = [sum(w * e for w, e in zip(weights, exps)) for exps in delta.support()]
    return max(values) - min(values)


def divisibility(weights):
    """max k with Phi = k Phi': the gcd of the coordinate values."""
    d = gcd(*weights)
    if d == 0:
        raise ZeroClass("zero class has no divisibility")
    return d


def class_divisibility(phi):
    """Divisibility of a rank-1 ClassMap (gcd over generator values)."""
    return divisibility([img[0] for img in phi.images])


def _check_thurston(thurston_norm):
    if thurston_norm < 0 or thurston_norm % 2:
        raise ValueError("Thurston norm must be a nonnegative even integer")


NormReport = namedtuple("NormReport", "phi alexander_norm div thurston_norm "
                                       "b1 mcmullen_ok")


def mcmullen_check(delta, weights, thurston_norm, b1):
    """Audit of McMullen's inequality with the b_1 = 1 correction term."""
    _check_thurston(thurston_norm)
    a = alexander_norm(delta, weights)
    d = divisibility(weights) if any(weights) else 0
    slack = 2 * d if b1 == 1 else 0
    return NormReport(phi=tuple(weights), alexander_norm=a, div=d,
                      thurston_norm=thurston_norm, b1=b1,
                      mcmullen_ok=a <= thurston_norm + slack)


def norm_relation_check(delta, delta_multi, weights, div):
    """Delta_{Y,Phi} = (t^div - 1)^2 * Phi(Delta_Y), for b_1 > 1.

    delta is the single-variable polynomial of Phi (a UnitClass), delta_multi
    the multivariable one over Z[H], weights the values of Phi on a basis of
    H = Z^{b_1} and div the divisibility of Phi.
    """
    if len(weights) <= 1:
        raise ValueError("norm relation needs b_1 > 1")
    factor = (LaurentPoly.monomial(1, (div,)) - LaurentPoly.one(1)) ** 2
    return delta == UnitClass(factor * specialize(delta_multi, weights))


def degree_case_analysis(delta):
    """Classify the degree of a rank-1 UnitClass: -oo, 0, 2, 4 or other."""
    d = laurent_degree(delta.representative)
    if d is MINUS_INFINITY:
        return "-oo"
    return str(d) if d in (0, 2, 4) else "other"


# Outcome of Theorem-detect style checks for one finite quotient; poly is a
# UnitClass
AlphaRecord = namedtuple("AlphaRecord", "group_label group_order images div "
                                        "poly degree monic degree_equation_ok")

FibredCertificate = namedtuple("FibredCertificate",
                               "thurston_norm b3 budget records verdict")


def group_catalog(budget):
    """Deterministic list of catalog groups with order <= budget.

    Cyclic groups of every order, dihedral groups from D2 up (D1 = Z2), and
    S4 (S2, S3 duplicate Z2, D3).  Sorted by (order, label).  The tables are
    all held at once, so their entries are checked against
    MAX_TABLE_ENTRIES before any is built, or listed: budgets up to 125
    pass.
    """
    def squares(k):   # 2^2 + ... + k^2
        return max(0, k * (k + 1) * (2 * k + 1) // 6 - 1)

    check_table_entries(squares(budget) + 4 * squares(budget // 2)
                        + (24 * 24 if budget >= 24 else 0))
    makers = [(cyclic_group, n) for n in range(2, budget + 1)]
    makers += [(dihedral_group, n) for n in range(2, budget // 2 + 1)]
    if budget >= 24:
        makers.append((symmetric_group, 4))
    return sorted((make(n) for make, n in makers),
                  key=lambda g: (g.order, g.label))


def fibred_certificate(P, phi, thurston_norm, budget, b3=1, dedup_auto=False):
    """Run the fibredness criterion over all quotients up to the budget.

    Per quotient: the twisted polynomial, its degree and monicness, div of
    the pulled-back class, and the degree equation with the supplied
    Thurston norm.  The verdict is Fibred-evidence when every record is
    monic and passes the degree equation, NotFibred otherwise.
    """
    if budget < 1:
        raise BudgetZero("need a positive group-order budget")
    _check_thurston(thurston_norm)
    if b3 not in (0, 1):
        raise ValueError("b3 must be 0 (boundary) or 1 (closed)")
    twister = Twister(phi)  # refuses a trivial Phi; Fox terms, column, blocks
    cache = {}
    records = []
    # one group's epimorphisms are held at a time
    quotients = chain([trivial_quotient(P)],
                      chain.from_iterable(
                          enumerate_epimorphisms(P, G, dedup_auto=dedup_auto)
                          for G in group_catalog(budget)))
    for q in quotients:
        key = (q.group.label, q.kernel_key())
        if key in cache:
            # the key holds the group label, so label and order match
            records.append(cache[key]._replace(images=q.images))
            continue
        tw = twisted_alexander(twister, q)
        # div: the divisibility of Phi pulled back to ker(alpha), the gcd of
        # its values on the Schreier generators
        div = gcd(*chain.from_iterable(tw.schreier_values))
        deg = laurent_degree(tw.value.representative)
        expected = q.group.order * thurston_norm + (1 + b3) * div
        rec = AlphaRecord(group_label=q.group.label,
                          group_order=q.group.order, images=q.images,
                          div=div, poly=tw.value, degree=deg,
                          monic=is_monic(tw.value),
                          degree_equation_ok=(deg == expected))
        cache[key] = rec
        records.append(rec)

    if all(r.monic and r.degree_equation_ok for r in records):
        verdict = "Fibred-evidence"
    else:
        verdict = "NotFibred"
    return FibredCertificate(thurston_norm=thurston_norm, b3=b3, budget=budget,
                             records=tuple(records), verdict=verdict)
