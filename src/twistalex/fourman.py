"""Intersection-form diagnostics for closed 4-manifolds.

Adjunction arithmetic for symplectic surfaces, Lagrangian self-intersection,
and evenness of the form.  The geometric inputs (which classes are
symplectic or Lagrangian, genera, pairings with the canonical class) are
user-attested data; this module checks that the arithmetic they imply is
consistent.
"""

from collections import namedtuple

from .exactalg import IntMatrix


class MissingData(ValueError):
    """A check needs a field the data file did not supply."""


class SurfaceEntry(namedtuple("SurfaceEntry", "label kind genus")):
    """kind is symplectic, lagrangian or none; genus is None when unknown."""

    __slots__ = ()

    def __new__(cls, label, kind, genus=None):
        if kind not in ("symplectic", "lagrangian", "none"):
            raise ValueError(f"unknown surface kind {kind!r}")
        if genus is not None and genus < 0:
            raise ValueError(f"negative genus {genus}")
        return super().__new__(cls, label, kind, genus)


class FormData:
    """Basis labels, symmetric pairing matrix Q, characteristic vector K."""

    def __init__(self, labels, Q, K, surfaces=()):
        self.labels = tuple(labels)
        n = len(self.labels)
        if not isinstance(Q, IntMatrix):
            Q = IntMatrix.from_rows(Q)
        if Q.rows != n or Q.cols != n:
            raise ValueError("Q shape does not match the basis")
        if Q != Q.transpose():
            raise ValueError("Q must be symmetric")
        self.Q = Q
        self.K = tuple(int(x) for x in K)
        if len(self.K) != n:
            raise ValueError("K length does not match the basis")
        self.surfaces = {s.label: s for s in surfaces}
        for label in self.surfaces:
            if label not in self.labels:
                raise ValueError(f"surface {label!r} not in the basis")

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise MissingData(f"no basis class {label!r}") from None

    def self_pairing(self, label):
        i = self.index(label)
        return self.Q[i, i]

    def k_pairing(self, label):
        return self.K[self.index(label)]

    def surface(self, label):
        if label not in self.surfaces:
            raise MissingData(f"no surface data for {label!r}")
        return self.surfaces[label]


def adjunction_check(form, label):
    """K.S + S.S = 2g - 2 for a symplectic surface."""
    s = form.surface(label)
    if s.kind != "symplectic":
        raise MissingData(f"{label!r} is not tagged symplectic")
    if s.genus is None:
        raise MissingData(f"{label!r} has no genus")
    return form.k_pairing(label) + form.self_pairing(label) == 2 * s.genus - 2


def lagrangian_square_check(form, label):
    """S.S = 2g - 2 for a Lagrangian surface."""
    s = form.surface(label)
    if s.kind != "lagrangian":
        raise MissingData(f"{label!r} is not tagged lagrangian")
    if s.genus is None:
        raise MissingData(f"{label!r} has no genus")
    return form.self_pairing(label) == 2 * s.genus - 2


class EvennessReport(namedtuple("EvennessReport", "even characteristic_ok")):
    """even: all diagonal entries are even; characteristic_ok: Q(v,v) = K.v
    (mod 2) on the basis."""

    __slots__ = ()

    def __bool__(self):
        return self.even and self.characteristic_ok


def evenness_check(form):
    """Evenness of Q, plus the characteristic relation on the basis.

    Q(v,v) mod 2 is linear in v, so checking the basis suffices; the form is
    even exactly when every diagonal entry is even.
    """
    n = len(form.labels)
    diag_even = all(form.Q[i, i] % 2 == 0 for i in range(n))
    char_ok = all((form.Q[i, i] - form.K[i]) % 2 == 0 for i in range(n))
    return EvennessReport(even=diag_even, characteristic_ok=char_ok)
