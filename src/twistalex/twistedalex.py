"""Twisted Alexander polynomials.

The pipeline: twist the Fox Jacobian of a presentation through alpha x Phi
(the regular action of a finite quotient times an abelian class), delete one
generator column, and take the gcd of the maximal minors.  In the regular
representation alpha(g) permutes G in |G|/ord g cycles of length ord g, so
det(twist(g) - I) = +-(t^(Phi(g) ord g) - 1)^(|G|/ord g), which is nonzero
exactly when Phi(g) != 0: the deleted column is the first generator with
Phi(g) != 0.  The headline value corrects the raw minor gcd by the order of
the twisted H_0, which matches the module-order definition on every oracle
family; both are exposed.
"""

from dataclasses import dataclass

from .grouppres import (ClassMap, FiniteQuotient, GroupRingElement,
                        Incompatible, abelianize, trivial_group)
from .laurent import (LaurentPoly, UnitClass, UnsupportedRank, div_exact,
                      lp_gcd_many)
from .polymat import laurent_det, max_minor_gcd


class NoValidColumn(ValueError):
    """A forced column with det(twist(g) - I) = 0, or b_1 = 0."""


@dataclass(frozen=True)
class TwistData:
    """A class Phi to Z^s plus a finite quotient alpha (regular action)."""

    phi: ClassMap
    alpha: FiniteQuotient

    def __post_init__(self):
        if self.phi.is_trivial():
            raise ValueError("Phi must be nontrivial")
        if self.phi.presentation is not self.alpha.presentation:
            p, q = self.phi.presentation, self.alpha.presentation
            if p.generators != q.generators or p.relators != q.relators:
                raise Incompatible("Phi and alpha live on different presentations")

    @property
    def rank(self):
        return self.phi.target_rank

    @property
    def degree(self):
        return self.alpha.group.order


def trivial_twist(P, phi):
    """TwistData with trivial finite part."""
    q = FiniteQuotient(P, trivial_group(), (0,) * P.ngens)
    return TwistData(phi, q)


def twist_ring_map(x, T):
    """Dense matrix over the Laurent ring for a word or group-ring element.

    The twist of a word w is left multiplication by alpha(w) on the regular
    representation, times t^Phi(w): column y holds t^Phi(w) in row alpha(w) y.
    """
    n = T.phi.presentation.ngens
    G = T.alpha.group
    zero = LaurentPoly.zero(T.rank)
    out = [[zero] * G.order for _ in range(G.order)]
    for w, c in ({x: 1} if isinstance(x, tuple) else x.terms).items():
        for g, _ in w:
            if not 0 <= g < n:
                raise Incompatible(f"generator index {g} outside presentation")
        a = T.alpha.of_word(w)
        mono = LaurentPoly.monomial(T.rank, T.phi.of_word(w), c)
        for y in range(G.order):
            i = G.mul(a, y)
            out[i][y] = out[i][y] + mono
    return out


def _h0_order(T):
    """Order of the twisted H_0: gcd of t^v - 1 over Phi(ker alpha) generators.

    Phi(ker alpha) is generated by the Phi-values of the Schreier generators,
    v = Phi(t_x) + Phi(g_i) - Phi(t_{x g_i}), with the transversal t read off
    the parent edges of alpha's coset table; tree edges give v = 0.  t^v - 1
    and t^-v - 1 are associates, so each v is taken once up to sign.
    """
    q, phi, rank = T.alpha, T.phi, T.rank
    G = q.group
    trans = [None] * G.order
    trans[0] = (0,) * rank
    for y in q.order[1:]:
        x, i, s = q.parent[y]
        trans[y] = tuple(a + s * b for a, b in zip(trans[x], phi.of_generator(i)))
    values = (tuple(a + b - c for a, b, c in
                    zip(trans[x], phi.of_generator(i), trans[G.mul(x, img)]))
              for x in q.order for i, img in enumerate(q.images))
    signed = dict.fromkeys(v if next(a for a in v if a) > 0
                           else tuple(-a for a in v)
                           for v in values if any(v))
    one = LaurentPoly.one(rank)
    return lp_gcd_many((LaurentPoly.monomial(rank, v) - one for v in signed),
                       rank).representative


@dataclass(frozen=True)
class TwistedPoly:
    """A twisted Alexander polynomial with its computation metadata."""

    value: UnitClass
    raw_minor_gcd: UnitClass
    h0_order: UnitClass
    h0_correction: UnitClass
    deleted_column: int
    ring_rank: int
    correction_exact: bool = True

    def __str__(self):
        return str(self.value)


def twisted_alexander(P, T, column=None):
    """The twisted Alexander polynomial of (P, alpha, Phi).

    Deletes generator column j, takes the gcd of the maximal minors of the
    remaining twisted Jacobian, and divides by det(twist(g_j) - I)/ord(H_0);
    the result is independent of the column up to units.  The column is
    valid exactly when Phi(g_j) != 0 (the closed form in the module
    docstring), so j is the first such generator; TwistData rejects a
    trivial Phi, so one exists.  `column` forces a specific j and raises
    NoValidColumn when it is out of range or Phi(g_j) = 0.
    """
    rank = T.rank
    d = T.degree
    n = P.ngens
    if column is None:
        j = next(g for g in range(n) if any(T.phi.of_generator(g)))
    elif 0 <= column < n and any(T.phi.of_generator(column)):
        j = column
    else:
        raise NoValidColumn(f"column {column} is not valid")
    # the twisted image of g_j - 1
    g_minus_1 = GroupRingElement({((j, 1),): 1, (): -1})
    corr = laurent_det(twist_ring_map(g_minus_1, T), rank)

    rows = []
    for rel_row in P.jacobian:
        blocks = [twist_ring_map(rel_row[g], T) for g in range(n) if g != j]
        for i in range(d):
            row = []
            for blk in blocks:
                row.extend(blk[i])
            rows.append(row)
    raw = max_minor_gcd(rows, rank, ncols=(n - 1) * d)

    h0 = _h0_order(T)
    corrected = None
    if not raw.is_zero():
        corrected = div_exact(raw * h0, corr)
    value = corrected if corrected is not None else raw
    return TwistedPoly(value=UnitClass(value),
                       raw_minor_gcd=UnitClass(raw),
                       h0_order=UnitClass(h0),
                       h0_correction=UnitClass(corr),
                       deleted_column=j,
                       ring_rank=rank,
                       correction_exact=raw.is_zero() or corrected is not None)


def multivariable_alexander(P):
    """Alexander polynomial over Z[H] with Phi the identity on H = Z^{b_1}."""
    ab = abelianize(P)
    if ab.free_rank < 1:
        raise NoValidColumn("b_1 = 0: no nontrivial class to twist by")
    if ab.free_rank > 3:
        raise UnsupportedRank(f"b_1 = {ab.free_rank} > 3")
    phi = ClassMap.to_abelianization(P, ab)
    return twisted_alexander(P, trivial_twist(P, phi))
