"""Twisted Alexander polynomials.

The pipeline: twist the Fox Jacobian of a presentation through alpha x Phi
(finite permutation representation times an abelian class), delete one
generator column whose twisted image differs invertibly from the identity,
and take the gcd of the maximal minors.  The headline value corrects the
raw minor gcd by the order of the twisted H_0, which matches the
module-order definition on every oracle family; both are exposed.
"""

from dataclasses import dataclass

from .grouppres import (ClassMap, FiniteQuotient, GroupRingElement,
                        Incompatible, abelianize, fox_jacobian, trivial_group)
from .laurent import (LaurentPoly, UnitClass, UnsupportedRank, div_exact,
                      lp_gcd_many)
from .polymat import laurent_det, max_minor_gcd


class NoValidColumn(ValueError):
    """No generator has det(twist(g) - I) != 0."""


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


class MonomialMatrix:
    """d x d matrix with one monomial entry per row and column.

    Column j holds t^exps[j] in row rows[j]; these are exactly the images of
    group elements under the (alpha x Phi)-twist, and they multiply without
    densifying.
    """

    __slots__ = ("size", "rank", "rows", "exps")

    def __init__(self, size, rank, rows, exps):
        self.size = size
        self.rank = rank
        self.rows = tuple(rows)
        self.exps = tuple(tuple(e) for e in exps)
        if sorted(self.rows) != list(range(size)):
            raise ValueError("not a permutation")

    @classmethod
    def identity(cls, size, rank):
        zero = (0,) * rank
        return cls(size, rank, range(size), [zero] * size)

    def __mul__(self, other):
        # (self * other) column j: other sends j -> (other.rows[j], b);
        # self sends that row k -> (self.rows[k], a); exponents add.
        rows = []
        exps = []
        for j in range(self.size):
            k = other.rows[j]
            rows.append(self.rows[k])
            exps.append(tuple(a + b for a, b in zip(self.exps[k], other.exps[j])))
        return MonomialMatrix(self.size, self.rank, rows, exps)

    def inverse(self):
        rows = [0] * self.size
        exps = [None] * self.size
        for j in range(self.size):
            rows[self.rows[j]] = j
            exps[self.rows[j]] = tuple(-e for e in self.exps[j])
        return MonomialMatrix(self.size, self.rank, rows, exps)

    def to_dense(self):
        zero = LaurentPoly.zero(self.rank)
        out = [[zero] * self.size for _ in range(self.size)]
        for j in range(self.size):
            out[self.rows[j]][j] = LaurentPoly.monomial(self.rank, self.exps[j])
        return out


def _generator_matrix(T, g):
    img = T.alpha.images[g]
    perm = T.alpha.regular_perm(img)
    exp = T.phi.of_generator(g)
    d = T.degree
    # column x maps to row img*x with exponent Phi(g)
    return MonomialMatrix(d, T.rank, [perm[x] for x in range(d)], [exp] * d)


def twist_word_matrix(word, T):
    """Image of a free-group word under the twist, as a MonomialMatrix."""
    n = T.phi.presentation.ngens
    out = MonomialMatrix.identity(T.degree, T.rank)
    for g, s in word:
        if not 0 <= g < n:
            raise Incompatible(f"generator index {g} outside presentation")
        m = _generator_matrix(T, g)
        out = out * (m if s > 0 else m.inverse())
    return out


def twist_ring_map(x, T):
    """Dense matrix over the Laurent ring for a word or group-ring element."""
    if isinstance(x, tuple):
        return twist_word_matrix(x, T).to_dense()
    d = T.degree
    zero = LaurentPoly.zero(T.rank)
    out = [[zero] * d for _ in range(d)]
    for w, c in x.terms.items():
        m = twist_word_matrix(w, T)
        for j in range(d):
            i = m.rows[j]
            out[i][j] = out[i][j] + LaurentPoly.monomial(T.rank, m.exps[j], c)
    return out


def _h0_order(T):
    """Order of the twisted H_0: gcd of t^v - 1 over Phi(ker alpha) generators.

    Phi(ker alpha) is generated by the Phi-values of the Schreier generators,
    v = Phi(t_x) + Phi(g_i) - Phi(t_{x g_i}), with the transversal t read off
    the parent edges of alpha's coset table; tree edges give v = 0.
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
    one = LaurentPoly.one(rank)
    return lp_gcd_many((LaurentPoly.monomial(rank, v) - one
                        for v in values if any(v)), rank).representative


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

    Deletes the first generator column j with det(twist(g_j) - I) != 0, takes
    the gcd of the maximal minors of the remaining twisted Jacobian, and
    divides by det(twist(g_j) - I)/ord(H_0); the result is independent of
    the valid column up to units.  `column` forces a specific (valid) j.
    """
    rank = T.rank
    d = T.degree
    n = P.ngens

    def col_det(g):
        # the twisted image of g - 1
        g_minus_1 = GroupRingElement({((g, 1),): 1, (): -1})
        return laurent_det(twist_ring_map(g_minus_1, T), rank)

    if column is None:
        for j in range(n):
            corr = col_det(j)
            if not corr.is_zero():
                break
        else:
            raise NoValidColumn("no generator with det(twist(g) - I) != 0")
    else:
        j = column
        if not 0 <= j < n or (corr := col_det(j)).is_zero():
            raise NoValidColumn(f"column {j} is not valid")

    jac = fox_jacobian(P)
    rows = []
    for rel_row in jac:
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
