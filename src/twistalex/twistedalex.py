"""Twisted Alexander polynomials.

The pipeline: twist the Fox Jacobian of a presentation through alpha x Phi
(the regular action of a finite quotient times an abelian class), delete one
generator column, and take the gcd of the maximal minors.  In the regular
representation alpha(g) permutes G in |G|/ord g cycles of length ord g, so
det(twist(g) - I) = +-(t^(Phi(g) ord g) - 1)^(|G|/ord g), which is nonzero
exactly when Phi(g) != 0: the deleted column is the first generator with
Phi(g) != 0.  The headline value corrects the raw minor gcd by the order of
the twisted H_0, which matches the module-order definition on every oracle
family; both are exposed.  The correction is computed on first read, and a
zero raw gcd needs none: its value is zero whatever the correction.  A
TwistedPoly keeps (q, twister), and the twister computes each factor once
per key: det(twist(g_j) - I) once per (|G|, ord alpha(g_j)), since by the
cycle count above two elements of one order give twists conjugate by a
permutation matrix, and ord(H_0), the gcd of t^v - 1 over the Schreier
values v of the coset table, once per set of those values up to sign.

Each Fox term of a relator is +- one of its prefixes, so one walk along
the relator gives alpha and Phi of every term, and the Jacobian is
assembled as sparse cells, straight from those values, in any integer
representation of G given by its sparse columns.  Over Q the regular
representation splits into rational summands (Maschke), and the minor gcd
splits with it: the trivial summand is one for every G, and for G = Z_n
the split is complete, Q[Z_n] = (+)_{d | n} Q[z]/Phi_d(z), each summand
once.  For rank 1 the summands are read one at a time, trivial first, and
the first of rank below its width makes the gcd 0 before any later one is
read.  Twister(phi) owns a twist, P read from Phi, with what depends on
(P, Phi) alone: the deleted column, Phi on every relator prefix, and each
summand block's Q[t] part and content; twisted_alexander(twister, q)
reads it at the quotient q.  The d-block of a Z_n quotient is the
faithful block of the composite onto Z_d, and the trivial block is the
untwisted Jacobian for every G, so a run over many quotients assembles
each block once, and a rank-deficient untwisted Jacobian makes every
later gcd 0 with no assembly at all.

For G = Z_n the product of the blocks' Q[t] parts is the gcd's Q[t]
part, but their integer contents need not multiply to its content c.
Each block's one max_minor_gcd, with the primes of d left out, gives both
its Q[t] part and its content c_d, exact at every prime not dividing d,
and c is read from the c_d by two rules:

- p not dividing n: v_p(c) is the sum of the v_p(c_d) over d | n.  Over
  Z_(p) the Phi_d are pairwise comaximal, so the regular rows are
  block-diagonal to the d-blocks, and content is additive (Gauss's lemma).
- p dividing n, n = p^a m with p not dividing m: v_p(c) = 0 exactly when
  v_p(c_e) = 0 for every e | m.  Over F = GF(p)(t), F[z]/(z^n - 1) splits
  into the local rings F[z]/(Phi_e^(p^a)), and by Nakayama the rows mod p
  have full rank exactly when every e-block mod p has.

So when every c_d is prime to n, c is their product and no regular row is
built.  Otherwise, and for every G that is not cyclic, the rows in the
regular representation are assembled once every summand has full rank,
and max_minor_gcd reads c from them, with the product of the parts as
the Q[t] part of a cyclic quotient; rank >= 2 assembles them alone.
"""

from functools import cache, cached_property
from math import gcd
from operator import attrgetter

from .grouppres import (BoundExceeded, ClassMap, Incompatible, fox_jacobian,
                        trivial_quotient, _check_same)
from .laurent import (LaurentPoly, UnitClass, UnsupportedRank, div_exact,
                      lp_gcd_many, normalize_unit, _arr_to_poly, _cyclotomic,
                      _mul, _prim, _scale)
from .polymat import laurent_det, laurent_minor_gcd, max_minor_gcd


class NoValidColumn(ValueError):
    """b_1 = 0: no nontrivial class to twist by, so no column to delete."""


# Bound on |G| times the Phi-length of the presentation (ClassMap.length: the
# sum of |Phi(g)| over the generators and over every relator letter).  Up to
# a factor of two that product bounds the degree of each Laurent polynomial
# of the twist: the Jacobian minors, det(twist(g_j) - I) and the H_0
# generators t^v - 1.  The arithmetic on them is quadratic in the degree, so
# a twist near the bound is already slow; one far past it would not fit in
# memory.
MAX_TWIST_DEGREE = 10**6


def twist_ring_map(terms, q, phi):
    """Dense matrix over the Laurent ring for a term map {word: coefficient}.

    The twist of a word w is left multiplication by q(w) on the regular
    representation, times t^Phi(w): column y holds t^Phi(w) in row q(w) y.
    """
    n, rank = phi.presentation.ngens, phi.target_rank
    G = q.group
    zero = LaurentPoly.zero(rank)
    out = [[zero] * G.order for _ in range(G.order)]
    for w, c in terms.items():
        for g, _ in w:
            if not 0 <= g < n:
                raise Incompatible(f"generator index {g} outside presentation")
        a = q.of_word(w)
        mono = LaurentPoly.monomial(rank, phi.of_word(w), c)
        for y in range(G.order):
            i = G.mul(a, y)
            out[i][y] = out[i][y] + mono
    return out


# ---- sparse assembly ------------------------------------------------------
#
# A representation of G of dimension m is given by its sparse columns:
# rep[a][y] lists the (i, v) with v != 0 in column y of the integer matrix
# of a.

def _regular_rep(G):
    """Column y of a is the basis vector a*y."""
    return [[((i, 1),) for i in row] for row in G.table]


@cache
def _residues(d):
    """z^k mod Phi_d as sparse columns, for k = 0, ..., d - 1."""
    phi = _cyclotomic(d)
    m = len(phi) - 1
    out, p = [], [1] + [0] * (m - 1)
    for _ in range(d):
        out.append(tuple((i, v) for i, v in enumerate(p) if v))
        lead = p[-1]
        p = [0] + p[:-1]
        if lead:
            p = [x - lead * f for x, f in zip(p, phi)]
    return out


def _cyclotomic_rep(n, d):
    """Z_n on Q[z]/Phi_d, d | n, basis 1, z, ..., z^(phi(d) - 1): a acts by
    z^a, so column y of a holds z^((a + y) mod d) mod Phi_d; d = 1 is the
    trivial representation."""
    res = _residues(d)
    return [[res[(a + y) % d] for y in range(len(_cyclotomic(d)) - 1)]
            for a in range(n)]


def _summand_divisors(G):
    """The rational summands of the regular representation of G to split the
    minor gcd through, as the d of Q[z]/Phi_d: every divisor of n when the
    table is addition mod n (a complete split), else d = 1 alone, the
    trivial summand, which _cyclotomic_rep(n, 1) gives for any G of order
    n."""
    n = G.order
    if G.is_addition_mod_n:
        return [d for d in range(1, n + 1) if n % d == 0]
    return [1]


@cache
def _units(d):
    """The units mod d; [1] for d = 1."""
    return [u for u in range(1, d + 1) if gcd(u, d) == 1]


def _block_key(images, d):
    """The cache key of the d-block of a Z_n quotient with these images:
    (d, the least of u * images mod d over the units u mod d).

    The d-block depends on the images mod d alone, and z -> z^u is a ring
    automorphism of Z[z]/Phi_d for every unit u: it maps the block of the
    images to the block of u times them, by one unimodular integer change
    of basis on each column and row group, which keeps the ideal of
    maximal minors over Z[t].  So the Q[t] part and the content, both
    read from that ideal, are the same for each key of one Galois orbit.
    """
    return d, min(tuple(u * x % d for x in images) for u in _units(d))


def _block_parts(rows, width, d):
    """(Q[t] part, content) of a d-block, read from its one max_minor_gcd
    with the primes dividing d left out: ([], 0) at rank below its width,
    else the gcd's primitive part, its power of t removed, and its integer
    content, exact at every prime not dividing d."""
    found = max_minor_gcd(rows, width, skip=d)
    if not found:
        return [], 0
    low = next(i for i, c in enumerate(found) if c)
    return _prim(found[low:]), gcd(*found)


def _twisted_rows(terms, rep, nrels, nblocks, rank):
    """The twisted Jacobian of `terms` in the representation `rep`.

    The term c*w of Jacobian entry (r, b) adds c*v*t^Phi(w) to cell
    (r*m + i, b*m + y) for each (i, v) in rep[alpha(w)][y].  Rank 1 gives
    Z[t] arrays, each row shifted as laurent._pack shifts it; a higher rank
    gives LaurentPoly entries.
    """
    m = len(rep[0])
    acc = {}    # (row, column, Phi(w)) -> coefficient
    for r, b, a, e, c in terms:
        rm = r * m
        for y, col in enumerate(rep[a], b * m):
            for i, v in col:
                key = (rm + i, y, e)
                acc[key] = acc.get(key, 0) + c * v
    nrows, ncols = nrels * m, nblocks * m
    if rank > 1:
        cells = {}
        for (i, y, e), c in acc.items():
            cells.setdefault((i, y), {})[e] = c
        zero = LaurentPoly.zero(rank)
        rows = [[zero] * ncols for _ in range(nrows)]
        for (i, y), cell in cells.items():
            rows[i][y] = LaurentPoly(rank, cell)
        return rows
    lo = [0] * nrows
    for (i, _, (e,)), c in acc.items():
        if c and e < lo[i]:
            lo[i] = e
    # zero cells share one empty array, which is never written: a cell's
    # array is replaced when it grows
    rows = [[[]] * ncols for _ in range(nrows)]
    for (i, y, (e,)), c in acc.items():
        if c:
            arr, k = rows[i][y], e - lo[i]
            if len(arr) <= k:
                arr = rows[i][y] = arr + [0] * (k + 1 - len(arr))
            arr[k] = c
    return rows


def _schreier_values(q, phi):
    """The Phi-values of the Schreier generators of ker q, which generate
    Phi(ker alpha): the nonzero ones, each once up to sign, as a frozenset.

    v = Phi(t_x) + Phi(g_i) - Phi(t_{x g_i}), with the transversal t read
    off the parent edges of q's coset table; tree edges give v = 0.
    """
    G, rank = q.group, phi.target_rank
    trans = [None] * G.order
    trans[0] = (0,) * rank
    for y in q.order[1:]:
        x, i, s = q.parent[y]
        trans[y] = tuple(a + s * b for a, b in zip(trans[x], phi.of_generator(i)))
    values = (tuple(a + b - c for a, b, c in
                    zip(trans[x], phi.of_generator(i), trans[G.mul(x, img)]))
              for x in q.order for i, img in enumerate(q.images))
    return frozenset(v if next(a for a in v if a) > 0 else tuple(-a for a in v)
                     for v in values if any(v))


def _h0_order(values, rank):
    """Order of the twisted H_0: gcd of t^v - 1 over the Schreier values
    (_schreier_values).  t^v - 1 and t^-v - 1 are associates, so the sign
    of each v does not matter."""
    one = LaurentPoly.one(rank)
    return lp_gcd_many((LaurentPoly.monomial(rank, v) - one for v in values),
                       rank).representative


class TwistedPoly:
    """A twisted Alexander polynomial of (P, alpha = q, Phi) with its
    computation metadata.  It keeps q and the twister of (P, Phi): the
    correction and what depends on it are read from the twister's caches
    on first read; `==` compares the six public fields."""

    def __init__(self, raw_minor_gcd, q, twister):
        self.raw_minor_gcd = raw_minor_gcd
        self.deleted_column = twister.column
        self._q, self._twister = q, twister

    @cached_property
    def h0_order(self):
        return self._twister.h0_order(self._q)

    @cached_property
    def h0_correction(self):
        return self._twister.correction(self._q)

    @cached_property
    def _quotient(self):
        """raw * ord(H_0) / det(twist(g_j) - I), None when inexact; a zero
        raw gcd is its own quotient and reads neither factor."""
        raw = self.raw_minor_gcd.representative
        if raw.is_zero():
            return raw
        corr = self.h0_correction.representative  # its refusal comes first
        return div_exact(raw * self.h0_order.representative, corr)

    @cached_property
    def value(self):
        q = self._quotient
        return self.raw_minor_gcd if q is None else UnitClass(q)

    @cached_property
    def correction_exact(self):
        return self._quotient is not None

    def __eq__(self, other):
        return (isinstance(other, TwistedPoly)
                and _fields(self) == _fields(other))

    def __str__(self):
        return str(self.value)


_fields = attrgetter("value", "raw_minor_gcd", "h0_order", "h0_correction",
                     "deleted_column", "correction_exact")


class Twister:
    """What the twisted polynomials of one (P, Phi) share across quotients.

    Built once for a run over many quotients from a nontrivial Phi on P, it
    holds the deleted column j (the first generator with Phi(g) != 0), the
    Fox terms of the Jacobian without column j with their Phi-values, the
    Q[t] part and integer content of every rational summand block met
    so far, and the two factors of the H_0 correction met so far.  Phi is
    walked along each relator once per owner, and nothing outlives it.

    The block cache is exact.  The summand Q[z]/Phi_d of Z_n, d | n, is
    assembled from alpha(r[:i]) mod d and Phi(r[:i]) alone, since z^d = 1
    there: it is the same rows as the faithful summand of the composite of
    alpha with Z_n -> Z_d, and its part and content are those of every
    block in its Galois orbit (_block_key), so its key is (d, the least of
    u * alpha's images mod d over the units u).  The trivial summand of
    every G has the key (1, (0, ..., 0)): it is the untwisted Jacobian,
    which the regular representation contains (Maschke), so once its
    Q[t] part is [] (rank below its width) every later quotient reads
    a zero gcd from the cache and assembles nothing.  Alpha is walked
    along the relators, and the regular rows of a quotient are built, only
    on a miss, or when max_minor_gcd needs the integer content: G is not
    cyclic, or a block's content shares a prime with |G|.

    The two correction caches are exact too.  det(twist(g_j) - I) is keyed
    by (|G|, ord alpha(g_j)): the twist of g_j is t^Phi(g_j) times the
    permutation matrix of left multiplication by alpha(g_j), which splits
    G into |G|/ord cycles of length ord, so two elements of one order, in
    one group or in two of one order, give permutation matrices conjugate
    by a permutation matrix, and equal determinants.  ord(H_0) is keyed by
    the set of Schreier values up to sign, the only input of _h0_order.
    """

    def __init__(self, phi):
        if phi.is_trivial():
            raise ValueError("Phi must be nontrivial")
        self.presentation, self.phi = phi.presentation, phi
        self.column = next(g for g, img in enumerate(phi.images) if any(img))
        self._parts = {}    # _block_key -> _block_parts of its block
        self._dets = {}     # (|G|, ord alpha(g_j)) -> det(twist(g_j) - I)
        self._h0 = {}       # Schreier values up to sign -> ord(H_0)

    @cached_property
    def _fox_terms(self):
        """(relator, block, i, Phi(r[:i]), s) for every Fox term s * r[:i] of
        the Jacobian, numbering the generator blocks without column j: Phi
        is summed along each relator once."""
        P, phi = self.presentation, self.phi
        zero = (0,) * phi.target_rank
        walks = []      # per relator, Phi(r[:i]) for i = 0, ..., len(r)
        for rel in P.relators:
            e = zero
            walk = [e]
            for g, s in rel:
                e = tuple(a + s * b for a, b in zip(e, phi.of_generator(g)))
                walk.append(e)
            walks.append(walk)
        j = self.column
        return [(r, g - (g > j), i, walks[r][i], s)
                for r, g, i, s in fox_jacobian(P) if g != j]

    def correction(self, q):
        """det(twist(g_j) - I) at q, computed once per key
        (|G|, ord alpha(g_j))."""
        G, rank = q.group, self.phi.target_rank
        key = G.order, G.element_order(q.images[self.column])
        if key not in self._dets:
            g_minus_1 = {((self.column, 1),): 1, (): -1}
            self._dets[key] = UnitClass(laurent_det(
                twist_ring_map(g_minus_1, q, self.phi), rank))
        return self._dets[key]

    def h0_order(self, q):
        """ord(H_0) at q, computed once per set of Schreier values."""
        values = _schreier_values(q, self.phi)
        if values not in self._h0:
            self._h0[values] = UnitClass(_h0_order(values,
                                                   self.phi.target_rank))
        return self._h0[values]

    def raw_minor_gcd(self, q):
        """The normalized gcd of the maximal minors of the twisted Jacobian
        of q x Phi, column j deleted."""
        P, rank, G = self.presentation, self.phi.target_rank, q.group
        nrels, nblocks = len(P.relators), P.ngens - 1
        k = nblocks * G.order
        terms = []      # (relator, block, alpha(r[:i]), Phi(r[:i]), s)

        def rows(rep):
            if not terms:   # alpha is walked along each relator on first use
                walks = [q.prefixes(rel) for rel in P.relators]
                terms.extend((r, b, walks[r][i], e, s)
                             for r, b, i, e, s in self._fox_terms)
            return _twisted_rows(terms, rep, nrels, nblocks, rank)

        if rank > 1:
            return laurent_minor_gcd(rows(_regular_rep(G)), rank, ncols=k)

        qpart, content = [1], 1
        for d in _summand_divisors(G):
            key = _block_key(q.images, d)
            if key not in self._parts:
                width = nblocks * (len(_cyclotomic(d)) - 1)
                self._parts[key] = _block_parts(
                    rows(_cyclotomic_rep(G.order, d)), width, d)
            part, c = self._parts[key]
            if not part:    # rank below its width: no later block is read
                return LaurentPoly.zero(rank)
            qpart, content = _mul(qpart, part), content * c
        if not G.is_addition_mod_n:
            found = max_minor_gcd(rows(_regular_rep(G)), k)
        elif gcd(content, G.order) == 1:
            # the two rules of the module docstring
            found = _scale(qpart, content)
        else:
            found = max_minor_gcd(rows(_regular_rep(G)), k, qpart)
        return normalize_unit(_arr_to_poly(found))


def twisted_alexander(twister, q):
    """The twisted Alexander polynomial of (P, alpha = q, Phi), P and Phi
    the twister's; a run over many quotients passes one twister to each.

    Refuses |G| times the Phi-length past MAX_TWIST_DEGREE, deletes
    generator column j, takes the gcd of the maximal minors of the
    remaining twisted Jacobian, and divides by det(twist(g_j) - I)/ord(H_0);
    the result is independent of the column up to units.  The correction is
    computed on first read, and a zero raw gcd, whose value is zero, needs
    none.  The column is valid exactly when Phi(g_j) != 0 (the closed form
    in the module docstring), so j is the first such generator.
    """
    phi = twister.phi
    _check_same(q.presentation, twister.presentation,
                "Phi and alpha live on different presentations")
    degree = q.group.order * phi.length
    if degree > MAX_TWIST_DEGREE:
        raise BoundExceeded(f"twist degree {degree} exceeds the bound "
                            f"of {MAX_TWIST_DEGREE}")
    return TwistedPoly(UnitClass(twister.raw_minor_gcd(q)), q, twister)


def multivariable_alexander(P):
    """Alexander polynomial over Z[H] with Phi the identity on H = Z^{b_1}."""
    ab = P.abelianization
    if ab.free_rank < 1:
        raise NoValidColumn("b_1 = 0: no nontrivial class to twist by")
    if ab.free_rank > 3:
        raise UnsupportedRank(f"b_1 = {ab.free_rank} > 3")
    return twisted_alexander(Twister(ClassMap(P, ab.gen_images)),
                             trivial_quotient(P))
