"""Independent oracles used by the test suite.

Everything here is deliberately naive: cofactor-expansion determinants,
gcds of enumerated minors, fraction-free rank over Q, Seifert-matrix and
mapping-torus formulas.  None of it shares code paths with the library's
minor-gcd engine or Smith normal form, except `two_snf_weights`, which
calls the Smith form on a matrix of its own.  `dense_smith_normal_form` is
the library's elimination as it stood on dense rows, kept to check that the
sparse one logs the same operations; `per_index_even_embedding` is the
cliffm1 map as it stood, one blade product per index, kept to check the
images that the library builds once; `laurent_step` is the Bareiss step
on LaurentPoly entries that the library ran before it packed its rows into
Z[t], and `laurent_bareiss_det` runs it, kept to check the packed
determinant; `term_div_exact` is the term-by-term Laurent division the
library ran before it packed its operands, kept to check the packed one;
`twisted_jacobian` is the library's assembly of the regular rows and every
summand block at once, as it ran before it assembled the summands one at a
time and shared them between quotients, kept to check the lazy minor gcd
and the block cache against the full-matrix one; `eager_twisted_alexander`
is `twisted_alexander` as it ran before its H_0 correction waited to be
read, kept to check the lazy fields, and with the forced `column` the
library has dropped, kept to check that every valid column gives the
library's value;
`recursive_gcd` is the rank >= 2 gcd as the library layered it before one
recursion did the content split and the primitive PRS itself, kept to check
the single recursion.  `GroupRingElement` is the integer group ring of the
free group that the library's Fox derivatives returned before they became
plain term maps, kept to state the Fox identities; `fox_derivative` is the
term map {freely reduced prefix: coefficient} the library built for every
Jacobian entry before it read the terms off one walk per relator, kept to
check the walk (through `jacobian_terms`) and to state the Fox identities;
`pullback_class` is Phi restricted to a Reidemeister-Schreier cover, as a
validated class on the cover's generators, with its divisibility, which
the library read `div` from before it took the gcd of the Schreier
generators' Phi-values itself, kept to check that gcd and to twist the
cover in the Shapiro checks; `eager_cover_presentation` is the cover's
relator rewrite as the library ran it before it kept only the Schreier
generator words, kept to twist the cover in those checks and to check the
cover's homology; `schreier_generator_words` is `reidemeister_schreier`'s
word list as the library built it before it concatenated the words
unreduced, each product free-reduced by `word_mul`, kept to check the
concatenation.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from twistalex.clifford import CliffordElement
from twistalex.exactalg import IntMatrix, smith_normal_form
from twistalex.grouppres import (ClassMap, Presentation, free_reduce,
                                 word_inverse, word_mul, _check_same)
from twistalex.laurent import (LaurentPoly, RankMismatch, UnitClass, div_exact,
                               lp_gcd, lp_gcd_many, normalize_unit,
                               _arr_to_poly, _mul, _prim)
from twistalex.polymat import (laurent_det, laurent_minor_gcd, max_minor_gcd,
                               _hermite_qpart)
from twistalex.twistedalex import (twist_ring_map, _h0_order,
                                   _schreier_values, _cyclotomic_rep,
                                   _regular_rep, _summand_divisors,
                                   _twisted_rows)


# ---- polynomial determinants by cofactor expansion ----

def cofactor_det(M, rank):
    n = len(M)
    if n == 0:
        return LaurentPoly.one(rank)
    if n == 1:
        return M[0][0]
    total = LaurentPoly.zero(rank)
    for j in range(n):
        if M[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        term = M[0][j] * cofactor_det(minor, rank)
        total = total + term if j % 2 == 0 else total - term
    return total


def brute_minor_gcd(M, rank):
    """Gcd of all maximal minors via cofactor expansion."""
    if not M:
        return UnitClass(LaurentPoly.zero(rank))
    k = len(M[0])
    if len(M) < k:
        return UnitClass(LaurentPoly.zero(rank))
    acc = LaurentPoly.zero(rank)
    for rows in combinations(range(len(M)), k):
        d = cofactor_det([M[i] for i in rows], rank)
        acc = lp_gcd(acc, d).representative
    return UnitClass(acc)


# ---- the pseudo-remainder row operation, dense ----

def dense_pseudo_reduce(row, base, c):
    """Reduce row[c] below the degree of base[c], building a new row.

    The same steps as the library's row operation: scale the whole row by
    lb // gcd(lead, lb), then subtract q t^k base over every column.  Rows
    are lists of Z[t] arrays, lowest degree first, [] for zero.
    """
    def minus(e, f, q, k):
        n = max(len(e), k + len(f))
        out = [(e[i] if i < len(e) else 0)
               - (q * f[i - k] if 0 <= i - k < len(f) else 0)
               for i in range(n)]
        while out and out[-1] == 0:
            out.pop()
        return out

    b = base[c]
    lb = b[-1]
    while row[c] and len(row[c]) >= len(b):
        s = lb // gcd(row[c][-1], lb)
        row = [[s * x for x in e] for e in row]
        q, k = row[c][-1] // lb, len(row[c]) - len(b)
        row = [minus(e, f, q, k) for e, f in zip(row, base)]
    return row


# ---- fraction-free elimination, eager ----

def eager_bareiss(a, k, zero, one, step):
    """Bareiss elimination that updates every row below the pivot at every
    step, with the contract of the library's lazy one: (pivot row indices
    in pivot order, whether the swaps were odd, last pivot), or None if the
    rank is < k.  Works in place on `a`.
    """
    idx, odd, prev = list(range(len(a))), False, one
    for c in range(k):
        piv = next((i for i in range(c, len(a)) if a[i][c] != zero), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        idx[c], idx[piv] = idx[piv], idx[c]
        odd ^= piv != c
        p, tail = a[c][c], a[c][c + 1:]
        for r in a[c + 1:]:
            r[c + 1:] = step(p, r[c], r[c + 1:], tail, prev)
        prev = p
    return idx[:k], odd, prev


def term_div_exact(f, g):
    """f / g in the Laurent ring, or None: long division on LaurentPoly
    terms, leading term first, inside the box of the possible quotient."""
    if f.rank != g.rank:
        raise RankMismatch("division across rings")
    if g.is_zero():
        return None
    if f.is_zero():
        return LaurentPoly.zero(f.rank)
    lo = tuple(f.min_exp(i) - g.min_exp(i) for i in range(f.rank))
    hi = tuple(f.max_exp(i) - g.max_exp(i) for i in range(f.rank))
    if any(a > b for a, b in zip(lo, hi)):
        return None
    ge, gc = g.leading()
    r = f
    q = {}
    while not r.is_zero():
        re, rc = r.leading()
        if rc % gc:
            return None
        e = tuple(a - b for a, b in zip(re, ge))
        if any(x < a or x > b for x, a, b in zip(e, lo, hi)):
            return None
        c = rc // gc
        q[e] = c
        r = r - g.shift(e) * c
    return LaurentPoly(f.rank, q)


def laurent_step(p, f, xs, ys, prev):
    """The Bareiss step on LaurentPoly entries, one term_div_exact per
    entry."""
    out = [term_div_exact(x * p - f * y, prev) for x, y in zip(xs, ys)]
    if None in out:
        raise AssertionError("Bareiss division failed")
    return out


def laurent_bareiss_det(M, rank):
    """Determinant by Bareiss elimination on the LaurentPoly entries
    themselves, with no packing."""
    zero = LaurentPoly.zero(rank)
    found = eager_bareiss([list(r) for r in M], len(M), zero,
                          LaurentPoly.one(rank), laurent_step)
    if found is None:
        return zero
    _, odd, d = found
    return -d if odd else d


# ---- the layered multivariable gcd ----

def _split_last(p):
    """View rank-r p as a polynomial in t_r with rank-(r-1) coefficients."""
    out = {}
    for e, c in p.terms.items():
        d = e[-1]
        out.setdefault(d, {})[e[:-1]] = c
    return {d: LaurentPoly(p.rank - 1, terms) for d, terms in out.items()}


def _join_last(rank, parts):
    terms = {}
    for d, coef in parts.items():
        for e, c in coef.terms.items():
            terms[e + (d,)] = c
    return LaurentPoly(rank, terms)


def _content_split(parts, rank):
    """Gcd of a map's rank-`rank` coefficients, and the map divided by it."""
    cont = lp_gcd_many(parts.values(), rank).representative
    return cont, {d: div_exact(c, cont) for d, c in parts.items()}


def recursive_gcd(a, b):
    """A gcd of a and b in Z[t1^{+-1},...], not normalized: rank 1 and a
    zero operand go to lp_gcd; rank >= 2 is the gcd of the contents times
    the gcd of the primitive parts, recursing on the last variable."""
    if a.rank == 1 or a.is_zero() or b.is_zero():
        return lp_gcd(a, b).representative
    cont_a, ppa = _content_split(_split_last(a), a.rank - 1)
    cont_b, ppb = _content_split(_split_last(b), a.rank - 1)
    pp = _pp_gcd_last(a.rank, ppa, ppb)
    return _join_last(a.rank, {0: recursive_gcd(cont_a, cont_b)}) * pp


def _pp_gcd_last(rank, fa, fb):
    """Gcd of primitive (in t_last) polynomials via a primitive PRS."""
    def normalize(parts):
        lo = min(parts)
        return {d - lo: c for d, c in parts.items()}

    a, b = normalize(fa), normalize(fb)
    while b:
        if max(a, default=0) < max(b, default=0):
            a, b = b, a
            continue
        # pseudo-remainder of a by b in the last variable: r[top] * lb / lb
        db = max(b)
        lb = b[db]
        r = dict(a)
        while r and max(r) >= db:
            top = max(r)
            q = r[top]
            r = {d: c * lb for d, c in r.items()}
            for d, c in b.items():
                sd = top - db + d
                new = r.get(sd, LaurentPoly.zero(rank - 1)) - q * c
                if new.is_zero():
                    r.pop(sd, None)
                else:
                    r[sd] = new
        a, b = b, _content_split(normalize(r), rank - 1)[1] if r else {}
    return _join_last(rank, _content_split(a, rank - 1)[1])


# ---- classical Alexander polynomial formulas ----

def seifert_alexander(V):
    """det(V - t V^T) for a 2x2 Seifert matrix, as a UnitClass."""
    t = LaurentPoly.var(1)
    one = LaurentPoly.one(1)

    def entry(i, j):
        return one * V[i][j] - t * V[j][i]

    d = entry(0, 0) * entry(1, 1) - entry(0, 1) * entry(1, 0)
    return UnitClass(d)


def mapping_torus_alexander(A):
    """det(t A - I) for the monodromy matrix A on H_1 of the fibre."""
    t = LaurentPoly.var(1)
    one = LaurentPoly.one(1)
    e = [[t * A[i][j] - (one if i == j else LaurentPoly.zero(1))
          for j in range(len(A))] for i in range(len(A))]
    return UnitClass(cofactor_det(e, 1))


# ---- integer matrix rank and torsion, independent of the SNF code ----

def rational_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def int_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        s = 1 if j % 2 == 0 else -1
        total += s * rows[0][j] * int_det(minor)
    return total


def minor_gcds(rows):
    """gcd of all k x k minors for k = 1..rank, via enumeration."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, int_det(sub))
        out.append(g)
    return out


def brute_homology(cells_k, d_k_rows, d_k1_rows):
    """(free_rank, torsion) of ker d_k / im d_{k+1} by minor enumeration."""
    rank_k = rational_rank(d_k_rows) if d_k_rows else 0
    rank_k1 = rational_rank(d_k1_rows) if d_k1_rows else 0
    free = cells_k - rank_k - rank_k1
    torsion = []
    if d_k1_rows:
        ds = minor_gcds(d_k1_rows)
        prev = 1
        for i in range(rank_k1):
            d = ds[i] // prev
            if d > 1:
                torsion.append(d)
            prev = ds[i]
    return free, tuple(torsion)



# ---- the dense Smith normal form ----

def dense_min_abs_pivot(a, t, m):
    """The first entry of least absolute value in a[t:][t:], row-major, as
    (i, j, value); None if that block is zero."""
    best = None
    for i in range(t, m):
        tail = a[i][t:]
        if not any(tail):
            continue
        units = [tail.index(u) for u in (1, -1) if u in tail]
        if units:
            j = min(units)
            return i, t + j, tail[j]
        for j, v in enumerate(tail, start=t):
            if v and (best is None or abs(v) < abs(best[2])):
                best = (i, j, v)
    return best


def dense_smith_normal_form(rows, ncols):
    """(diagonal of D, row operations, column operations) of the Smith form
    of a list-of-lists matrix, eliminating on dense rows.

    The elimination the library ran before it stored rows sparsely: the
    same pivot rule, the same operations in the same order, logged as
    (i, j, 0) for a swap, (i, i, -1) for a negation and (i, j, c) for
    adding c times row (column) j to row (column) i.
    """
    a = [list(r) for r in rows]
    m, n = len(a), ncols
    row_ops, col_ops = [], []

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        row_ops.append((i, j, 0))

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        col_ops.append((i, j, 0))

    def add_row(dst, src, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        row_ops.append((dst, src, c))

    def add_col(dst, src, c):
        for row in a:
            if row[src]:
                row[dst] += c * row[src]
        col_ops.append((dst, src, c))

    t = 0
    while t < min(m, n):
        piv = dense_min_abs_pivot(a, t, m)
        if piv is None:
            break
        pi, pj, _ = piv
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        while True:
            moved = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(i, t, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        moved = True
            if moved:
                continue
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        moved = True
            if moved:
                continue
            if a[t][t] in (1, -1):
                break
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            row_ops.append((t, t, -1))
        t += 1

    return [a[i][i] for i in range(min(m, n))], row_ops, col_ops

# ---- class coordinates in H_1 by a second Smith form ----

def two_snf_weights(phi, ab):
    """w with w . q(g) = Phi(g) for every generator, for a rank-1 class phi
    and its presentation's abelianization ab, by a second Smith form.

    Q holds the coordinates q(g) of the generators as columns; its Smith
    form U Q V = [I 0] gives Q = U^-1 [I 0] V^-1, so w = (Phi . V)[:b1] . U
    and (Phi . V)[b1:] = 0.
    """
    n, b1 = phi.presentation.ngens, ab.free_rank
    phi_row = [img[0] for img in phi.images]
    if b1 == 0:
        assert not any(phi_row)
        return ()
    snf = smith_normal_form(IntMatrix.from_rows(
        [[ab.gen_images[j][i] for j in range(n)] for i in range(b1)]))
    assert snf.elementary_divisors() == [1] * b1, "q is not surjective"
    phi_v = [sum(phi_row[k] * snf.V[k, j] for k in range(n))
             for j in range(n)]
    assert not any(phi_v[b1:]), "Phi is not defined on H"
    return tuple(sum(phi_v[i] * snf.U[i, j] for i in range(b1))
                 for j in range(b1))


# ---- epimorphisms by direct search ----

def _closure(one, gens, mul, inv):
    """The subgroup generated by gens, by closure under products."""
    seen = {one}
    frontier = [one]
    while frontier:
        x = frontier.pop()
        for e in gens:
            for y in (mul(x, e), mul(x, inv(e))):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return seen


def _same_kernel(G, a, b):
    """Whether the epimorphisms with images a and b have one kernel.

    The pairs (a_i, b_i) generate the image of pi in G x G.  Its first
    projection is onto, so it is the graph of a map G -> G, that is
    ker a <= ker b (and the indices agree), exactly when no element of G
    meets two partners.
    """
    partner = {0: 0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for e, f in zip(a, b):
            y, z = G.mul(x, e), G.mul(partner[x], f)
            if y not in partner:
                partner[y] = z
                frontier.append(y)
            elif partner[y] != z:
                return False
    return True


def brute_epimorphisms(P, G):
    """Image tuples of all surjections pi_1(P) -> G, in itertools.product
    order."""
    def ev(word, images):
        x = 0
        for g, s in word:
            y = images[g] if s > 0 else G.inv(images[g])
            x = G.mul(x, y)
        return x

    return [images
            for images in product(range(G.order), repeat=P.ngens)
            if all(ev(r, images) == 0 for r in P.relators)
            and len(_closure(0, images, G.mul, G.inv)) == G.order]


def first_of_each_kernel(G, epis):
    """The image tuples in epis whose kernel no earlier one has."""
    out = []
    for images in epis:
        if not any(_same_kernel(G, kept, images) for kept in out):
            out.append(images)
    return out


# ---- the group ring of the free group and the cover's class ----

class GroupRingElement:
    """Integer combination of freely reduced words in the free group."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for w, c in (terms or {}).items():
            w = free_reduce(w)
            c = int(c)
            if c:
                clean[w] = clean.get(w, 0) + c
                if not clean[w]:
                    del clean[w]
        self.terms = clean

    @classmethod
    def from_word(cls, w, c=1):
        return cls({tuple(w): c})

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): 1})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElement(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - c
        return GroupRingElement(out)

    def __neg__(self):
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = word_mul(w1, w2)
                out[w] = out.get(w, 0) + c1 * c2
        return GroupRingElement(out)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"GroupRingElement({self.terms!r})"


def fox_derivative(word, gen):
    """d(word)/d(gen) by the product rule d(uv) = du + u dv, as a map from
    each freely reduced prefix to its nonzero integer coefficient."""
    terms = {}
    for i, (g, s) in enumerate(word):
        if g == gen:
            w = free_reduce(word[:i] if s == 1 else word[:i + 1])
            terms[w] = terms.get(w, 0) + s
    return {w: c for w, c in terms.items() if c}


def pullback_class(Phi, q, words):
    """Phi restricted to ker(alpha = q), on its Schreier generator words
    (reidemeister_schreier), as a class on eager_cover_presentation, plus
    div.

    div is the gcd of all coordinate values of the pulled-back class.
    """
    images = [Phi.of_word(w) for w in words]
    phi_a = ClassMap(eager_cover_presentation(Phi.presentation, q), images)
    return phi_a, gcd(*(x for img in images for x in img))


def schreier_generator_words(q):
    """The nonempty words t_x g_i t_{x g_i}^-1 over the edges (x, i) of q's
    coset table, in table order, each free-reduced by word_mul."""
    G = q.group
    trans = {0: ()}
    for y in q.order[1:]:
        x, i, s = q.parent[y]
        trans[y] = word_mul(trans[x], ((i, s),))
    words = (word_mul(trans[x], ((i, 1),), word_inverse(trans[G.mul(x, img)]))
             for x in q.order for i, img in enumerate(q.images))
    return tuple(w for w in words if w)


def eager_cover_presentation(P, q):
    """The Reidemeister-Schreier presentation of ker(q), built in one go:
    the Schreier generators from the transversal of q's parent edges, each
    relator rewritten from every coset."""
    G = q.group
    trans = {0: ()}
    for y in q.order[1:]:
        x, i, s = q.parent[y]
        trans[y] = word_mul(trans[x], ((i, s),))
    gen_id, gen_names = {}, []
    for x in q.order:
        for i in range(P.ngens):
            y = G.mul(x, q.images[i])
            if word_mul(trans[x], ((i, 1),), word_inverse(trans[y])):
                gen_id[(x, i)] = len(gen_names)
                gen_names.append(f"{P.generators[i]}_{q.position[x]}")

    def rewrite(x, word):
        out = []
        cur = x
        for i, s in word:
            if s == 1:
                if (cur, i) in gen_id:
                    out.append((gen_id[(cur, i)], 1))
                cur = G.mul(cur, q.images[i])
            else:
                nxt = G.mul(cur, G.inv(q.images[i]))
                if (nxt, i) in gen_id:
                    out.append((gen_id[(nxt, i)], -1))
                cur = nxt
        return free_reduce(tuple(out))

    relators = [w for x in q.order for r in P.relators
                if (w := rewrite(x, r))]
    return Presentation(gen_names, relators)


# ---- twisted matrices as products of one matrix per letter ----

def twist_by_letters(terms, q, phi):
    """Dense twist of a term map {word: coefficient} under alpha x Phi,
    alpha the quotient q.

    Each letter g^s is the d x d matrix sending basis vector y to
    t^(s Phi(g)) times basis vector alpha(g)^s y, built from the group table
    and Phi on generators alone; a word is the product of its letters'
    matrices, multiplied densely.  Entries are {exponents: coefficient}
    dicts until the result is converted to LaurentPoly.
    """
    G, rank = q.group, phi.target_rank
    d = G.order

    def letter(g, s):
        img = q.images[g] if s > 0 else G.inv(q.images[g])
        exps = tuple(s * e for e in phi.of_generator(g))
        m = [[{} for _ in range(d)] for _ in range(d)]
        for y in range(d):
            m[G.mul(img, y)][y] = {exps: 1}
        return m

    def matmul(A, B):
        out = [[{} for _ in range(d)] for _ in range(d)]
        for i, row in enumerate(A):
            for k, a in enumerate(row):
                if not a:
                    continue
                for j, b in enumerate(B[k]):
                    for e1, c1 in a.items():
                        for e2, c2 in b.items():
                            e = tuple(u + v for u, v in zip(e1, e2))
                            out[i][j][e] = out[i][j].get(e, 0) + c1 * c2
        return out

    total = [[{} for _ in range(d)] for _ in range(d)]
    for w, c in terms.items():
        m = [[{(0,) * rank: 1} if i == j else {} for j in range(d)]
             for i in range(d)]
        for g, s in w:
            m = matmul(m, letter(g, s))
        for i in range(d):
            for j in range(d):
                for e, v in m[i][j].items():
                    total[i][j][e] = total[i][j].get(e, 0) + c * v
    return [[LaurentPoly(rank, entry) for entry in row] for row in total]


# ---- the eager twisted Jacobian ----

def jacobian_terms(phi, q, j):
    """(relator, block, alpha(w), Phi(w), c) for every term c*w of
    fox_derivative(relator, g) over the relators of Phi's presentation,
    numbering the generator blocks g without the deleted column j: the
    prefix words built, and alpha = q and Phi evaluated afresh on every
    word."""
    P = phi.presentation
    blocks = [g for g in range(P.ngens) if g != j]
    return [(r, b, q.of_word(w), phi.of_word(w), c)
            for r, rel in enumerate(P.relators)
            for b, g in enumerate(blocks)
            for w, c in fox_derivative(rel, g).items()]


def summand_reps(G):
    """The representations of the rational summands the library splits the
    regular representation of G into, trivial first."""
    return [_cyclotomic_rep(G.order, d) for d in _summand_divisors(G)]


def twisted_jacobian(phi, q, j):
    """The twisted Jacobian of q x Phi with generator column j deleted, and
    its summands.

    Returns (rows, summands): the rows in the regular representation, and
    for rank 1 the (rows_s, k_s) of every rational summand, all assembled
    at once from this quotient alone, with no block shared between
    quotients and no stop at the first block of rank below its width.
    """
    P, rank = phi.presentation, phi.target_rank
    terms = jacobian_terms(phi, q, j)
    nrels, nblocks = len(P.relators), P.ngens - 1
    G = q.group
    rows = _twisted_rows(terms, _regular_rep(G), nrels, nblocks, rank)
    if rank > 1:
        return rows, []
    return rows, [(_twisted_rows(terms, rep, nrels, nblocks, 1),
                   nblocks * len(rep[0]))
                  for rep in summand_reps(G)]


# ---- the eager H_0 correction ----

EagerTwistedPoly = namedtuple(
    "EagerTwistedPoly", ["value", "raw_minor_gcd", "h0_order",
                         "h0_correction", "deleted_column",
                         "correction_exact"])


def eager_twisted_alexander(phi, q, column=None):
    """twisted_alexander with every field computed before it returns: the
    column determinant first, then the raw minor gcd from blocks assembled
    afresh for this quotient, then ord(H_0) and the exact division,
    whatever the raw gcd.  `column` deletes generator j = column in place
    of the first with Phi(g_j) != 0, and raises ValueError when it is out
    of range or Phi(g_j) = 0; the value is the same up to units for every
    valid j, which is what the library's one column is checked against."""
    P, rank = phi.presentation, phi.target_rank
    d = q.group.order
    n = P.ngens
    if column is None:
        j = next(g for g in range(n) if any(phi.of_generator(g)))
    elif 0 <= column < n and any(phi.of_generator(column)):
        j = column
    else:
        raise ValueError(f"column {column} is not valid")
    # the twisted image of g_j - 1
    g_minus_1 = {((j, 1),): 1, (): -1}
    corr = laurent_det(twist_ring_map(g_minus_1, q, phi), rank)

    _check_same(q.presentation, P,
                "Phi and alpha live on different presentations")
    rows, summands = twisted_jacobian(phi, q, j)
    k = (n - 1) * d
    if rank == 1:
        # the Hermite part of every block: the gcd is zero when one has rank
        # below its width, and when the widths cover all k columns (G
        # cyclic) their product, its power of t removed, is the Q[t] part
        # of the regular rows, whose content max_minor_gcd reads
        parts = [_hermite_qpart(block, k_s) for block, k_s in summands]
        if None in parts:
            found = []
        else:
            qpart = None
            if sum(k_s for _, k_s in summands) == k:
                qpart = [1]
                for part in parts:
                    qpart = _mul(qpart, part)
                qpart = _prim(qpart[next(i for i, c in enumerate(qpart)
                                         if c):])
            found = max_minor_gcd(rows, k, qpart)
        raw = normalize_unit(_arr_to_poly(found))
    else:
        raw = laurent_minor_gcd(rows, rank, ncols=k)

    h0 = _h0_order(_schreier_values(q, phi), rank)
    corrected = div_exact(raw * h0, corr)
    value = corrected if corrected is not None else raw
    return EagerTwistedPoly(value=UnitClass(value),
                            raw_minor_gcd=UnitClass(raw),
                            h0_order=UnitClass(h0),
                            h0_correction=UnitClass(corr),
                            deleted_column=j,
                            correction_exact=corrected is not None)


# ---- Clifford blade products by sorting the index word ----

def blade_product(b1, b2):
    """e_{b1} e_{b2} in Cl(K^n) as (sign, ascending index tuple).

    Bubble-sorts the concatenated index word, flipping the sign at each swap
    of two distinct letters (e_i e_j = -e_j e_i), then cancels each adjacent
    equal pair with e_i e_i = -1.
    """
    word = list(b1) + list(b2)
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for i in range(end):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
    out = []
    for x in word:
        if out and out[-1] == x:
            out.pop()
            sign = -sign
        else:
            out.append(x)
    return sign, tuple(out)


def shift_loop_sign(a, b):
    """The sign of e_a e_b for blade bitmasks a, b: one transposition per
    pair i in a, j in b with i > j (the bits of a shifted right by k >= 1
    that meet b), and one -1 per shared index (e_i e_i = -1)."""
    swaps = (a & b).bit_count()
    x = a >> 1
    while x:
        swaps += (x & b).bit_count()
        x >>= 1
    return -1 if swaps & 1 else 1


# ---- the cliffm1 map, one generator product per index ----

def per_index_even_embedding(x, n, field):
    """f(x) for f: Cl(K^(n-1)) -> Cl(K^n), e_i -> e_i e_n, rebuilt for each
    term of x as a chain of CliffordElement.blade(n, field, (i, n)) products,
    one per index of its blade in ascending order."""
    out = CliffordElement.zero(n, field)
    for mask, c in x.terms.items():
        img = CliffordElement.scalar(n, field, 1)
        for i in range(1, n):
            if mask >> (i - 1) & 1:
                img = img * CliffordElement.blade(n, field, (i, n))
        out = out + img * c
    return out


# ---- the spin4 adjoint over Fraction coefficients ----

def fraction_unit_vectors(rng, count):
    """Unit vectors in R^4 as Fraction 4-tuples, with the draws of the
    library's integer form: (a^2 - b^2 - c^2 - d^2, 2ab, 2ac, 2ad) / |q|^2
    for a random integer quaternion q, coordinates shuffled."""
    out = []
    while len(out) < count:
        q = [rng.randint(-5, 5) for _ in range(4)]
        norm = sum(x * x for x in q)
        if norm == 0:
            continue
        a, b, c, d = q
        vec = [Fraction(a * a - b * b - c * c - d * d, norm),
               Fraction(2 * a * b, norm), Fraction(2 * a * c, norm),
               Fraction(2 * a * d, norm)]
        rng.shuffle(vec)
        out.append(tuple(vec))
    return out


def _clifford_mul(x, y):
    """Product of two elements of Cl(K^n) given as {index tuple: coeff}."""
    out = {}
    for b1, c1 in x.items():
        for b2, c2 in y.items():
            sign, b = blade_product(b1, b2)
            out[b] = out.get(b, 0) + sign * c1 * c2
    return {b: c for b, c in out.items() if c != 0}


def fraction_adjoint(vecs):
    """The 4 x 4 Fraction matrix of x -> phi x phi^-1 on R^4 for the product
    phi = v_1 ... v_k of unit vectors, with phi^-1 = (-v_k) ... (-v_1);
    column i is the image of e_i.  None when an image leaves R^4."""
    phi = phi_inv = {(): Fraction(1)}
    for v in vecs:
        elem = {(i + 1,): x for i, x in enumerate(v) if x}
        phi = _clifford_mul(phi, elem)
        phi_inv = _clifford_mul({b: -c for b, c in elem.items()}, phi_inv)
    cols = []
    for i in range(1, 5):
        img = _clifford_mul(_clifford_mul(phi, {(i,): 1}), phi_inv)
        if any(len(b) != 1 for b in img):
            return None
        cols.append([img.get((j,), 0) for j in range(1, 5)])
    return [[cols[j][i] for j in range(4)] for i in range(4)]
