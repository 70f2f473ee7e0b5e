"""Determinants and maximal-minor gcds for matrices over Z[t1^{+-1}, ...].

The order of the cokernel of an integer-Laurent matrix is the gcd of its
maximal minors.  Small matrices are handled by direct enumeration; larger
single-variable matrices use unimodular row reduction over the PID Q[t]
(where the gcd of maximal minors is the product of the pivots) together with
a Gauss-valuation elimination per prime for the integer-content part.
Everything here works with plain coefficient arrays for speed; LaurentPoly
values cross the boundary only on the way in and out.
"""

from itertools import combinations
from math import comb, gcd, isqrt

from .laurent import (LaurentPoly, UnsupportedRank, div_exact, lp_gcd_many,
                      _int_poly_content, _int_poly_gcd, normalize_unit)

ENUM_BOUND = 400


# ---- coefficient arrays: list of ints, lowest degree first, [] is zero ----

def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _sub(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _scale(a, c):
    return [] if c == 0 else [c * x for x in a]


def _divexact(a, b):
    """a / b in Z[t], or None when not exactly divisible."""
    if not b:
        return None
    if not a:
        return []
    if len(a) < len(b):
        return None
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    lb = b[-1]
    while r and len(r) >= len(b):
        if r[-1] % lb:
            return None
        c = r[-1] // lb
        off = len(r) - len(b)
        q[off] = c
        for i, y in enumerate(b):
            r[off + i] -= c * y
        _trim(r)
    return q if not r else None


def _prim_pos(a):
    """Primitive part with positive leading coefficient."""
    if not a:
        return []
    g = _int_poly_content(a)
    a = [c // g for c in a]
    if a[-1] < 0:
        a = [-c for c in a]
    return a


def _strip_row_content(row):
    g = 0
    for e in row:
        for c in e:
            g = gcd(g, c)
            if g == 1:
                return row
    if g > 1:
        for e in row:
            for i in range(len(e)):
                e[i] //= g
    return row


def _bareiss_det(rows):
    """Exact determinant of a square matrix of coefficient arrays."""
    n = len(rows)
    if n == 0:
        return [1]
    a = [[list(e) for e in r] for r in rows]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return []
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _sub(_mul(a[i][j], a[k][k]), _mul(a[i][k], a[k][j]))
                a[i][j] = _divexact(num, prev)
            a[i][k] = []
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return _scale(d, sign) if sign < 0 else d


# ---- conversions --------------------------------------------------------

def _rows_to_arrays(M):
    """Row-normalize a single-variable Laurent matrix into Z[t] arrays.

    Each row is multiplied by a power of t (a unit), which scales all maximal
    minors by a common unit and is therefore harmless for gcd purposes.
    """
    out = []
    for row in M:
        shift = 0
        for e in row:
            if not e.is_zero():
                shift = min(shift, e.min_exp(0))
        arrs = []
        for e in row:
            if e.is_zero():
                arrs.append([])
            else:
                hi = e.max_exp(0)
                a = [0] * (hi - shift + 1)
                for (k,), c in e.terms.items():
                    a[k - shift] = c
                arrs.append(_trim(a))
        out.append(arrs)
    return out


def _arr_to_poly(a):
    return LaurentPoly(1, {(i,): c for i, c in enumerate(a) if c})


# ---- general determinant -------------------------------------------------

def laurent_det(M, rank):
    """Exact determinant of a square matrix of LaurentPoly entries."""
    n = len(M)
    if n == 0:
        return LaurentPoly.one(rank)
    if rank == 1:
        shift_total = 0
        rows = []
        for row in M:
            shift = 0
            for e in row:
                if not e.is_zero():
                    shift = min(shift, e.min_exp(0))
            shift_total += shift
            rows.append(row if shift == 0 else [e.shift((-shift,)) for e in row])
        d = _bareiss_det(_rows_to_arrays(rows))
        return _arr_to_poly(d).shift((shift_total,))
    # fraction-free Bareiss over the multivariable ring
    a = [[e for e in row] for row in M]
    sign = 1
    prev = LaurentPoly.one(rank)
    zero = LaurentPoly.zero(rank)
    for k in range(n - 1):
        if a[k][k].is_zero():
            piv = next((i for i in range(k + 1, n) if not a[i][k].is_zero()), None)
            if piv is None:
                return zero
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                q = div_exact(num, prev)
                if q is None:
                    raise AssertionError("Bareiss division failed")
                a[i][j] = q
            a[i][k] = zero
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


# ---- integer factorization helpers (for the content part) ----------------

def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n):
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"failed to factor {n}")


def _prime_factors(n):
    out = set()
    stack = [abs(n)]
    while stack:
        v = stack.pop()
        if v <= 1:
            continue
        if _is_prime(v):
            out.add(v)
            continue
        small = None
        for p in range(2, min(10000, isqrt(v) + 1)):
            if v % p == 0:
                small = p
                break
        d = small if small else _pollard_rho(v)
        stack.append(d)
        stack.append(v // d)
    return sorted(out)


# ---- maximal-minor gcd ----------------------------------------------------

def _enum_minor_gcd_arrays(rows, k):
    m = len(rows)
    g = []
    for subset in combinations(range(m), k):
        d = _bareiss_det([rows[i] for i in subset])
        if d:
            g = _int_poly_gcd(g, d) if g else _prim_like(d)
            if len(g) == 1 and abs(g[0]) == 1:
                break
    return g


def _prim_like(a):
    return [-c for c in a] if a and a[-1] < 0 else list(a)


def _independent_rows(rows, k):
    """Indices of k rows with nonzero determinant, or None if rank < k."""
    m = len(rows)
    work = [[list(e) for e in r] for r in rows]
    idx = list(range(m))
    r = 0
    for c in range(k):
        piv = None
        best = None
        for i in range(r, m):
            e = work[i][c]
            if e and (best is None or len(e) < best):
                best = len(e)
                piv = i
        if piv is None:
            return None
        work[r], work[piv] = work[piv], work[r]
        idx[r], idx[piv] = idx[piv], idx[r]
        for j in range(r + 1, m):
            if work[j][c]:
                pc, jc = work[r][c], work[j][c]
                work[j] = [_sub(_mul(e, pc), _mul(work[r][ci], jc))
                           for ci, e in enumerate(work[j])]
                _strip_row_content(work[j])
        r += 1
    return sorted(idx[:k])


def _hermite_qpart(rows, k):
    """Gcd over Q[t] of the maximal minors, primitive in Z[t].

    Row combinations are unimodular over Q[t] up to nonzero rational row
    scalings, which change every maximal minor by the same rational factor;
    the primitive part of the pivot product is thus exact.  Returns None if
    the matrix has rank < k.
    """
    work = [[list(e) for e in r] for r in rows]
    active = list(range(len(rows)))
    pivots = []
    for c in range(k):
        while True:
            nz = [i for i in active if work[i][c]]
            if not nz:
                return None
            if len(nz) == 1:
                break
            nz.sort(key=lambda i: len(work[i][c]))
            base = nz[0]
            b = work[base][c]
            lb = b[-1]
            for j in nz[1:]:
                # pseudo-division of entry (j,c) by entry (base,c) via row ops
                while work[j][c] and len(work[j][c]) >= len(b):
                    a = work[j][c]
                    s = lb // gcd(a[-1], lb)
                    if s != 1:
                        work[j] = [_scale(e, s) for e in work[j]]
                        a = work[j][c]
                    q = a[-1] // lb
                    off = len(a) - len(b)
                    qpoly = [0] * off + [q]
                    work[j] = [_sub(e, _mul(qpoly, work[base][ci]))
                               for ci, e in enumerate(work[j])]
                _strip_row_content(work[j])
        piv = next(i for i in active if work[i][c])
        pivots.append(work[piv][c])
        active.remove(piv)
    prod = [1]
    for p in pivots:
        prod = _mul(prod, p)
    return _prim_pos(prod)


def _val_p(e, p):
    """Gauss valuation: min p-adic valuation over the coefficients."""
    best = None
    for c in e:
        if c == 0:
            continue
        v = 0
        while c % p == 0:
            c //= p
            v += 1
        if best is None or v < best:
            best = v
            if best == 0:
                return 0
    return best


def _strip_pfree_content(row, p):
    g = 0
    for e in row:
        for c in e:
            g = gcd(g, c)
    if g <= 1:
        return
    while g % p == 0:
        g //= p
    if g > 1:
        for e in row:
            for i in range(len(e)):
                e[i] //= g


def _gauss_valuation_sum(rows, k, p):
    """min over maximal minors of the Gauss p-valuation.

    Elimination over the valuation ring O_p of Q(t): polynomials with p-free
    content are units, so rows stay polynomial throughout.
    """
    work = [[list(e) for e in r] for r in rows]
    active = list(range(len(rows)))
    total = 0
    for c in range(k):
        piv = None
        pval = None
        for i in active:
            if work[i][c]:
                v = _val_p(work[i][c], p)
                if pval is None or v < pval:
                    pval = v
                    piv = i
        if piv is None:
            return None
        total += pval
        ps = p ** pval
        ctilde = [x // ps for x in work[piv][c]]
        for j in active:
            if j == piv or not work[j][c]:
                continue
            mu = [x // ps for x in work[j][c]]
            work[j] = [_sub(_mul(e, ctilde), _mul(mu, work[piv][ci]))
                       for ci, e in enumerate(work[j])]
            _strip_pfree_content(work[j], p)
        active.remove(piv)
    return total


def _max_minor_gcd_1var(rows, k):
    m = len(rows)
    if m < k:
        return []
    if comb(m, k) <= ENUM_BOUND:
        return _enum_minor_gcd_arrays(rows, k)
    qpart = _hermite_qpart(rows, k)
    if qpart is None:
        return []
    piv_idx = _independent_rows(rows, k)
    m0 = _bareiss_det([rows[i] for i in piv_idx])
    c0 = _int_poly_content(m0)
    content = 1
    for p in _prime_factors(c0):
        w = _gauss_valuation_sum(rows, k, p)
        content *= p ** w
    return _scale(qpart, content)


def max_minor_gcd(M, rank, ncols=None):
    """Gcd of the maximal (col-sized) minors of M, as a normalized LaurentPoly.

    M is a list of rows of LaurentPoly.  When M has fewer rows than columns
    the cokernel of the row span has a free summand and the gcd is zero; a
    matrix with zero columns has the empty determinant 1.  `ncols` settles
    the column count when there are no rows at all.
    """
    k = len(M[0]) if M else ncols
    if k is None:
        raise ValueError("column count of an empty matrix is ambiguous")
    if k == 0:
        return LaurentPoly.one(rank)
    if len(M) < k:
        return LaurentPoly.zero(rank)
    if rank == 1:
        g = _max_minor_gcd_1var(_rows_to_arrays(M), k)
        return normalize_unit(_arr_to_poly(g))
    if comb(len(M), k) > 20000:
        raise UnsupportedRank("multivariable minor enumeration too large")
    dets = (laurent_det([M[i] for i in subset], rank)
            for subset in combinations(range(len(M)), k))
    return lp_gcd_many((d for d in dets if not d.is_zero()),
                       rank).representative
