"""Determinants and maximal-minor gcds for matrices over Z[t1^{+-1}, ...].

The order of the cokernel of an integer-Laurent matrix is the gcd of its
maximal minors.  Small matrices are handled by direct enumeration; larger
single-variable matrices use unimodular row reduction over the PID Q[t]
(where the gcd of maximal minors is the product of the pivots), or take
their Q[t] part from the caller.  The primes that can divide the integer
content come from integer evaluations: Bareiss elimination of the integer
matrices M(2), M(3), ...; a Gauss-valuation elimination per candidate
prime gives its exact exponent.  The content may be asked for with the
primes of a given integer left out: none of them is examined.
A determinant of any rank is one Bareiss elimination on the rows that
laurent._pack packs into Z[t].  Everything here works with the arrays of
the laurent module, which defines their arithmetic; LaurentPoly values
cross the boundary only on the way in and out.
"""

from itertools import combinations
from math import comb, gcd, isqrt

from .bareiss import _bareiss, _int_step
from .laurent import (UnsupportedRank, lp_gcd_many, normalize_unit,
                      _arr_to_poly, _divexact, _eval, _int_poly_gcd, _mul,
                      _pack, _prim, _pseudo_reduce, _scale, _strip_content,
                      _sub)

ENUM_BOUND = 400


# ---- fraction-free elimination ------------------------------------------

def _bareiss_det(rows):
    """Exact determinant of a square matrix of coefficient arrays."""
    found = _bareiss([list(r) for r in rows], len(rows), [], [1],
                     lambda p, f, xs, ys, prev:
                     [_divexact(_sub(_mul(x, p), _mul(f, y)), prev)
                      if x or y else [] for x, y in zip(xs, ys)])
    if found is None:
        return []
    _, odd, d = found
    return _scale(d, -1) if odd else d


# ---- general determinant -------------------------------------------------

def laurent_det(M, rank):
    """Exact determinant of a square LaurentPoly matrix, packed by _pack."""
    rows, strides, shift = _pack(M, rank)
    return _arr_to_poly(_bareiss_det(rows), shift, strides)


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
    g = []
    for subset in combinations(range(len(rows)), k):
        g = _int_poly_gcd(g, _bareiss_det([rows[i] for i in subset]))
        if g == [1]:
            break
    return g


def _evaluations(rows, k, start):
    """(x, _bareiss of the integer matrix rows(x)) for x = start, ..., D + 2.

    D, the sum of the k largest row degrees, bounds the degree of every
    k x k minor, so a nonzero minor is nonzero at one of the D + 1 points
    2, ..., D + 2.
    """
    D = sum(sorted(max(map(len, r)) - 1 for r in rows)[-k:])
    for x in range(start, D + 3):
        ints = [[_eval(e, x) if e else 0 for e in r] for r in rows]
        yield x, _bareiss(ints, k, 0, 1, _int_step)


def _independent_rows(rows, k):
    """(indices of k rows, x, their minor at x), or None if rank < k: the
    first of the content step.

    x is the first of the points 2, 3, ... where the integer matrix rows(x)
    has rank k; a nonzero minor there proves the polynomial minor on the
    same rows nonzero.  The minor is the determinant of rows(x) on those
    rows up to sign.
    """
    return next(((sorted(found[0]), x, found[2])
                 for x, found in _evaluations(rows, k, 2) if found), None)


def _prime_to(n, m):
    """The largest divisor of the integer n prime to m."""
    g = gcd(n, m)
    while g > 1:
        n //= g
        g = gcd(n, g)
    return n


def _content_multiple(rows, qpart, x, minor, skip=1):
    """A nonzero multiple of the part of the content c of the maximal-minor
    gcd that is prime to `skip`.

    `rows` is a square submatrix with nonzero determinant d, and minor is
    +-d(x), nonzero, at the first point x = 2, 3, ... where d does not
    vanish.  The gcd, which is c*qpart times a power of t, divides d in
    Z[t], so wherever d(x) != 0 also qpart(x) != 0 and c divides
    d(x) / qpart(x).  Takes the gcd of these values, from x on, with the
    primes dividing `skip` left out, until it is 1 or the points run out.
    A prime left out is one the caller reads otherwise: at a prime that
    divides every value the loop would run to its last point for nothing.
    """
    g = _prime_to(abs(minor // _eval(qpart, x)), skip)
    if g != 1:
        for x, found in _evaluations(rows, len(rows), x + 1):
            if found:
                g = gcd(g, found[2] // _eval(qpart, x))
                if g == 1:
                    break
    return g


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
            base = work[nz[0]]
            for j in nz[1:]:
                work[j] = _strip_content(_pseudo_reduce(work[j], base, c))
        piv = next(i for i in active if work[i][c])
        pivots.append(work[piv][c])
        active.remove(piv)
    prod = [1]
    for p in pivots:
        prod = _mul(prod, p)
    return _prim(prod)


def _val_p(n, p):
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _gauss_valuation_sum(rows, k, p):
    """min over maximal minors of the Gauss p-valuation: the exponent of p
    in the content, the last of the content step.

    Elimination over the valuation ring O_p of Q(t): polynomials with p-free
    content are units, so rows stay polynomial throughout.  The content
    step runs it only at the primes of _content_multiple, none of which
    divides the `skip` it was given.
    """
    work = [[list(e) for e in r] for r in rows]
    active = list(range(len(rows)))
    total = 0
    for c in range(k):
        piv = None
        pval = None
        for i in active:
            if work[i][c]:
                # the Gauss valuation: that of the content
                v = _val_p(gcd(*work[i][c]), p)
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
            work[j] = [_sub(_mul(e, ctilde), _mul(mu, f))
                       for e, f in zip(work[j], work[piv])]
            _strip_content(work[j], p)
        active.remove(piv)
    return total


def max_minor_gcd(rows, k, qpart=None, skip=1):
    """Gcd of the k x k minors of a k-column matrix of Z[t] arrays, with the
    primes dividing `skip` left out of its integer content.

    Returns an array, [] when the rank is below k (fewer rows than columns
    included) and [1] when k = 0; the gcd is exact up to a power of t,
    which the caller normalizes away, and its content is exact at every
    prime not dividing `skip`, no prime dividing it being examined.
    `qpart`, when given, is the gcd's Q[t] part: a primitive array with a
    nonzero constant term that divides the gcd, the matrix having rank k.
    In this order:

    - a matrix with at most ENUM_BOUND maximal minors enumerates them;
    - otherwise the Q[t] part is `qpart`, or else the Hermite pivot product
      of `rows`, and the content comes from one content step on `rows`:
      _independent_rows finds a nonzero minor, _content_multiple a multiple
      of the content from its values, and _gauss_valuation_sum the exact
      exponent of each prime of that multiple.
    """
    if k == 0:
        return [1]
    if len(rows) < k:
        return []
    if comb(len(rows), k) <= ENUM_BOUND:
        g = _enum_minor_gcd_arrays(rows, k)
        if not g:
            return g
        c = gcd(*g)
        return [x // (c // _prime_to(c, skip)) for x in g]
    if qpart is None:
        qpart = _hermite_qpart(rows, k)
        if qpart is None:
            return []
    idx, x, minor = _independent_rows(rows, k)
    content = 1
    for p in _prime_factors(_content_multiple([rows[i] for i in idx], qpart,
                                              x, minor, skip)):
        content *= p ** _gauss_valuation_sum(rows, k, p)
    return _scale(qpart, content)


def laurent_minor_gcd(M, rank, ncols=None):
    """Gcd of the maximal (col-sized) minors of M, as a normalized LaurentPoly.

    M is a list of rows of LaurentPoly.  When M has fewer rows than columns
    the cokernel of the row span has a free summand and the gcd is zero; a
    matrix with zero columns has the empty determinant 1.  `ncols` settles
    the column count when there are no rows at all.  Rank 1 goes through
    max_minor_gcd on the rows' arrays; a higher rank enumerates the minors.
    """
    k = len(M[0]) if M else ncols
    if k is None:
        raise ValueError("column count of an empty matrix is ambiguous")
    if rank == 1:
        return normalize_unit(_arr_to_poly(max_minor_gcd(_pack(M, 1)[0], k)))
    if comb(len(M), k) > 20000:
        raise UnsupportedRank("multivariable minor enumeration too large")
    dets = (laurent_det([M[i] for i in subset], rank)
            for subset in combinations(range(len(M)), k))
    return lp_gcd_many((d for d in dets if not d.is_zero()),
                       rank).representative
