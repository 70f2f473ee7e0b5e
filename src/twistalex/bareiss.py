"""The one fraction-free (Bareiss) elimination, over any exact ring.

`polymat` runs it on Z[t] coefficient arrays, packed ones for several
variables, and on integer evaluations; `clifford` takes an integer
determinant from it.  It imports nothing, so a job that needs only the
integer determinant does not load the Laurent stack.
"""


def _bareiss(a, k, zero, one, step):
    """Fraction-free (Bareiss) elimination of an m x k matrix, rows pivoted.

    Works in place on the list of rows `a` over an exact ring with the given
    zero and one; step(p, f, xs, ys, prev) returns the exact quotients
    (p*x - f*y) / prev for x, y in zip(xs, ys).  Returns the indices of k
    pivot rows, in pivot order, whether the row swaps were odd, and the last
    pivot, which is the minor of those rows in that order (for a square
    matrix, +-its determinant); or None if the rank is < k.

    Rows are updated lazily.  With p_c the pivot of step c (p_-1 = 1), step
    c only scales a row whose entry in column c is zero by p_c / p_(c-1), so
    such a row is skipped: a row last updated at step s - 1 is p_(c-1) /
    p_(s-1) times its eager self at step c, and has the same zero pattern.
    It is brought up to date when it is used: as the pivot row by that
    scaling, as a reduced row by (p_c x - f y) / p_(s-1).  Both are single
    exact steps, since every eager Bareiss entry is a minor of the input.
    The pivots, swaps and results are those of the eager elimination; the
    rows left in `a` below the pivots lag and are not the eager ones.
    """
    idx, odd = list(range(len(a))), False
    prevs = [one]             # prevs[s] = p_(s-1)
    level = [0] * len(a)      # the steps a row's entries have been through
    for c in range(k):
        piv = next((i for i in range(c, len(a)) if a[i][c] != zero), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        idx[c], idx[piv] = idx[piv], idx[c]
        level[c], level[piv] = level[piv], level[c]
        odd ^= piv != c
        row, s = a[c], level[c]
        if s < c:
            row[c:] = step(prevs[c], zero, row[c:], row[c:], prevs[s])
        p, tail = row[c], row[c + 1:]
        for i in range(c + 1, len(a)):
            r = a[i]
            if r[c] != zero:
                r[c + 1:] = step(p, r[c], r[c + 1:], tail, prevs[level[i]])
                level[i] = c + 1
        prevs.append(p)
    return idx[:k], odd, prevs[k]


def _int_step(p, f, xs, ys, prev):
    """The Bareiss step over Z, where every quotient is exact."""
    return [(p * x - f * y) // prev for x, y in zip(xs, ys)]


def _int_det(rows):
    """Exact determinant of a square integer matrix."""
    found = _bareiss([list(r) for r in rows], len(rows), 0, 1, _int_step)
    if found is None:
        return 0
    _, odd, d = found
    return -d if odd else d
