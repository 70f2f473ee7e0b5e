"""Exact integer linear algebra.

Smith normal form over Z with unimodular transforms, homology of CW chain
complexes, and a rank solver for exact sequences of free abelian groups.
All arithmetic uses Python's arbitrary-precision integers.

`IntMatrix` stores the nonzeros of each row, keyed by column, so parsing,
the d o d check and the Smith form cost the nonzeros, not the entries.  The
Smith form pivots on the nonzero at or after (t, t) that minimizes
(|value|, row, column), logs its row and column operations and builds the
transforms U and V from the logs on first read, so a caller that reads only
the diagonal (`all_homology`) never pays for them.
"""

from collections import namedtuple
from functools import cached_property
from itertools import chain, repeat


class ComplexInvalid(ValueError):
    """The boundary maps do not satisfy d o d = 0 (or shapes mismatch)."""


class IndexOutOfRange(IndexError):
    """Requested degree outside the chain complex."""


class Underdetermined(ValueError):
    """The exact-sequence data does not determine all unknown ranks."""


class Inconsistent(ValueError):
    """The exact-sequence data violates exactness or rank-nullity."""


class IntMatrix:
    """Immutable integer matrix: one {column: nonzero value} dict per row."""

    __slots__ = ("rows", "cols", "_nz")

    def __init__(self, rows, cols, entries):
        entries = list(map(int, entries))
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows, self.cols = rows, cols
        self._nz = tuple({j: x for j, x in enumerate(entries[i * cols:(i + 1) * cols])
                          if x} for i in range(rows))

    @classmethod
    def from_sparse(cls, cols, nz):
        """Row i is nz[i], a {column: nonzero value} dict, taken over uncopied."""
        M = cls.__new__(cls)
        M.rows, M.cols, M._nz = len(nz), cols, tuple(nz)
        return M

    @classmethod
    def from_rows(cls, rows_data):
        rows_data = [list(r) for r in rows_data]
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if rows_data else 0
        if any(len(r) != ncols for r in rows_data):
            raise ValueError("ragged rows")
        return cls(nrows, ncols, [x for r in rows_data for x in r])

    @classmethod
    def identity(cls, n):
        return cls.from_sparse(n, [{i: 1} for i in range(n)])

    @classmethod
    def zero(cls, rows, cols):
        return cls.from_sparse(cols, [{} for _ in range(rows)])

    @property
    def entries(self):
        return tuple(chain.from_iterable(map(self.row, range(self.rows))))

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self._nz[i].get(j, 0)

    def row(self, i):
        return tuple(map(self._nz[i].get, range(self.cols), repeat(0)))

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        cols = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._nz):
            for j, x in r.items():
                cols[j][i] = x
        return IntMatrix.from_sparse(self.rows, cols)

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        out = []
        for r in self._nz:
            acc = {}
            for k, x in r.items():
                for j, y in other._nz[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append({j: v for j, v in acc.items() if v})
        return IntMatrix.from_sparse(other.cols, out)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._nz == other._nz)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def is_zero(self):
        return not any(self._nz)

    def is_diagonal(self):
        return all(j == i for i, r in enumerate(self._nz) for j in r)

    def diagonal(self):
        return [self._nz[i].get(i, 0) for i in range(min(self.rows, self.cols))]

    def __repr__(self):
        return f"IntMatrix({self.to_lists()!r})"


class SmithDecomposition:
    """U * M * V = D with U, V unimodular and D in Smith normal form.

    U and V are built on first read, by replaying the elimination's logged
    row and column operations on the identity; U_inverse replays the row
    operations inverted and in reverse order, on each read.
    """

    def __init__(self, D, row_ops, col_ops):
        self.D = D
        self._row_ops = row_ops
        self._col_ops = col_ops

    @cached_property
    def U(self):
        return _replay(self._row_ops, self.D.rows)

    @property
    def U_inverse(self):
        # each logged operation is its own inverse up to the sign of c
        return _replay([(i, j, c if i == j else -c)
                        for i, j, c in reversed(self._row_ops)], self.D.rows)

    @cached_property
    def V(self):
        # a column operation on V is the same row operation on V^T
        return _replay(self._col_ops, self.D.cols).transpose()

    def elementary_divisors(self):
        return [d for d in self.D.diagonal() if d != 0]

    def rank(self):
        return len(self.elementary_divisors())


def _replay(ops, n):
    """The n x n identity after the logged row operations.

    (i, j, 0) swaps rows i and j, (i, i, -1) negates row i, and (i, j, c)
    with i != j adds c times row j to row i.
    """
    a = [{i: 1} for i in range(n)]
    for i, j, c in ops:
        if not c:
            a[i], a[j] = a[j], a[i]
        elif i == j:
            a[i] = {k: -x for k, x in a[i].items()}
        else:
            _add_row(a[i], a[j], c)
    return IntMatrix.from_sparse(n, a)


def _add_row(r, s, c):
    """r += c * s, in place, on rows of nonzeros."""
    for k, y in s.items():
        r[k] = v = r.get(k, 0) + c * y
        if not v:
            del r[k]


def _min_abs_pivot(a, logical, t, live):
    """The pivot (i, j, value) minimizing (|value|, i, j) over the nonzeros
    at or after (t, t), or None; `a` holds each row's nonzeros by physical
    column k, whose logical column is logical[k], and `live` lists the
    nonzero rows from t on in increasing order.  A unit ends the search."""
    best = None
    for i in live:
        for k, v in a[i].items():
            j = logical[k]
            if j >= t and (best is None or (abs(v), i, j, v) < best):
                best = (abs(v), i, j, v)
        if best is not None and best[0] == 1:
            break
    return best[1:] if best else None


def smith_normal_form(M):
    """Diagonalize M over Z.

    The pivot with minimal absolute value is chosen at each stage, which keeps
    intermediate entries small in practice.  Only D is built here; the row
    and column operations go to two logs that U and V replay when read.
    Rows hold their nonzeros by physical column, and `perm` maps logical
    columns to physical ones, so a column swap costs two list entries.
    A zero row stays zero: a row addition only reaches row t or a row with
    an entry in the pivot column, and a column operation only touches
    nonzeros.  So `live`, the nonzero rows from t on, is all that the
    searches visit.
    """
    m, n = M.rows, M.cols
    a = [dict(r) for r in M._nz]
    perm, logical = list(range(n)), list(range(n))
    row_ops, col_ops = [], []

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        row_ops.append((i, j, 0))

    def swap_cols(i, j):
        perm[i], perm[j] = perm[j], perm[i]
        logical[perm[i]], logical[perm[j]] = i, j
        col_ops.append((i, j, 0))

    def add_row(dst, src, c):
        _add_row(a[dst], a[src], c)
        row_ops.append((dst, src, c))

    def add_col(dst, src, c, holders):
        # column_dst += c * column_src, in the rows `holders` that hold src
        pd, ps = perm[dst], perm[src]
        for r in holders:
            r[pd] = v = r.get(pd, 0) + c * r[ps]
            if not v:
                del r[pd]
        col_ops.append((dst, src, c))

    live = [i for i in range(m) if a[i]]
    t = 0
    while t < min(m, n):
        piv = _min_abs_pivot(a, logical, t, live)
        if piv is None:
            break
        pi, pj, _ = piv
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        while True:
            # clear column t below the pivot
            moved = False
            pt = perm[t]
            for i in [i for i in live if i > t and pt in a[i]]:
                q = a[i][pt] // a[t][pt]
                if q:
                    add_row(i, t, -q)
                if pt in a[i]:
                    # remainder is strictly smaller: promote it to pivot
                    swap_rows(t, i)
                    moved = True
            if moved:
                continue
            # clear row t in logical column order (step j changes only columns
            # t and j); column t is zero below the pivot until a swap
            holders = [a[t]]
            for j in sorted(logical[k] for k in a[t] if logical[k] > t):
                q = a[t][perm[j]] // a[t][perm[t]]
                if q:
                    add_col(j, t, -q, holders)
                if perm[j] in a[t]:
                    swap_cols(t, j)
                    holders = [r for r in a[t:] if perm[t] in r]
                    moved = True
            if moved:
                continue
            # row and column t are clear; enforce divisibility of the rest,
            # which a unit pivot has already
            p = a[t][perm[t]]
            if p in (1, -1):
                break
            bad = next((i for i in live
                        if i > t and any(v % p for v in a[i].values())), None)
            if bad is None:
                break
            add_row(t, bad, 1)
        if a[t][perm[t]] < 0:
            a[t] = {k: -v for k, v in a[t].items()}
            row_ops.append((t, t, -1))
        # drop row t, the rows this stage emptied and the pivot's old row
        # if the swap filled it with a zero row t
        live = [i for i in live if i > t and a[i]]
        t += 1

    D = IntMatrix.from_sparse(n, [{logical[k]: v for k, v in r.items()}
                                  for r in a])
    return SmithDecomposition(D, row_ops, col_ops)


class HomologyGroup(namedtuple("HomologyGroup", "free_rank torsion",
                                defaults=((),))):
    """Free rank plus torsion coefficients d1 | d2 | ... , each > 1."""

    __slots__ = ()

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return "+".join(parts) if parts else "0"


class ChainComplex:
    """Finite CW chain complex over Z.

    `cells[k]` is the number of k-cells and `boundaries[k-1]` is the matrix of
    d_k with shape cells[k-1] x cells[k].  d o d = 0 is validated once at
    construction; operations may assume it afterwards.
    """

    def __init__(self, cells, boundaries):
        self.cells = tuple(int(c) for c in cells)
        if any(c < 0 for c in self.cells):
            raise ComplexInvalid("negative cell count")
        boundaries = list(boundaries)
        if len(boundaries) != max(len(self.cells) - 1, 0):
            raise ComplexInvalid("need one boundary map per positive dimension")
        self.boundaries = tuple(boundaries)
        for k, d in enumerate(self.boundaries, start=1):
            if (d.rows, d.cols) != (self.cells[k - 1], self.cells[k]):
                raise ComplexInvalid(f"boundary {k} has shape {(d.rows, d.cols)}, "
                                     f"expected {(self.cells[k - 1], self.cells[k])}")
        for k in range(1, len(self.boundaries)):
            if not (self.boundaries[k - 1] * self.boundaries[k]).is_zero():
                raise ComplexInvalid(f"d_{k} o d_{k + 1} != 0")

    @property
    def dim(self):
        return len(self.cells) - 1

    def boundary(self, k):
        """d_k, with d_0 and d_{dim+1} the zero maps."""
        if 1 <= k <= self.dim:
            return self.boundaries[k - 1]
        if k == 0:
            return IntMatrix.zero(0, self.cells[0] if self.cells else 0)
        return IntMatrix.zero(self.cells[k - 1] if k - 1 <= self.dim else 0, 0)

    def euler_characteristic(self):
        return sum((-1) ** k * c for k, c in enumerate(self.cells))


def homology(C, k):
    """H_k(C) = ker d_k / im d_{k+1} as a HomologyGroup."""
    if k < 0 or k > C.dim:
        raise IndexOutOfRange(f"degree {k} outside complex of dimension {C.dim}")
    return all_homology(C)[k]


def all_homology(C):
    """H_0 .. H_dim from one Smith form per boundary map.

    rank d_k is the number of elementary divisors of d_k; the torsion of H_k
    is the divisors of d_{k+1} that are > 1.  d_0 and d_{dim+1} are zero.
    """
    divs = [[]] + [smith_normal_form(d).elementary_divisors()
                   for d in C.boundaries] + [[]]
    return [HomologyGroup(n - len(divs[k]) - len(divs[k + 1]),
                          tuple(x for x in divs[k + 1] if x > 1))
            for k, n in enumerate(C.cells)]


class MapData(namedtuple("MapData", "image kernel", defaults=(None, None))):
    """Known ranks for one map of an exact sequence; None = unknown."""

    __slots__ = ()


class ExactSequenceData:
    """An exact sequence of free abelian groups with some unknown term ranks.

    `terms[i]` is an int (known rank) or a string naming an unknown.  Map i
    goes from term i to term i+1; `maps` assigns optional MapData per index.
    """

    def __init__(self, terms, maps=None):
        self.terms = list(terms)
        self.maps = dict(maps or {})
        for i, md in self.maps.items():
            if not 0 <= i < len(self.terms) - 1:
                raise ValueError(f"map index {i} out of range")
            if any(r is not None and r < 0 for r in (md.image, md.kernel)):
                raise ValueError(f"map {i} has a negative rank")
        for t in self.terms:
            if isinstance(t, int) and t < 0:
                raise ValueError(f"negative term rank {t}")
        names = [t for t in self.terms if not isinstance(t, int)]
        if len(set(names)) != len(names):
            raise ValueError("repeated unknown term name")


def exact_sequence_solve(seq):
    """Resolve unknown term ranks by rank-nullity and exactness.

    Returns the full list of term ranks.  Raises Underdetermined if the data
    leaves an unknown unresolved, Inconsistent if it contradicts exactness.
    """
    nterms = len(seq.terms)
    nmaps = nterms - 1
    T = [x if isinstance(x, int) else None for x in seq.terms]
    I = [None] * nmaps
    K = [None] * nmaps
    for i, md in seq.maps.items():
        I[i] = md.image
        K[i] = md.kernel

    def put(store, i, val, what):
        if val < 0:
            raise Inconsistent(f"negative rank for {what} {i}")
        if store[i] is None:
            store[i] = val
            return True
        if store[i] != val:
            raise Inconsistent(f"conflicting values for {what} {i}: "
                               f"{store[i]} vs {val}")
        return False

    changed = True
    while changed:
        changed = False
        for i in range(nmaps):
            # rank-nullity on the source term
            known = [x for x in (T[i], K[i], I[i]) if x is not None]
            if T[i] is not None and K[i] is not None and I[i] is None:
                changed |= put(I, i, T[i] - K[i], "image")
            elif T[i] is not None and I[i] is not None and K[i] is None:
                changed |= put(K, i, T[i] - I[i], "kernel")
            elif K[i] is not None and I[i] is not None and T[i] is None:
                changed |= put(T, i, K[i] + I[i], "term")
            elif len(known) == 3 and T[i] != K[i] + I[i]:
                raise Inconsistent(f"rank-nullity fails at term {i}")
            # images land in the next term
            if T[i + 1] == 0 and I[i] is None:
                changed |= put(I, i, 0, "image")
            if T[i] == 0:
                if I[i] is None:
                    changed |= put(I, i, 0, "image")
                if K[i] is None:
                    changed |= put(K, i, 0, "kernel")
        # exactness at interior terms: im(map i-1) = ker(map i)
        for i in range(1, nmaps):
            if I[i - 1] is not None and K[i] is None:
                changed |= put(K, i, I[i - 1], "kernel")
            elif K[i] is not None and I[i - 1] is None:
                changed |= put(I, i - 1, K[i], "image")
            elif I[i - 1] is not None and K[i] is not None and I[i - 1] != K[i]:
                raise Inconsistent(f"exactness fails at term {i}")

    if any(t is None for t in T):
        missing = [seq.terms[i] for i, t in enumerate(T) if t is None]
        raise Underdetermined(f"unresolved terms: {missing}")
    for i in range(nmaps):
        if I[i] is not None and T[i + 1] is not None and I[i] > T[i + 1]:
            raise Inconsistent(f"image of map {i} exceeds its target")
    return T
