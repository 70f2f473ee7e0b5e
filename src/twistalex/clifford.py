"""Exact Clifford algebra arithmetic over Q and the Gaussian rationals Q(i).

Elements of Cl(K^n) are blade-coefficient expansions with the relations
e_i^2 = -1 and e_i e_j = -e_j e_i.  A basis blade e_{i_1} ... e_{i_k} is
stored as the bitmask with bits i_1 - 1, ..., i_k - 1 set; index tuples
appear only at the API boundary.  On top of the arithmetic sit machine
verifications of the explicit low-dimensional isomorphisms: the 4x4 complex
matrix model, the quaternion model in dimension 3, the even-subalgebra
embedding, the splittings induced by volume elements, the Hodge star in
dimension 4, and the orthogonality of the twisted-conjugation action for
even products of unit vectors.
"""

import functools
import random
from collections import namedtuple
from fractions import Fraction

from .bareiss import _int_det


class DimensionMismatch(ValueError):
    """Operands live in different Clifford algebras."""


class NotSplitting(ValueError):
    """The volume element does not square to 1."""


class UnknownSuite(ValueError):
    """No verification suite has the requested name."""


class GaussianRational:
    """a + b*i with exact rational a, b.

    Each part is an int or a Fraction: integral arithmetic stays on ints, and
    only division by a non-unit makes a Fraction.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) in _EXACT else Fraction(re)
        self.im = im if type(im) in _EXACT else Fraction(im)

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if not (self.im or other.im):
            return GaussianRational(self.re * other.re, self.im)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # int / int would be a float; a unit (n = 1) keeps int parts int
        inv = 1 if n == 1 else Fraction(1, n)
        return GaussianRational((self.re * other.re + self.im * other.im) * inv,
                                (self.im * other.re - self.re * other.im) * inv)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = _coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        # a real value hashes as its real part, as it compares equal to it
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


_EXACT = (int, Fraction)


def _coerce(x):
    return x if isinstance(x, GaussianRational) else GaussianRational(x)


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def _prefix_parity(b, n):
    """The inclusive prefix parity of a blade bitmask b of Cl(K^n): bit i is
    the parity of #{j in b : j <= i}, for i < n.

    e_a e_b = (-1)^popcount(a & q(b)) e_(a ^ b): the AND counts, for each i
    in a, the j in b with j < i (one transposition each) and j = i (e_i e_i
    = -1).
    """
    k = 1
    while k < n:
        b ^= b << k
        k <<= 1
    return b & ((1 << n) - 1)


def _blade_mul(a, b):
    """Product of two blade bitmasks; returns (sign, a ^ b)."""
    odd = (a & _prefix_parity(b, a.bit_length())).bit_count() & 1
    return (-1 if odd else 1), a ^ b


def _mask(blade, n):
    """The bitmask of an ascending index tuple of Cl(K^n); bit i-1 is e_i."""
    blade = tuple(blade)
    if any(not 1 <= i <= n for i in blade) or list(blade) != sorted(set(blade)):
        raise ValueError(f"bad blade {blade} in dimension {n}")
    return sum(1 << (i - 1) for i in blade)


def _blade(mask):
    """The ascending index tuple of a blade bitmask."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


_ZERO = {"R": 0, "C": GR_ZERO}


def _coefficient(field, c):
    """c as a coefficient: an int or a Fraction over R, a GaussianRational
    over C."""
    if field == "C":
        return _coerce(c)
    if type(c) in _EXACT:
        return c
    c = _coerce(c)
    if c.im != 0:
        raise ValueError("real algebra with imaginary coefficient")
    return c.re


class CliffordElement:
    """An element of Cl(K^n); field is 'R' (over Q) or 'C' (over Q(i)).

    `terms` maps blade bitmasks to nonzero coefficients.
    """

    __slots__ = ("n", "field", "terms")

    def __init__(self, n, field, terms=None):
        if field not in ("R", "C"):
            raise ValueError("field must be 'R' or 'C'")
        self.n = n
        self.field = field
        out = {}
        for blade, c in (terms or {}).items():
            m = _mask(blade, n)
            c = _coefficient(field, c)
            out[m] = out[m] + c if m in out else c
        self.terms = {m: c for m, c in out.items() if c}

    def _new(self, terms):
        """An element of self's algebra; `terms` holds no zero coefficient."""
        out = object.__new__(CliffordElement)
        out.n, out.field, out.terms = self.n, self.field, terms
        return out

    def _nonzero(self, terms):
        """An element of self's algebra from terms that may hold zeros."""
        return self._new({m: c for m, c in terms.items() if c})

    @classmethod
    def zero(cls, n, field):
        return cls(n, field)

    @classmethod
    def scalar(cls, n, field, c):
        return cls(n, field, {(): c})

    @classmethod
    def e(cls, n, field, i):
        return cls(n, field, {(i,): 1})

    @classmethod
    def blade(cls, n, field, indices, c=1):
        return cls(n, field, {tuple(indices): c})

    def is_zero(self):
        return not self.terms

    def coeff(self, blade):
        return self.terms.get(_mask(blade, self.n), _ZERO[self.field])

    def _check(self, other):
        if self.n != other.n or self.field != other.field:
            raise DimensionMismatch(f"Cl({self.field}^{self.n}) vs "
                                    f"Cl({other.field}^{other.n})")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return self._nonzero(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c0 = _coefficient(self.field, other)
            return self._nonzero({m: c * c0 for m, c in self.terms.items()})
        self._check(other)
        # q(b) once per right-hand blade; the sign of e_a e_b is the parity
        # of a & q(b)
        right = [(b, _prefix_parity(b, self.n), cb)
                 for b, cb in other.terms.items()]
        out = {}
        for a, ca in self.terms.items():
            for b, q, cb in right:
                c = ca * cb
                if (a & q).bit_count() & 1:
                    c = -c
                m = a ^ b
                out[m] = out[m] + c if m in out else c
        return self._nonzero(out)

    __rmul__ = __mul__

    def grade_part(self, r):
        return self._new({m: c for m, c in self.terms.items()
                          if m.bit_count() == r})

    def even_part(self):
        return self._new({m: c for m, c in self.terms.items()
                          if m.bit_count() % 2 == 0})

    def odd_part(self):
        return self._new({m: c for m, c in self.terms.items()
                          if m.bit_count() % 2 == 1})

    def alpha(self):
        """The grading automorphism extending v -> -v."""
        return self._new({m: (-c if m.bit_count() % 2 else c)
                          for m, c in self.terms.items()})

    def coefficient_vector(self, blades):
        return [self.coeff(b) for b in blades]

    def __eq__(self, other):
        return (isinstance(other, CliffordElement) and self.n == other.n
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.field, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=lambda m: (m.bit_count(), _blade(m))):
            name = "".join(f"e{i}" for i in _blade(m)) or "1"
            bits.append(f"{self.terms[m]}*{name}")
        return " + ".join(bits)


def all_blades(n):
    return sorted(map(_blade, range(1 << n)), key=lambda t: (len(t), t))


def volume_element(n, field):
    """omega = e_1 ... e_n, with the i^[n(n-1)/2] prefactor over C."""
    if n < 1:
        raise ValueError("need n >= 1")
    blade = tuple(range(1, n + 1))
    if field == "R":
        return CliffordElement(n, "R", {blade: 1})
    k = (n * (n - 1) // 2) % 4
    pref = (GR_ONE, GR_I, -GR_ONE, -GR_I)[k]
    return CliffordElement(n, "C", {blade: pref})


def _doubled_projector(sign, n, field):
    """2 pi^{+-} = 1 +- omega, defined when omega^2 = 1.  The suites state
    their identities with it, so they stay on integer coefficients."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    w = volume_element(n, field)
    one = CliffordElement.scalar(n, field, 1)
    if w * w != one:
        raise NotSplitting(f"omega^2 != 1 in Cl({field}^{n})")
    return one + (w if sign > 0 else -w)


def projector(sign, n, field="C"):
    """pi^{+-} = (1 +- omega)/2, half of `_doubled_projector`."""
    return _doubled_projector(sign, n, field) * Fraction(1, 2)


# ---- exact matrices ------------------------------------------------------

class ExactMatrix:
    """Square matrix over the Gaussian rationals."""

    __slots__ = ("size", "rows")

    def __init__(self, rows):
        self.rows = tuple(tuple(_coerce(x) for x in r) for r in rows)
        self.size = len(self.rows)
        if any(len(r) != self.size for r in self.rows):
            raise ValueError("matrix must be square")

    @staticmethod
    def _new(rows):
        """A matrix from square rows of GaussianRational entries, taken as
        they are."""
        out = object.__new__(ExactMatrix)
        out.rows = tuple(map(tuple, rows))
        out.size = len(out.rows)
        return out

    @classmethod
    def identity(cls, n):
        return cls._new([[GR_ONE if i == j else GR_ZERO for j in range(n)]
                         for i in range(n)])

    @classmethod
    def zero(cls, n):
        return cls._new([[GR_ZERO] * n for _ in range(n)])

    def __add__(self, other):
        return ExactMatrix._new([[a + b for a, b in zip(r1, r2)]
                                 for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = _coerce(other)
            return ExactMatrix._new([[x * c for x in r] for r in self.rows])
        # only nonzero entries meet: the mu images are signed monomial
        support = [[(j, b) for j, b in enumerate(r) if b] for r in other.rows]
        out = []
        for r in self.rows:
            acc = [GR_ZERO] * self.size
            for a, bs in zip(r, support):
                if a:
                    for j, b in bs:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return ExactMatrix._new(out)

    __rmul__ = __mul__

    def __neg__(self):
        return ExactMatrix._new([[-x for x in r] for r in self.rows])

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def kron(self, other):
        n, m = self.size, other.size
        return ExactMatrix._new([[self.rows[i // m][j // m] * other.rows[i % m][j % m]
                                  for j in range(n * m)] for i in range(n * m)])

    def flatten(self):
        return [x for r in self.rows for x in r]

    def __repr__(self):
        return f"ExactMatrix({[[repr(x) for x in r] for r in self.rows]})"


def vector_rank(vectors):
    """Rank over the Gaussian rationals, by forward elimination."""
    rows = [[_coerce(x) for x in r] for r in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        inv = GR_ONE / pr[col]
        for row in rows[rank + 1:]:
            if row[col]:
                # pr is zero left of col, so those columns stay cleared
                f = row[col] * inv
                row[col:] = [a - f * b for a, b in zip(row[col:], pr[col:])]
        rank += 1
    return rank


# ---- the explicit 4x4 complex model --------------------------------------

def _mu_generators():
    i = GR_I
    a1 = ExactMatrix([[i, 0], [0, -i]])
    a2 = ExactMatrix([[0, 1], [-1, 0]])
    a3 = ExactMatrix([[1, 0], [0, 1]])
    b12 = ExactMatrix([[0, i], [-i, 0]])
    b3 = ExactMatrix([[0, i], [i, 0]])
    b4 = ExactMatrix([[i, 0], [0, -i]])
    return [a1.kron(b12), a2.kron(b12), a3.kron(b3), a3.kron(b4)]


@functools.cache
def _mu_blade(mask):
    """mu of a basis blade of Cl(C^4), its generator images multiplied in
    index order, as the 4 entries (i, j, value) of a signed monomial matrix."""
    if not mask:
        return tuple((i, i, GR_ONE) for i in range(4))
    top = mask.bit_length() - 1
    gen = _mu_generators()[top].rows
    return tuple((i, k, a * b) for i, j, a in _mu_blade(mask ^ (1 << top))
                 for k, b in enumerate(gen[j]) if b)


def mu_map(x):
    """The algebra isomorphism Cl(C^4) -> Mat(C, 4) on an element."""
    if x.n != 4 or x.field != "C":
        raise DimensionMismatch("mu is defined on Cl(C^4)")
    out = [[GR_ZERO] * 4 for _ in range(4)]
    for mask, c in x.terms.items():
        for i, j, v in _mu_blade(mask):
            out[i][j] = out[i][j] + v * c
    return ExactMatrix._new(out)


# ---- Hodge star ------------------------------------------------------------

def hodge_star(blade, n=4):
    """*(e_S) = sign * e_{S^c}; sign is the permutation sign of (S, S^c)."""
    mask = _mask(blade, n)
    comp = ((1 << n) - 1) ^ mask
    # no index is repeated, so the sign of e_S e_{S^c} is that of (S, S^c)
    return _blade_mul(mask, comp)[0], _blade(comp)


# ---- verification suites ----------------------------------------------------

Check = namedtuple("Check", "description ok")


class VerificationReport(namedtuple("VerificationReport", "name checks")):
    __slots__ = ()

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]


def _verify_cliffmult():
    checks = []
    blades = all_blades(4)
    basis = [CliffordElement(4, "C", {b: 1}) for b in blades]
    images = [mu_map(x) for x in basis]
    hom_ok = all(mu_map(x * y) == mx * my for x, mx in zip(basis, images)
                 for y, my in zip(basis, images))
    checks.append(Check("mu(xy) = mu(x)mu(y) on all 256 basis pairs", hom_ok))
    checks.append(Check("mu has rank 16 on the 16 basis blades",
                        vector_rank([m.flatten() for m in images]) == 16))
    checks.append(Check("mu(1) = I4", images[0] == ExactMatrix.identity(4)))
    e1 = mu_map(CliffordElement.e(4, "C", 1))
    checks.append(Check("mu(e1)^2 = -I4",
                        e1 * e1 == -ExactMatrix.identity(4)))
    return VerificationReport("cliffmult", tuple(checks))


def _quaternion_images():
    """The unhalved images of 1, i, j, k in each summand: u = 2*1 = 1 +- omega,
    2i, 2j and 4k; so q^2 = -1 reads (2i)^2 = (2j)^2 = -2u and
    (4k)^2 = -8u."""
    e = lambda *idx: CliffordElement.blade(3, "R", idx)
    sides = []
    for sign in (1, -1):
        side = {"1": _doubled_projector(sign, 3, "R"),
                "i": e(1, 2) - e(3) * sign,
                "j": e(2, 3) - e(1) * sign}
        side["k"] = side["i"] * side["j"]
        sides.append(side)
    return sides


def _verify_cliff3():
    checks = []
    plus, minus = _quaternion_images()
    for label, side in (("H+", plus), ("H-", minus)):
        unit = side["1"]
        checks.append(Check(f"{label}: unit idempotent",
                            unit * unit == unit * 2))
        for q, square in (("i", -2), ("j", -2), ("k", -8)):
            x = side[q]
            checks.append(Check(f"{label}: {q}^2 = -1",
                                x * x == unit * square))
            checks.append(Check(f"{label}: 1*{q} = {q}",
                                unit * x == x * 2 and x * unit == x * 2))
        checks.append(Check(f"{label}: ij = k, ji = -k",
                            side["i"] * side["j"] == side["k"]
                            and side["j"] * side["i"] == -side["k"]))
    zero = CliffordElement.zero(3, "R")
    cross_ok = all((plus[a] * minus[b] == zero and minus[b] * plus[a] == zero)
                   for a in "1ijk" for b in "1ijk")
    checks.append(Check("H+ and H- annihilate each other", cross_ok))
    blades = all_blades(3)
    vecs = [x.coefficient_vector(blades)
            for x in list(plus.values()) + list(minus.values())]
    checks.append(Check("the eight images span Cl(R^3) (rank 8)",
                        vector_rank(vecs) == 8))
    w = volume_element(3, "R")
    checks.append(Check("H+ lands in the pi^+ summand",
                        all(plus["1"] * plus[q] == plus[q] * 2
                            for q in "1ijk")))
    checks.append(Check("omega^2 = 1 in Cl(R^3)",
                        w * w == CliffordElement.scalar(3, "R", 1)))
    return VerificationReport("cliff3", tuple(checks))


def _even_embedding(n, field):
    """f: Cl(K^(n-1)) -> Cl(K^n), e_i -> e_i e_n extended multiplicatively.
    The image of each basis blade is built once, as the product of its
    generator images in ascending index order; f extends them linearly."""
    images = [CliffordElement.scalar(n, field, 1)]   # indexed by blade mask
    for i in range(1, n):
        g = CliffordElement.blade(n, field, (i, n))
        images += [img * g for img in images]   # the masks with top bit i - 1

    def f(x):
        out = {}
        for mask, c in x.terms.items():
            for m, d in images[mask].terms.items():
                out[m] = out[m] + c * d if m in out else c * d
        return images[0]._nonzero(out)
    return f


def _verify_cliffm1():
    checks, maps = [], {}
    for n, field in ((4, "R"), (3, "R"), (4, "C")):
        f = maps[n, field] = _even_embedding(n, field)
        m = n - 1
        blades = all_blades(m)
        basis = [CliffordElement(m, field, {b: 1}) for b in blades]
        hom_ok = all(f(x * y) == f(x) * f(y) for x in basis for y in basis)
        checks.append(Check(f"e_i -> e_i e_{n} multiplicative on Cl({field}^{m})",
                            hom_ok))
        big = all_blades(n)
        vecs = [f(x).coefficient_vector(big) for x in basis]
        checks.append(Check(f"image has rank 2^{m} in Cl({field}^{n})",
                            vector_rank(vecs) == 2 ** m))
        even_ok = all(f(x).odd_part().is_zero() for x in basis)
        checks.append(Check(f"image lies in the even part Cl_0({field}^{n})",
                            even_ok))
    # the map matches the two volume elements in the 3 -> 4 real case
    checks.append(Check("omega of Cl(R^3) maps to omega of Cl(R^4)",
                        maps[4, "R"](volume_element(3, "R"))
                        == volume_element(4, "R")))
    return VerificationReport("cliffm1", tuple(checks))


def _verify_cliffiso():
    checks = []
    # (C^4)^+- is the image of P+- = mu(1 +- omega) = 2 mu(pi^+-)
    pp, pm = (mu_map(_doubled_projector(sign, 4, "C")) for sign in (1, -1))
    checks.append(Check("dim (C^4)^+ = 2", vector_rank(pp.rows) == 2))
    checks.append(Check("dim (C^4)^- = 2", vector_rank(pm.rows) == 2))
    checks.append(Check("pi^+ + pi^- = 1",
                        pp + pm == ExactMatrix.identity(4) * 2))
    checks.append(Check("pi^+ pi^- = 0", pp * pm == ExactMatrix.zero(4)))
    gens = [mu_map(CliffordElement.e(4, "C", i)) for i in (1, 2, 3, 4)]
    # f -> f P embeds Hom((C^4)^+-, C^4) in Mat(4, C); f P lands in the
    # image of the projector Q iff Q f P = 2 f P
    on_plus, on_minus = [m * pp for m in gens], [m * pm for m in gens]
    plus_ok = all(pm * m == m * 2 for m in on_plus)
    minus_ok = all(pp * m == m * 2 for m in on_minus)
    checks.append(Check("Clifford multiplication swaps (C^4)^+ and (C^4)^-",
                        plus_ok and minus_ok))
    checks.append(Check("C^4 -> Hom((C^4)^+, (C^4)^-) is injective (rank 4)",
                        plus_ok and vector_rank(m.flatten()
                                                for m in on_plus) == 4))
    checks.append(Check("C^4 -> Hom((C^4)^-, (C^4)^+) is injective (rank 4)",
                        minus_ok and vector_rank(m.flatten()
                                                 for m in on_minus) == 4))
    return VerificationReport("cliffiso", tuple(checks))


def _verify_endiso():
    checks = []
    blades = all_blades(4)
    even = [b for b in blades if len(b) % 2 == 0]
    for sign, label in ((1, "+"), (-1, "-")):
        proj = _doubled_projector(sign, 4, "C")
        elems = [proj * CliffordElement(4, "C", {b: 1}) for b in even]
        dim = vector_rank([x.coefficient_vector(blades) for x in elems])
        checks.append(Check(f"dim Cl_0^{label}(C^4) = 4", dim == 4))
        # as in cliffiso: M restricted to (C^4)^+- is M P, P = mu(1 +- omega)
        p = mu_map(proj)
        restricted = [mu_map(x) * p for x in elems]
        closed = all(p * m == m * 2 for m in restricted)
        checks.append(Check(f"Cl_0^{label} preserves (C^4)^{label}", closed))
        checks.append(Check(f"Cl_0^{label} -> End((C^4)^{label}) surjective "
                            f"(rank 4)", closed and vector_rank(
                                m.flatten() for m in restricted) == 4))
    return VerificationReport("endiso", tuple(checks))


HODGE_TABLE_4 = (
    ((1, 2), 1, (3, 4)),
    ((1, 3), -1, (2, 4)),
    ((1, 4), 1, (2, 3)),
    ((2, 3), 1, (1, 4)),
    ((2, 4), -1, (1, 3)),
    ((3, 4), 1, (1, 2)),
)


def _verify_extcliff():
    checks = []
    for blade, sign, comp in HODGE_TABLE_4:
        s, c = hodge_star(blade, 4)
        checks.append(Check(f"*(e{blade[0]}^e{blade[1]}) = "
                            f"{'-' if sign < 0 else ''}e{comp[0]}^e{comp[1]}",
                            (s, c) == (sign, comp)))
    invol = all(hodge_star(c, 4) == (s, b) for b, _, _ in HODGE_TABLE_4
                for s, c in [hodge_star(b, 4)])
    checks.append(Check("** = id on Lambda^2(R^4)", invol))
    # eigenspace split of Lambda^2 under the star
    two_blades = [b for b in all_blades(4) if len(b) == 2]
    plus_vecs, minus_vecs = [], []
    for b in two_blades:
        s, c = hodge_star(b, 4)
        x = CliffordElement.blade(4, "R", b)
        star = CliffordElement.blade(4, "R", c, s)
        plus_vecs.append((x + star).coefficient_vector(two_blades))
        minus_vecs.append((x - star).coefficient_vector(two_blades))
    checks.append(Check("dim Lambda^+ = 3", vector_rank(plus_vecs) == 3))
    checks.append(Check("dim Lambda^- = 3", vector_rank(minus_vecs) == 3))
    # the stated basis of (Cl_0(R^4) (x) C)^+ is fixed by pi^+ and
    # independent; with 2 pi^+ = 1 + omega in place of pi^+, 2 pi^+ x = 2x
    pi_plus = _doubled_projector(1, 4, "C")
    e = lambda *idx: CliffordElement.blade(4, "C", idx)
    basis = [pi_plus,
             e(1, 2) + e(3, 4), e(1, 3) - e(2, 4), e(1, 4) + e(2, 3)]
    fixed = all(pi_plus * x == x * 2 for x in basis)
    checks.append(Check("pi^+ fixes {pi^+, e1e2+e3e4, e1e3-e2e4, e1e4+e2e3}",
                        fixed))
    blades = all_blades(4)
    checks.append(Check("that basis is linearly independent (rank 4)",
                        vector_rank([x.coefficient_vector(blades)
                                     for x in basis]) == 4))
    even = all(x.odd_part().is_zero() for x in basis)
    checks.append(Check("basis lies in the even part", even))
    return VerificationReport("extcliff", tuple(checks))


def _rational_unit_vectors(rng, count):
    """Unit vectors in R^4 from squared integer quaternions, as pairs (w, N):
    w an integer vector of Euclidean norm N, so w / N is the unit vector."""
    out = []
    while len(out) < count:
        q = [rng.randint(-5, 5) for _ in range(4)]
        norm = sum(x * x for x in q)
        if norm == 0:
            continue
        a, b, c, d = q
        vec = [a * a - b * b - c * c - d * d, 2 * a * b, 2 * a * c, 2 * a * d]
        rng.shuffle(vec)  # coordinate permutations keep the norm
        out.append((tuple(vec), norm))
    return out


SPIN4_SAMPLES, SPIN4_SEED = 200, 7


def _spin4_samples():
    """The seeded even products: for each, its k = 2 or 4 pairs (w, N)."""
    rng = random.Random(SPIN4_SEED)
    for _ in range(SPIN4_SAMPLES):
        yield _rational_unit_vectors(rng, rng.choice((2, 4)))


_E4 = [CliffordElement.e(4, "R", i) for i in (1, 2, 3, 4)]


def _spin4_adjoint(pairs):
    """(s, s * Ad_phi) for phi = v_1 ... v_k with v_j = w_j / N_j, where
    s = prod N_j^2; None when some (-w_j) w_j != N_j^2 or Ad_phi moves
    some e_i off R^4.

    Over the integers: psi = w_1 ... w_k = phi * prod N_j, and the integer
    form of phi^-1 = (-v_k) ... (-v_1) (v^-1 = -v for unit v, checked) is
    psi' = (-w_k) ... (-w_1), so psi e psi' = s * Ad_phi(e).  The matrix's
    column i is the image of e_i.  With every product even, psi' is the
    same without the signs, so only the check sees a wrong inverse.
    """
    psi = psi_inv = CliffordElement.scalar(4, "R", 1)
    s = 1
    for w, norm in pairs:
        elem = psi._new({1 << i: w[i] for i in range(4) if w[i]})
        inv = -elem
        if (inv * elem).terms != {0: norm * norm}:
            return None
        psi = psi * elem
        psi_inv = inv * psi_inv
        s *= norm * norm
    cols = []
    for e in _E4:
        terms = (psi * e * psi_inv).terms
        if any(m.bit_count() != 1 for m in terms):
            return None
        cols.append([terms.get(1 << i, 0) for i in range(4)])
    return s, [[cols[j][i] for j in range(4)] for i in range(4)]


def _verify_spin4_adjoint():
    ok_space = ok_orth = ok_det = True
    for pairs in _spin4_samples():
        found = _spin4_adjoint(pairs)
        if found is None:
            ok_space = False
            break
        # M = s A: A is orthogonal with det 1 iff M^T M = s^2 I, det M = s^4;
        # M^T M is the Gram matrix of M's columns
        s, m = found
        cols = list(zip(*m))
        if not all(sum(x * y for x, y in zip(cols[a], cols[b]))
                   == (s * s if a == b else 0)
                   for a in range(4) for b in range(a, 4)):
            ok_orth = False
            break
        if _int_det(m) != s ** 4:
            ok_det = False
            break
    checks = (
        Check(f"Ad_phi preserves R^4 ({SPIN4_SAMPLES} random even products)",
              ok_space),
        Check("Ad_phi preserves the Euclidean inner product",
              ok_space and ok_orth),
        Check("Ad_phi has determinant 1", ok_space and ok_orth and ok_det))
    return VerificationReport("spin4-adjoint", checks)


_SUITES = {
    "cliffmult": _verify_cliffmult,
    "cliff3": _verify_cliff3,
    "cliffm1": _verify_cliffm1,
    "cliffiso": _verify_cliffiso,
    "endiso": _verify_endiso,
    "extcliff": _verify_extcliff,
    "spin4-adjoint": _verify_spin4_adjoint,
}


def verify_iso(which):
    """Run one verification suite; returns a VerificationReport."""
    if which not in _SUITES:
        raise UnknownSuite(f"unknown suite {which!r}; "
                           f"choose from {', '.join(sorted(_SUITES))}")
    return _SUITES[which]()


def verify_all():
    return [verify_iso(name) for name in _SUITES]
