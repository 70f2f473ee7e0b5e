"""Multivariable Laurent polynomials over Z.

Polynomials live in Z[t1^{+-1}, ..., tr^{+-1}] and are stored as a map from
exponent vectors (length-r integer tuples) to nonzero integer coefficients.
Unit normalization fixes the +-t^n ambiguity of Alexander-type invariants:
the canonical representative of a class has minimum exponent 0 in every
variable and positive coefficient on its lexicographically greatest term.

Eliminations also have a dense form, the coefficient arrays of Z[t], into
which a matrix of any rank is Kronecker-packed: this module holds their one
set of helpers (arithmetic, content and primitive part, exact division,
evaluation, packing and unpacking, and the pseudo-remainder row operation),
which the rank-1 gcd here and the eliminations in polymat share.
"""

from collections import namedtuple
from functools import cache
from math import gcd
from operator import gt, le, mul, sub

# Bound on the length of a Kronecker-packed box (_strides), about 80 MB as
# an array; above every rank-1 length within twistedalex.MAX_TWIST_DEGREE.
MAX_PACKED_LENGTH = 10**7


class RankMismatch(ValueError):
    """Operands live in Laurent rings of different ranks."""


class UnsupportedRank(ValueError):
    """Operation restricted to small ring rank."""


class NotSymmetrizable(ValueError):
    """No representative satisfies the palindrome condition."""


class _MinusInfinity:
    """Degree of the zero polynomial; ordered below every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("cannot negate -infinity degree")

    def __repr__(self):
        return "-oo"


MINUS_INFINITY = _MinusInfinity()


class LaurentPoly:
    """An element of Z[t1^{+-1}, ..., tr^{+-1}]."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        self.rank = rank
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != rank:
                raise RankMismatch(f"exponent vector {exps} in rank-{rank} ring")
            c = int(c)
            if c:
                clean[exps] = clean.get(exps, 0) + c
                if not clean[exps]:
                    del clean[exps]
        self.terms = clean

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, rank):
        return cls(rank)

    @classmethod
    def const(cls, rank, c):
        return cls(rank, {(0,) * rank: c})

    @classmethod
    def one(cls, rank):
        return cls.const(rank, 1)

    @classmethod
    def monomial(cls, rank, exps, coeff=1):
        return cls(rank, {tuple(exps): coeff})

    @classmethod
    def var(cls, rank, i=0):
        exps = [0] * rank
        exps[i] = 1
        return cls(rank, {tuple(exps): 1})

    # ---- basic queries ------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_unit(self):
        """True for +-(single monomial with coefficient 1)."""
        return len(self.terms) == 1 and abs(next(iter(self.terms.values()))) == 1

    def support(self):
        return self.terms.keys()

    def coeff(self, exps):
        return self.terms.get(tuple(exps), 0)

    def min_exp(self, i):
        return min(e[i] for e in self.terms)

    def max_exp(self, i):
        return max(e[i] for e in self.terms)

    def leading(self):
        """(exponents, coefficient) of the lexicographically greatest term."""
        e = max(self.terms)
        return e, self.terms[e]

    # ---- arithmetic ---------------------------------------------------
    def _check(self, other):
        if self.rank != other.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(self.rank, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(self.rank, out)

    def __neg__(self):
        return LaurentPoly(self.rank, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.rank, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(self.rank, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = LaurentPoly.one(self.rank)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, exps):
        """Multiply by the monomial t^exps."""
        exps = tuple(exps)
        return LaurentPoly(self.rank,
                           {tuple(a + b for a, b in zip(e, exps)): c
                            for e, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, LaurentPoly) and self.rank == other.rank
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __repr__(self):
        return f"LaurentPoly({render_poly(self)!r})"


def laurent_degree(p):
    """Width of the support of a single-variable Laurent polynomial."""
    if p.rank != 1:
        raise RankMismatch("Laurent degree needs a rank-1 ring")
    if p.is_zero():
        return MINUS_INFINITY
    return p.max_exp(0) - p.min_exp(0)


# ---- unit normalization ----------------------------------------------

def normalize_unit(p):
    """Canonical representative of p modulo +-monomials."""
    if p.is_zero():
        return p
    shift = tuple(-p.min_exp(i) for i in range(p.rank))
    q = p.shift(shift)
    _, lead = q.leading()
    if lead < 0:
        q = -q
    return q


class UnitClass(namedtuple("UnitClass", "representative")):
    """A Laurent polynomial up to multiplication by +-monomials."""

    __slots__ = ()

    def __new__(cls, poly):
        return super().__new__(cls, normalize_unit(poly))

    @property
    def rank(self):
        return self.representative.rank

    def is_zero(self):
        return self.representative.is_zero()

    def __str__(self):
        return render_poly(self.representative)


# ---- exact division ---------------------------------------------------

def div_exact(f, g):
    """f / g in the Laurent ring, or None when g does not divide f.

    Packed over f's box and divided by _divexact.  A true quotient lies in
    [lo_f - lo_g, hi_f - hi_g], and one there is true: g*q lies in f's box,
    where packing is one to one.  Unpacking never goes below lo_f - lo_g."""
    if f.rank != g.rank:
        raise RankMismatch("division across rings")
    if g.is_zero():
        return None
    if f.is_zero():
        return LaurentPoly.zero(f.rank)
    fcols, gcols = list(zip(*f.terms)), list(zip(*g.terms))
    lo_f, lo_g = [min(c) for c in fcols], [min(c) for c in gcols]
    hi = [max(a) - max(b) for a, b in zip(fcols, gcols)]
    shift = list(map(sub, lo_f, lo_g))
    if any(map(gt, shift, hi)):
        return None
    strides = _strides([max(c) - x for c, x in zip(fcols, lo_f)])
    q = _divexact(_packed(f, strides, lo_f), _packed(g, strides, lo_g))
    if q is None:
        return None
    q = _arr_to_poly(q, shift, strides)
    return q if all(map(le, map(max, zip(*q.terms)), hi)) else None


# ---- coefficient arrays ------------------------------------------------
#
# An element of Z[t] as a list of ints, lowest degree first; [] is zero and
# a nonzero array ends in a nonzero entry.  The single-variable gcd below and
# every elimination in polymat run on arrays; LaurentPoly values cross over
# through _pack and _arr_to_poly.

def _strides(spans):
    """Kronecker strides S_1 = 1, S_(i+1) = S_i (span_i + 1) for the box
    [0, span_i] in each t_i, refused with UnsupportedRank before anything
    is allocated when it holds more than MAX_PACKED_LENGTH coefficients."""
    strides = [1]
    for span in spans:
        strides.append(strides[-1] * (span + 1))
    size = strides.pop()
    if size > MAX_PACKED_LENGTH:
        raise UnsupportedRank(f"packed polynomial box of {size} coefficients "
                              f"exceeds the bound of {MAX_PACKED_LENGTH}")
    return strides


def _packed(p, strides, lo):
    """The array of t^-lo * p under t_i -> t^S_i, for p nonzero with
    exponents at least lo."""
    base = sum(map(mul, lo, strides))
    keys = [sum(map(mul, e, strides)) - base for e in p.terms]
    a = [0] * (max(keys) + 1)
    for k, c in zip(keys, p.terms.values()):
        a[k] = c
    return a


def _pack(M, rank):
    """Rows of Z[t] arrays for a matrix over Z[t1^{+-1}, ..., tr^{+-1}].

    Row r is multiplied by t^-lo_r, lo_r[i] = min(0, the least exponent of
    t_i in the row), then t_i -> t^S_i with the strides of the box whose
    span in t_i is the sum of the rows' spans in t_i.  Returns the rows, S
    and the sum of the lo_r.  Packing is a ring map, so exact divisions
    stay exact, and it is one to one on that box, where every minor of the
    shifted rows lies.
    """
    los, spans = [], [0] * rank
    for row in M:
        cols = list(zip(*(e for p in row for e in p.terms))) or [(0,)] * rank
        lo = [min(0, *c) for c in cols]
        spans = [s + max(c) - x for s, c, x in zip(spans, cols, lo)]
        los.append(lo)
    strides = _strides(spans)
    rows = [[_packed(p, strides, lo) if p.terms else [] for p in row]
            for row, lo in zip(M, los)]
    return rows, strides, [sum(c) for c in zip([0] * rank, *los)]


def _arr_to_poly(a, shift=(0,), strides=(1,)):
    """The LaurentPoly t^shift * q for the array a of q packed by strides
    (see _pack); with the defaults, the rank-1 LaurentPoly a."""
    terms = {}
    for n, c in enumerate(a):
        if c:
            exps = []
            for s in reversed(strides):
                e, n = divmod(n, s)
                exps.append(e)
            terms[tuple(e + x for e, x in zip(reversed(exps), shift))] = c
    return LaurentPoly(len(strides), terms)


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _sub(a, b):
    out = a + [0] * (len(b) - len(a))
    out[:len(b)] = map(sub, out, b)
    return _trim(out)


def _mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return _trim(out)


def _scale(a, c):
    return [] if c == 0 else [c * x for x in a]


def _prim(a):
    """Primitive part with a positive leading coefficient; [] for []."""
    if not a:
        return []
    g = gcd(*a)
    return [c // g for c in a] if a[-1] > 0 else [c // -g for c in a]


def _divexact(a, b):
    """a / b in Z[t] for b nonzero, or None when not exactly divisible: one
    descending pass that clears each position of a at or above b's degree."""
    top = len(b) - 1
    if len(a) <= top:
        return None if a else []
    r = list(a)
    q = [0] * (len(a) - top)
    lb = b[-1]
    terms = [(i, y) for i, y in enumerate(b[:-1]) if y]
    for off in range(len(q) - 1, -1, -1):
        c = r[off + top]
        if c:
            if c % lb:
                return None
            c //= lb
            q[off] = c
            for i, y in terms:
                r[off + i] -= c * y
    return None if any(r[:top]) else q


@cache
def _cyclotomic(d):
    """The cyclotomic polynomial Phi_d as an array: z^d - 1 divided exactly
    by Phi_e for every proper divisor e of d.  Memoized, so callers only
    read it."""
    a = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            a = _divexact(a, _cyclotomic(e))
    return a


def _eval(a, x):
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _pseudo_reduce(row, base, c):
    """Reduce row[c] to degree below base[c] by row operations, in place.

    A row is a list of arrays.  The caller owns `row`: its arrays are
    updated in place (none may be shared with `base` or another live row),
    and `base` is only read.  Each step scales the row by the least integer
    that makes its leading coefficient in column c divisible by that of
    base[c], lb // gcd(lead, lb), then subtracts q t^k times base to cancel
    the leading term, at the nonzero coefficients of base only, so a sparse
    entry such as 1 - t^1000 costs its two terms and not its degree.
    Returns `row`.
    """
    b = base[c]
    lb = b[-1]
    a = row[c]
    cols = [(e, len(f), [(i, x) for i, x in enumerate(f) if x])
            for e, f in zip(row, base) if f]
    while a and len(a) >= len(b):
        s = lb // gcd(a[-1], lb)
        if s != 1:
            for e in row:
                for i in range(len(e)):
                    e[i] *= s
        q, k = a[-1] // lb, len(a) - len(b)
        for e, top, terms in cols:
            if len(e) < k + top:
                e.extend([0] * (k + top - len(e)))
            for i, x in terms:
                e[k + i] -= q * x
            _trim(e)
    return row


def _prime_to(n, m):
    """The largest divisor of the nonzero integer n prime to m."""
    g = gcd(n, m)
    while g > 1:
        n //= g
        g = gcd(n, g)
    return n


def _strip_content(row, f=None):
    """Divide a row of arrays, in place, by its integer content, or with f
    given by the part of the content prime to f."""
    g = 0
    for e in row:
        for c in e:
            g = gcd(g, c)
            if g == 1:
                return row
    if g and f is not None:
        g = _prime_to(g, f)
    if g > 1:
        for e in row:
            for i in range(len(e)):
                e[i] //= g
    return row


# ---- gcd ---------------------------------------------------------------

def _int_poly_gcd(a, b):
    """Gcd in Z[t] of two arrays, with a positive leading coefficient.

    Primitive Euclid: the gcd of the contents times the primitive gcd, whose
    remainders come from _pseudo_reduce on one-entry rows.
    """
    a, b = _trim(list(a)), _trim(list(b))
    if not a or not b:
        g = a or b
        return _scale(g, -1) if g and g[-1] < 0 else g
    content = gcd(*a, *b)
    a, b = _prim(a), _prim(b)
    while b:
        if len(a) < len(b):
            a, b = b, a
        a, b = b, _prim(_pseudo_reduce([a], [b], 0)[0])
    return _scale(a, content)


def _content_pp(parts):
    """Content and primitive part of a map {exponent of t_r: coefficient}.

    The content is the gcd of the coefficients, folded until it is a unit,
    times their least monomial; the primitive part has exponents shifted to
    start at 0 and every coefficient divided exactly by the content, which
    checks that gcd.
    """
    coeffs = iter(parts.values())
    cont = next(coeffs)
    for c in coeffs:
        if cont.is_unit():
            break
        cont = _gcd_poly(cont, c)
    # without the monomial, each PRS step's scaling by a lead would move the
    # exponents away from 0 and widen the rank-1 gcds' packed arrays
    low = map(min, zip(*(e for c in parts.values() for e in c.terms)))
    cont = cont.shift(map(sub, low, map(min, zip(*cont.terms))))
    lo = min(parts)
    pp = {d - lo: div_exact(c, cont) for d, c in parts.items()}
    if None in pp.values():
        raise AssertionError("gcd verification failed")
    return cont, pp


def _gcd_poly(a, b):
    """A gcd of a and b in Z[t1^{+-1},...] of rank >= 1, not normalized.

    Rank 1 runs on arrays.  Rank r >= 2 views each operand as a map
    {exponent of t_r: rank r-1 coefficient}; the gcd is the gcd of the
    contents times the last nonzero remainder of the primitive PRS in t_r.
    """
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.rank == 1:
        return _arr_to_poly(_int_poly_gcd(*_pack([[a, b]], 1)[0][0]))
    zero = LaurentPoly.zero(a.rank - 1)
    split = []
    for p in (a, b):
        parts = {}
        for e, c in p.terms.items():
            parts.setdefault(e[-1], {})[e[:-1]] = c
        split.append(_content_pp({d: LaurentPoly(a.rank - 1, terms)
                                  for d, terms in parts.items()}))
    (cont_a, fa), (cont_b, fb) = split
    while fb:
        if max(fa) < max(fb):
            fa, fb = fb, fa
        # pseudo-remainder of fa by fb in t_r: scale by fb's lead, cancel
        db = max(fb)
        lb = fb[db]
        r = dict(fa)
        while r and max(r) >= db:
            top = max(r)
            q = r[top]
            r = {d: c * lb for d, c in r.items()}
            for d, c in fb.items():
                sd = top - db + d
                r[sd] = r.get(sd, zero) - q * c
                if r[sd].is_zero():
                    del r[sd]
        fa, fb = fb, _content_pp(r)[1] if r else {}
    cont = _gcd_poly(cont_a, cont_b)
    return LaurentPoly(a.rank, {e + (d,): c for d, f in fa.items()
                                for e, c in (cont * f).terms.items()})


def lp_gcd(a, b):
    """Greatest common divisor in Z[F], unit-normalized.

    The multivariable case reduces to univariate gcds over the last variable
    (content/primitive-part recursion); the result is verified by exact
    division into both inputs.
    """
    if a.rank != b.rank:
        raise RankMismatch("gcd across rings")
    if a.rank > 3:
        raise UnsupportedRank("gcd implemented for rank <= 3")
    g = _gcd_poly(a, b)
    if not g.is_zero():
        if div_exact(a, g) is None or div_exact(b, g) is None:
            raise AssertionError("gcd verification failed")
    return UnitClass(g)


def lp_gcd_many(polys, rank):
    """Gcd of an iterable of rank-`rank` polynomials; stops at the first unit."""
    acc = LaurentPoly.zero(rank)
    for p in polys:
        acc = lp_gcd(acc, p).representative
        if acc.is_unit():
            break
    return UnitClass(acc)


# ---- symmetric representatives -----------------------------------------

# q with q(t) = sign * t^(lo+hi) * q(1/t)
SymmetricRepresentative = namedtuple("SymmetricRepresentative", "poly sign")


def symmetric_representative(p):
    """The (anti)symmetric representative of a rank-1 unit class."""
    rep = p.representative if isinstance(p, UnitClass) else normalize_unit(p)
    if rep.rank != 1:
        raise RankMismatch("symmetric representative needs rank 1")
    if rep.is_zero():
        return SymmetricRepresentative(rep, 1)
    d = rep.max_exp(0)
    coeffs = [rep.coeff((i,)) for i in range(d + 1)]
    if all(coeffs[i] == coeffs[d - i] for i in range(d + 1)):
        sign = 1
    elif all(coeffs[i] == -coeffs[d - i] for i in range(d + 1)):
        sign = -1
    else:
        raise NotSymmetrizable(render_poly(rep))
    if d % 2 == 0:
        rep = rep.shift((-(d // 2),))
    return SymmetricRepresentative(rep, sign)


# ---- ring maps ----------------------------------------------------------

def specialize(p, weights):
    """Push p through the ring map t^h -> t^(weights . h)."""
    if len(weights) != p.rank:
        raise RankMismatch("weight vector length != ring rank")
    out = {}
    for e, c in p.terms.items():
        k = sum(w * x for w, x in zip(weights, e))
        out[(k,)] = out.get((k,), 0) + c
    return LaurentPoly(1, out)


def is_monic(p):
    """Whether the top coefficient of the normalized representative is +-1."""
    rep = p.representative if isinstance(p, UnitClass) else normalize_unit(p)
    if rep.rank != 1:
        raise RankMismatch("monic test needs rank 1")
    if rep.is_zero():
        return False
    return abs(rep.coeff((rep.max_exp(0),))) == 1


# ---- text form ----------------------------------------------------------

def var_names(rank):
    return ["t"] if rank == 1 else [f"t{i + 1}" for i in range(rank)]


def render_poly(p):
    """Canonical text form: terms in descending lexicographic exponent order."""
    if p.is_zero():
        return "0"
    names = var_names(p.rank)
    chunks = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        factors = []
        for name, k in zip(names, e):
            if k == 1:
                factors.append(name)
            elif k != 0:
                factors.append(f"{name}^{k}")
        mag = abs(c)
        if factors:
            body = "*".join(factors)
            if mag != 1:
                body = f"{mag}*{body}"
        else:
            body = str(mag)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def parse_poly(text, rank):
    """Inverse of render_poly (also accepts redundant whitespace)."""
    s = text.strip()
    if s == "0":
        return LaurentPoly.zero(rank)
    names = {name: i for i, name in enumerate(var_names(rank))}
    # split into signed terms
    tokens = s.replace("- ", "-").replace("+ ", "+").split()
    terms = {}
    for tok in tokens:
        sign = 1
        if tok.startswith("+"):
            tok = tok[1:]
        elif tok.startswith("-"):
            sign = -1
            tok = tok[1:]
        coeff = 1
        exps = [0] * rank
        for factor in tok.split("*"):
            if not factor:
                raise ValueError(f"bad term in {text!r}")
            if factor[0].isdigit():
                coeff *= int(factor)
                continue
            if "^" in factor:
                name, _, k = factor.partition("^")
                power = int(k)
            else:
                name, power = factor, 1
            if name not in names:
                raise ValueError(f"unknown variable {name!r} in {text!r}")
            exps[names[name]] += power
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + sign * coeff
    return LaurentPoly(rank, terms)
