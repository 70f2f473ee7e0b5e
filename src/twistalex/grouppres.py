"""Finitely presented groups.

Words, free reduction, the Fox Jacobian as one term per relator letter,
abelianization via Smith normal form, automorphisms of small finite groups,
enumeration of epimorphisms onto them (one search branch and one coset walk
per Aut(G)-orbit; the other members walk their table only when it is read),
and the Schreier generators of their kernels.

A word is a tuple of letters (generator_index, +-1).
"""

from functools import cached_property, partial
from itertools import permutations, product

# exactalg is imported by the functions that read it, so a job that never
# abelianizes (fibred, alexander) does not load it.


class BoundExceeded(ValueError):
    """Finite-group order above the configured enumeration bound."""


class InvalidQuotient(ValueError):
    """Generator images do not satisfy the relators or fail to generate."""


class Incompatible(ValueError):
    """A quotient, class or word does not belong to the presentation it is
    used with."""


def _check_same(p, q, message):
    """Raise Incompatible unless p and q are structurally equal
    presentations."""
    if p is not q and (p.generators != q.generators
                       or p.relators != q.relators):
        raise Incompatible(message)


# ---- words ---------------------------------------------------------------

def free_reduce(word):
    """Cancel adjacent inverse letters; the letters kept are word's own."""
    out = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def word_inverse(word):
    return tuple((g, -s) for g, s in reversed(word))


def word_mul(*words):
    return free_reduce(letter for word in words for letter in word)


def word_exponents(word, ngens):
    v = [0] * ngens
    for g, s in word:
        v[g] += s
    return tuple(v)


MAX_WORD_LETTERS = 100_000


def _check_word_length(n):
    if n > MAX_WORD_LETTERS:
        raise ValueError(f"word longer than {MAX_WORD_LETTERS} letters")


def parse_word(text, names):
    """Parse "a b a^-1", commutators "[a,b]" and powers "a^3".

    A word past MAX_WORD_LETTERS letters raises ValueError unexpanded.
    """
    index = {n: i for i, n in enumerate(names)}
    letters = []
    for tok in text.split():
        neg = False
        power = 1
        if tok.startswith("[") and tok.endswith("]"):
            inner = tok[1:-1]
            x, _, y = inner.partition(",")
            wx = parse_word(x.strip(), names)
            wy = parse_word(y.strip(), names)
            comm = word_mul(wx, wy, word_inverse(wx), word_inverse(wy))
            _check_word_length(len(letters) + len(comm))
            letters.extend(comm)
            continue
        if "^" in tok:
            name, _, k = tok.partition("^")
            power = int(k)
            if power < 0:
                neg = True
                power = -power
        else:
            name = tok
        if name not in index:
            raise ValueError(f"unknown generator {name!r}")
        letter = (index[name], -1 if neg else 1)
        _check_word_length(len(letters) + power)
        letters.extend([letter] * power)
    return free_reduce(tuple(letters))


def render_word(word, names):
    if not word:
        return "1"
    out = []
    for g, s in word:
        out.append(names[g] if s > 0 else f"{names[g]}^-1")
    return " ".join(out)


# ---- presentations --------------------------------------------------------

class Presentation:
    """Generators (by name) and relator words."""

    def __init__(self, generators, relators):
        self.generators = tuple(generators)
        seen = set()
        for g in self.generators:
            if g in seen:
                raise ValueError(f"duplicate generator name {g!r}")
            seen.add(g)
        self.relators = tuple(free_reduce(r) for r in relators)
        n = len(self.generators)
        for r in self.relators:
            for g, s in r:
                if not (0 <= g < n) or s not in (1, -1):
                    raise ValueError(f"bad letter {(g, s)} in relator")

    @classmethod
    def from_text(cls, generators, relator_strings):
        gens = list(generators)
        return cls(gens, [parse_word(s, gens) for s in relator_strings])

    @property
    def ngens(self):
        return len(self.generators)

    @cached_property
    def abelianization(self):
        """abelianize(self), computed on first use and kept."""
        return abelianize(self)

    def relator_matrix(self):
        """Exponent-sum matrix, one row per relator."""
        from .exactalg import IntMatrix
        return IntMatrix.from_rows([word_exponents(r, self.ngens)
                                    for r in self.relators]) if self.relators \
            else IntMatrix.zero(0, self.ngens)

    def __repr__(self):
        rels = ", ".join(render_word(r, self.generators) for r in self.relators)
        return f"<{' '.join(self.generators)} | {rels}>"


class Abelianization:
    """H_1 data plus the induced map from generators to Z^free_rank, and
    the Smith form it was read from."""

    def __init__(self, homology, gen_images, snf):
        self.homology = homology
        # per generator, coordinates in the free quotient
        self.gen_images = gen_images
        self.snf = snf

    @property
    def free_rank(self):
        return self.homology.free_rank

    @property
    def torsion(self):
        return self.homology.torsion


def abelianize(P):
    """Smith normal form of the relator matrix; H = Z^n / rowspan."""
    from .exactalg import HomologyGroup, smith_normal_form
    n = P.ngens
    A = P.relator_matrix().transpose()  # columns are relations on Z^n
    snf = smith_normal_form(A)
    diag = snf.D.diagonal()
    r = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    free_rows = range(r, n)
    U = snf.U
    gen_images = tuple(tuple(U[i, j] for i in free_rows) for j in range(n))
    return Abelianization(HomologyGroup(n - r, torsion), gen_images, snf)


class ClassMap:
    """A homomorphism from the abelianization to Z^s, given on generators."""

    def __init__(self, presentation, images):
        self.presentation = presentation
        images = tuple(tuple(int(x) for x in img) for img in images)
        if len(images) != presentation.ngens:
            raise ValueError("need one image per generator")
        ranks = {len(img) for img in images}
        if len(ranks) != 1:
            raise ValueError("mixed target ranks")
        self.target_rank = ranks.pop()
        if self.target_rank < 1:
            raise ValueError("target rank must be >= 1")
        self.images = images
        for rel in presentation.relators:
            if any(self.of_word(rel)):
                raise ValueError("class does not kill all relators")

    def of_word(self, word):
        v = [0] * self.target_rank
        for g, s in word:
            img = self.images[g]
            for i in range(self.target_rank):
                v[i] += s * img[i]
        return tuple(v)

    def of_generator(self, g):
        return self.images[g]

    @cached_property
    def length(self):
        """The Phi-length of the presentation: the sum of |Phi(g)| over the
        generators and over every relator letter."""
        length = [sum(map(abs, img)) for img in self.images]
        return sum(length) + sum(length[g] for r in self.presentation.relators
                                 for g, _ in r)

    def is_trivial(self):
        return all(all(x == 0 for x in img) for img in self.images)

    def h_weights(self):
        """Express a rank-1 class in the coordinates of H = Z^{b_1}.

        Returns w with w . q(g) = Phi(g) for every generator, where q is the
        abelianization quotient map.  With U M V = D the Smith form of the
        relation matrix M, q reads rows r.. of U (r the rank of D), and
        Phi . U^-1 . D = Phi . M . V = 0 since Phi kills the relations, so
        Phi . U^-1 vanishes on its first r entries and w is the rest.
        """
        if self.target_rank != 1:
            raise ValueError("h_weights needs a rank-1 class")
        ab = self.presentation.abelianization
        b1 = ab.free_rank
        n = self.presentation.ngens
        phi_row = [img[0] for img in self.images]
        u_inv = ab.snf.U_inverse
        w = tuple(sum(phi_row[k] * u_inv[k, j] for k in range(n))
                  for j in range(n - b1, n))
        for j in range(n):
            if sum(w[i] * ab.gen_images[j][i] for i in range(b1)) != phi_row[j]:
                raise AssertionError("h_weights verification failed")
        return w


# ---- Fox calculus ----------------------------------------------------------

def fox_jacobian(P):
    """The Fox Jacobian as terms (r, g, i, s), one per letter (g, s) at
    position k of relator r, with i = k for s = +1 and i = k + 1 for s = -1:
    by the product rule d(uv) = du + u dv, dr/dx_g is the sum of s * r[:i]
    over the terms of (r, g).  Relators are freely reduced, so no two terms
    of one (r, g) share a prefix."""
    return [(r, g, k + (s < 0), s) for r, rel in enumerate(P.relators)
            for k, (g, s) in enumerate(rel)]


# ---- finite groups ---------------------------------------------------------

class FiniteGroup:
    """A finite group as a multiplication table on {0..order-1}, identity 0."""

    def __init__(self, label, table):
        self.label = label
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        for row in self.table:
            if len(row) != self.order:
                raise ValueError("ragged multiplication table")
        if any(self.table[0][x] != x or self.table[x][0] != x
               for x in range(self.order)):
            raise ValueError("element 0 is not an identity")
        self.inverse = [None] * self.order
        for x in range(self.order):
            for y in range(self.order):
                if self.table[x][y] == 0:
                    self.inverse[x] = y
        if any(v is None for v in self.inverse):
            raise ValueError("table is not a group")

    def mul(self, x, y):
        return self.table[x][y]

    def inv(self, x):
        return self.inverse[x]

    def element_order(self, x):
        """The least k >= 1 with x^k the identity."""
        k, y = 1, x
        while y:
            k, y = k + 1, self.table[y][x]
        return k

    @cached_property
    def is_addition_mod_n(self):
        """Whether the table is addition mod n, n the order."""
        n = self.order
        return all(row == tuple((x + y) % n for y in range(n))
                   for x, row in enumerate(self.table))

    def __repr__(self):
        return f"FiniteGroup({self.label}, order {self.order})"


def trivial_group():
    return FiniteGroup("1", [[0]])


def cyclic_group(n):
    if n < 1:
        raise ValueError("order must be positive")
    return FiniteGroup(f"Z{n}", [[(x + y) % n for y in range(n)] for x in range(n)])


def dihedral_group(n):
    """D_n of order 2n; element a + n*b stands for r^a s^b."""
    if n < 1:
        raise ValueError("n must be positive")

    def mul(e1, e2):
        a1, b1 = e1 % n, e1 // n
        a2, b2 = e2 % n, e2 // n
        a = (a1 + (a2 if b1 == 0 else -a2)) % n
        return a + n * ((b1 + b2) % 2)

    return FiniteGroup(f"D{n}", [[mul(x, y) for y in range(2 * n)]
                                 for x in range(2 * n)])


def symmetric_group(n):
    if n > 4:
        raise ValueError("symmetric groups implemented for n <= 4")
    # lexicographic order, so the identity comes first
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def mul(p, q):
        return tuple(p[q[i]] for i in range(n))

    return FiniteGroup(f"S{n}", [[index[mul(perms[x], perms[y])]
                                  for y in range(len(perms))]
                                 for x in range(len(perms))])


def parse_group_spec(spec):
    """A group label like 'trivial', 'Z6', 'D3', 'S3' as (order, build).

    The order is read from the label; build() makes the group.  Cyclic and
    dihedral tables hold order**2 entries, so a caller with a bound checks
    the order first (see check_order).
    """
    s = spec.strip()
    if s in ("1", "trivial"):
        return 1, trivial_group
    kind, num = s[:1].upper(), s[1:]
    if kind not in ("Z", "D", "S") or not num.isdigit():
        raise ValueError(f"cannot parse group spec {spec!r}")
    n = int(num)
    if kind == "Z":
        return n, partial(cyclic_group, n)
    if kind == "D":
        return 2 * n, partial(dihedral_group, n)
    G = symmetric_group(n)  # at most S4, 24 elements
    return G.order, lambda: G


# Bound on the entries of the multiplication tables built for one command,
# order**2 per group.  cyclic_group(1000), at the bound, takes 0.2 s and
# 37 MB beyond the interpreter's own RSS (2-vCPU KVM guest, Python 3.11);
# the cost grows with the entries, and a group past the bound is far beyond
# any epimorphism search that could use its table.
MAX_TABLE_ENTRIES = 10**6


def check_table_entries(entries):
    """Raise BoundExceeded for group tables past MAX_TABLE_ENTRIES."""
    if entries > MAX_TABLE_ENTRIES:
        raise BoundExceeded(f"{entries} group table entries exceed the bound "
                            f"of {MAX_TABLE_ENTRIES}")


def check_order(order, bound):
    """Raise BoundExceeded for a group order above the enumeration bound, or
    one whose table would pass MAX_TABLE_ENTRIES."""
    if order > bound:
        raise BoundExceeded(f"|G| = {order} exceeds bound {bound}")
    check_table_entries(order * order)


class FiniteQuotient:
    """An epimorphism onto a finite group, with its coset table.

    The table comes from one breadth-first walk of the Cayley graph of G on
    the generator images, taking generator i = 0..n-1 with exponent +1 then
    -1: `order` lists the elements of G in discovery order, `position[y]` is
    the index of y in `order`, and `parent[y]` is the edge (x, i, s), with
    y = x * image(g_i)^s, that discovered y (None for the identity).
    """

    def __init__(self, presentation, group, images):
        self.presentation = presentation
        self.group = group
        self.images = tuple(images)
        if len(self.images) != presentation.ngens:
            raise InvalidQuotient("need one image per generator")
        for r in presentation.relators:
            if self.of_word(r) != 0:
                raise InvalidQuotient("relator not killed")
        self._key = [None]   # kernel_key's cell, shared with relabellings
        if self._walk is None:
            raise InvalidQuotient("images do not generate")

    @cached_property
    def _walk(self):
        """The coset table (order, position, parent), walked on first read;
        None when the images do not generate."""
        group = self.group
        table, n = group.table, group.order
        steps = [(i, s, img if s > 0 else group.inverse[img])
                 for i, img in enumerate(self.images) for s in (1, -1)]
        order = [0]
        position = [None] * n
        position[0] = 0
        parent = [None] * n
        for x in order:  # breadth-first: order grows while it is walked
            row = table[x]
            for i, s, img in steps:
                y = row[img]
                if position[y] is None:
                    position[y] = len(order)
                    order.append(y)
                    parent[y] = (x, i, s)
        if len(order) != n:
            return None
        return tuple(order), tuple(position), tuple(parent)

    order = property(lambda self: self._walk[0])
    position = property(lambda self: self._walk[1])
    parent = property(lambda self: self._walk[2])

    def _relabelled(self, a):
        """The quotient a o alpha, for an automorphism a of the group (a[x]
        the image of x), unchecked and unwalked.  One kernel has one
        standardized coset table, so it shares alpha's kernel-key cell."""
        q = FiniteQuotient.__new__(FiniteQuotient)
        q.presentation, q.group = self.presentation, self.group
        q.images = tuple(a[x] for x in self.images)
        q._key = self._key
        return q

    def of_word(self, word):
        return self.prefixes(word)[-1]

    def prefixes(self, word):
        """alpha(word[:i]) for i = 0, ..., len(word), in one walk."""
        x, table, inv = 0, self.group.table, self.group.inverse
        images = self.images
        out = [x]
        for g, s in word:
            x = table[x][images[g] if s > 0 else inv[images[g]]]
            out.append(x)
        return out

    def kernel_key(self):
        """Canonical key identifying ker(alpha): the standardized coset table.

        Computed on the first call to it on this quotient or on any quotient
        relabelled from it, and kept for all of them.
        """
        if self._key[0] is None:
            table, pos = self.group.table, self.position
            self._key[0] = tuple(tuple(pos[table[x][img]] for x in self.order)
                                 for img in self.images)
        return self._key[0]

    def __repr__(self):
        return f"FiniteQuotient({self.group.label}, images={self.images})"


def trivial_quotient(P):
    """The quotient of P onto the trivial group: the untwisted case."""
    return FiniteQuotient(P, trivial_group(), (0,) * P.ngens)


def automorphisms(G):
    """Aut(G) as tuples a, a[x] the image of x, with the identity first.

    A generating tuple is picked greedily: each next generator is the least
    element outside the subgroup generated so far.  An automorphism is fixed
    by its images of the generators, which have the generators' orders; each
    tuple of such images is extended along the Cayley graph by a[x g] =
    a[x] a[g], and kept when that is well defined and a bijection.
    """
    table, n = G.table, G.order
    gens, walk, seen = [], [0], {0}
    for x in range(n):
        if x not in seen:
            gens.append(x)
            walk, seen = [0], {0}
            for y in walk:  # breadth-first: walk grows while it is walked
                for g in gens:
                    z = table[y][g]
                    if z not in seen:
                        seen.add(z)
                        walk.append(z)
    edges = [(y, j, table[y][g]) for y in walk for j, g in enumerate(gens)]
    orders = [G.element_order(x) for x in range(n)]
    candidates = [[h for h in range(n) if orders[h] == orders[g]]
                  for g in gens]
    out = [tuple(range(n))]
    for hs in product(*candidates):
        if list(hs) == gens:
            continue
        a = [None] * n
        a[0] = 0
        for y, j, z in edges:
            w = table[a[y]][hs[j]]
            if a[z] is None:
                a[z] = w
            elif a[z] != w:
                break
        else:
            if len(set(a)) == n:
                out.append(tuple(a))
    return out


def _relator_solutions(P, G, auts=()):
    """Generator image tuples that kill every relator, in lexicographic order.

    Backtracking: images are assigned one generator at a time, lowest value
    first, and a relator is checked as soon as its highest generator has an
    image, so a failing prefix is never extended.  The loop is iterative:
    the depth is the generator count, which nothing bounds.

    auts are automorphisms of G (a[x] the image of x).  A prefix p is dropped
    when some a maps it below itself, a(p) < p lexicographically, since then
    every completion of p is below itself too: only tuples least in their
    Aut(G)-orbit are yielded.  Per depth the automorphisms that fix the
    prefix are kept; one that maps a coordinate higher leaves for that
    subtree.
    """
    n, table, inv = P.ngens, G.table, G.inverse
    due = [[] for _ in range(n)]
    for r in P.relators:
        if r:
            due[max(g for g, _ in r)].append(r)
    images, i = [-1] * n, 0
    fixing = [auts] + [None] * n   # fixing[k]: the auts that fix images[:k]

    def kills(r):
        x = 0
        for g, s in r:
            x = table[x][images[g] if s > 0 else inv[images[g]]]
        return x == 0

    while i >= 0:
        if i == n:
            yield tuple(images)
            i -= 1
            continue
        images[i] += 1
        v = images[i]
        if v == G.order:
            images[i] = -1
            i -= 1
        elif all(map(kills, due[i])):
            kept = []
            for a in fixing[i]:
                if a[v] < v:
                    break
                if a[v] == v:
                    kept.append(a)
            else:
                fixing[i + 1] = kept
                i += 1


def _walked(P, G, solutions):
    """The quotients on the relator solutions that generate G, with no
    relator check of their own: the search has made it."""
    for images in solutions:
        q = FiniteQuotient.__new__(FiniteQuotient)
        q.presentation, q.group, q.images, q._key = P, G, images, [None]
        if q._walk is not None:
            yield q


def enumerate_epimorphisms(P, G, dedup_auto=False):
    """All surjections pi_1(P) -> G, in lexicographic image order.

    Two epimorphisms have one kernel exactly when they differ by an
    automorphism of G, and only the identity fixes a generating tuple, so
    each Aut(G)-orbit holds |Aut(G)| epimorphisms and one kernel.  Aut(G),
    kept only for this call, is built once the plain search finds an
    epimorphism: the catalog up to budget 125 holds D2 to D62, and Aut(D62)
    has 1,860 elements.  The search then restarts, pruned to the least tuple
    of each orbit, and walks its coset table; the other members are its
    relabellings (FiniteQuotient._relabelled), which share its kernel key
    and walk their own table only when it is read.  With dedup_auto only
    the representatives are returned: the least epimorphism of each kernel.

    G's table is already built, so a caller with a bound on |G| checks it
    first (check_order).
    """
    if next(_walked(P, G, _relator_solutions(P, G)), None) is None:
        return []
    auts = automorphisms(G)[1:]
    reps = list(_walked(P, G, _relator_solutions(P, G, auts)))
    if dedup_auto:
        return reps
    return sorted(reps + [q._relabelled(a) for q in reps for a in auts],
                  key=lambda q: q.images)


# ---- Reidemeister-Schreier --------------------------------------------------

def reidemeister_schreier(P, q):
    """The Schreier generators s_{x,i} = t_x g_i t_{x g_i}^-1 of ker(q), one
    per non-tree edge (x, i) of q's coset table, as words in P's generators.

    The transversal t is read off the parent edges of q's coset table, so the
    output is deterministic.  A tree word is reduced as built: the inverse
    of its last letter leads from its coset back to the coset's parent,
    which the breadth-first walk discovered first.  So t_x g_i t_y^-1, with
    y = x g_i, cancels only across a tree edge (parent[y] = (x, i, 1) or
    parent[x] = (y, i, -1)), where it is empty; every other one is reduced
    and nonempty as concatenated.
    """
    _check_same(q.presentation, P,
                "quotient belongs to a different presentation")
    table, parent = q.group.table, q.parent
    trans = [None] * q.group.order
    inv = [None] * q.group.order   # inv[y] = t_y^-1
    trans[0] = inv[0] = ()
    for y in q.order[1:]:
        x, i, s = parent[y]
        trans[y] = trans[x] + ((i, s),)
        inv[y] = ((i, -s),) + inv[x]
    words = []
    for x in q.order:
        for i, img in enumerate(q.images):
            y = table[x][img]
            if parent[y] != (x, i, 1) and parent[x] != (y, i, -1):
                words.append(trans[x] + ((i, 1),) + inv[y])
    return tuple(words)
