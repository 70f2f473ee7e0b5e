"""Seeded inputs for the benchmark workloads.

Seed 0 is the identity: the fixtures are used byte for byte, so their
outputs can be compared with golden digests.  Any other seed relabels the
input without changing the object it describes:

* `relabel_presentation` permutes the generators (a class given as values
  follows the permutation), rotates each relator cyclically and inverts it
  at random, and shuffles the relators;
* `rename_presentation` only gives the generators fresh names and inverts
  relators at random.  That leaves the twisted Jacobian the same up to the
  sign of whole row blocks, so neither the work done nor the output
  changes.  The timed fibred workloads use this one: under the full
  relabelling the cost of the minor-gcd engine depends on row order by
  more than the benchmark's bounds, and at some seeds it does not finish
  (see NOTES.md, "Seed dependence");
* `relabel_complex` applies a signed permutation of the cells in every
  dimension plus a few elementary basis changes (add +-1 times one cell to
  another) to the boundary matrices on both sides.

The parsers here are independent of the package, so the inputs do not
depend on the code under measurement.
"""

import random

BASIS_CHANGES = 3


# ---- presentations ----------------------------------------------------------

def _letters(token, index):
    if token.startswith("[") and token.endswith("]"):
        x, _, y = token[1:-1].partition(",")
        wx = _word(x, index)
        wy = _word(y, index)
        return wx + wy + _inverse(wx) + _inverse(wy)
    name, _, power = token.partition("^")
    k = int(power) if power else 1
    letter = (index[name], 1 if k > 0 else -1)
    return [letter] * abs(k)


def _word(text, index):
    out = []
    for tok in text.split():
        out.extend(_letters(tok, index))
    return out


def _inverse(word):
    return [(g, -s) for g, s in reversed(word)]


def parse_presentation(text):
    """(generator names, relators as lists of (index, sign), classes)."""
    gens = []
    relators = []
    classes = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("generators:"):
            gens = line[len("generators:"):].split()
        elif line.startswith("relator:"):
            index = {n: i for i, n in enumerate(gens)}
            relators.append(_word(line[len("relator:"):], index))
        elif line.startswith("class "):
            head, _, vals = line.partition(":")
            classes[head[len("class "):].strip()] = [int(v) for v in vals.split()]
    return gens, relators, classes


def emit_presentation(gens, relators, classes):
    out = ["presentation", "generators: " + " ".join(gens)]
    for r in relators:
        out.append("relator: " + " ".join(
            gens[g] if s > 0 else f"{gens[g]}^-1" for g, s in r))
    for name in sorted(classes):
        out.append(f"class {name}: " + " ".join(str(v) for v in classes[name]))
    return "\n".join(out) + "\n"


def relabel_presentation(text, phi, rng):
    """A relabelled presentation document and the matching --phi value.

    `phi` is a class name from the document or comma-separated values, one
    per generator; values are permuted along with the generators.
    """
    gens, relators, classes = parse_presentation(text)
    n = len(gens)
    order = list(range(n))
    rng.shuffle(order)                      # new position k holds old order[k]
    new_index = {old: new for new, old in enumerate(order)}
    new_gens = [gens[old] for old in order]
    new_rels = []
    for r in relators:
        word = [(new_index[g], s) for g, s in r]
        if word:
            k = rng.randrange(len(word))
            word = word[k:] + word[:k]
        if rng.random() < 0.5:
            word = _inverse(word)
        new_rels.append(word)
    rng.shuffle(new_rels)
    new_classes = {name: [vals[old] for old in order]
                   for name, vals in classes.items()}
    if phi in classes:
        new_phi = phi
    else:
        vals = [int(v) for v in phi.split(",")]
        new_phi = ",".join(str(vals[old]) for old in order)
    return emit_presentation(new_gens, new_rels, new_classes), new_phi


def rename_presentation(text, rng):
    """Fresh generator names and randomly inverted relators."""
    gens, relators, classes = parse_presentation(text)
    tags = rng.sample(range(1000, 10000), len(gens))
    names = [f"{g}_{t}" for g, t in zip(gens, tags)]
    rels = [_inverse(r) if rng.random() < 0.5 else r for r in relators]
    return emit_presentation(names, rels, classes)


# ---- chain complexes --------------------------------------------------------

def parse_complex(text):
    """(cells, boundaries); boundaries[k - 1] is the cells[k-1] x cells[k]
    matrix of the k-th boundary as a list of rows."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != "chain-complex":
        raise ValueError("not a chain-complex document")
    cells = [int(x) for x in lines[1][len("cells:"):].split()]
    bounds = [[[0] * cells[k] for _ in range(cells[k - 1])]
              for k in range(1, len(cells))]
    i = 2
    while i < len(lines):
        k = int(lines[i].rstrip(":").split()[1])
        rows = [[int(x) for x in lines[i + 1 + r].split()]
                for r in range(cells[k - 1])]
        bounds[k - 1] = rows
        i += 1 + cells[k - 1]
    return cells, bounds


def emit_complex(cells, bounds, comment=None):
    out = [f"# {comment}"] if comment else []
    out += ["chain-complex", "cells: " + " ".join(str(c) for c in cells)]
    for k, d in enumerate(bounds, start=1):
        out.append(f"boundary {k}:")
        out.extend(" ".join(str(x) for x in row) for row in d)
    return "\n".join(out) + "\n"


def tensor_complex(a, b):
    """Cellular chain complex of a product: d(x*y) = dx*y + (-1)^p x*dy."""
    ca, da = a
    cb, db = b
    top = len(ca) + len(cb) - 2
    index = []          # per dimension n, {(p, i, j): position}
    for n in range(top + 1):
        pos = {}
        for p in range(max(0, n - len(cb) + 1), min(n, len(ca) - 1) + 1):
            q = n - p
            for i in range(ca[p]):
                for j in range(cb[q]):
                    pos[(p, i, j)] = len(pos)
        index.append(pos)
    cells = [len(pos) for pos in index]
    bounds = []
    for n in range(1, top + 1):
        d = [[0] * cells[n] for _ in range(cells[n - 1])]
        for (p, i, j), col in index[n].items():
            q = n - p
            if p >= 1:
                for r in range(ca[p - 1]):
                    c = da[p - 1][r][i]
                    if c:
                        d[index[n - 1][(p - 1, r, j)]][col] += c
            if q >= 1:
                sign = -1 if p % 2 else 1
                for r in range(cb[q - 1]):
                    c = db[q - 1][r][j]
                    if c:
                        d[index[n - 1][(p, i, r)]][col] += sign * c
        bounds.append(d)
    return cells, bounds


def relabel_complex(cx, rng):
    """Signed cell permutations plus BASIS_CHANGES elementary basis changes
    per dimension.  Replacing cell j by cell j + c * cell i in dimension k
    multiplies d_k on the right by E = I + c e_ij and d_{k+1} on the left by
    E^-1 = I - c e_ij; homology is unchanged."""
    cells, bounds = cx
    bounds = [[list(row) for row in d] for d in bounds]
    top = len(cells) - 1
    for k in range(top + 1):
        n = cells[k]
        if n == 0:
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        if k >= 1:       # columns of d_k: new cell j is signs[j] * old perm[j]
            d = bounds[k - 1]
            bounds[k - 1] = [[signs[j] * row[perm[j]] for j in range(n)]
                             for row in d]
        if k < top:      # rows of d_{k+1}
            d = bounds[k]
            bounds[k] = [[signs[i] * x for x in d[perm[i]]] for i in range(n)]
        for _ in range(BASIS_CHANGES if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((1, -1))
            if k >= 1:   # column j += c * column i
                for row in bounds[k - 1]:
                    row[j] += c * row[i]
            if k < top:  # row i -= c * row j
                d = bounds[k]
                d[i] = [x - c * y for x, y in zip(d[i], d[j])]
    return cells, bounds


def rng_for(seed, label):
    """Independent stream per (seed, input) so inputs do not shift when
    another input is added to a workload."""
    return random.Random(f"{seed}:{label}")
