"""The input document format.

One human-writable line format for all job inputs: a type tag on the first
meaningful line, then `key: value` lines and integer-matrix blocks; a key
that names a single value (all but relator: and term:) may appear once, and
so may a form's basis label, a surface's genus= field and the name of an
unknown term.
Lines starting with # and blank lines are ignored.  Every document round-trips
through its emitter bit-identically.
"""

from itertools import islice

# exactalg, grouppres and fourman are imported by the functions that read
# them, so a chain-complex document loads exactalg alone and a presentation
# loads grouppres alone.

# Bound on max(rows, cols)**2 for every matrix a document declares: boundary
# blocks, omitted (zero) boundaries and Q.  It bounds the matrix and the
# square transforms SNF builds for it when they are read; 23x the largest
# bench boundary.
MAX_MATRIX_ENTRIES = 10**6

# Bound on the sum of a cells: line.  Each dimension costs its rows even
# when its boundary is omitted (a zero matrix of empty rows, a d o d check
# and a Smith form).  The bench's product complexes have a few hundred
# cells, and forty omitted 1000-cell boundaries stay under it.
MAX_CELLS = 10**5

# Bound on the sum over relators of L(L+1)/2 for L letters, the binding cap
# on the relators' total length: it admits a single relator of up to 2,827
# letters.  The Fox Jacobian keeps one term per letter, and alexander, norms
# and fibred peak at 17 MB RSS on a^1412 b a^-1412 b^-1.  The quadratic form
# is kept from when it held one prefix per letter; a linear bound would
# change which inputs are refused.
MAX_FOX_LETTERS = 4 * 10**6


class ParseError(ValueError):
    pass


def _meaningful(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _int(tok, lineno):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"line {lineno}: expected an integer, "
                         f"got {tok!r}") from None


def _ints(text, lineno):
    try:
        return list(map(int, text.split()))
    except ValueError:
        # the per-token reader names the first bad token
        return [_int(tok, lineno) for tok in text.split()]


def _once(seen, key, lineno):
    """Refuse a key line met before: each names a single value, which a
    second line would silently replace."""
    if key in seen:
        raise ParseError(f"line {lineno}: repeated {key!r}")
    seen.add(key)


def _check_shape(nrows, ncols, what):
    if max(nrows, ncols) ** 2 > MAX_MATRIX_ENTRIES:
        raise ParseError(f"{what}: {nrows}x{ncols} is past the matrix bound "
                         f"max(rows, cols)^2 <= {MAX_MATRIX_ENTRIES}")


def _block(lines, nrows, ncols, what):
    """The next nrows lines of `lines` as an nrows x ncols IntMatrix, read
    into each row's nonzeros: "0" is skipped, other tokens go through int()."""
    from .exactalg import IntMatrix
    _check_shape(nrows, ncols, what)
    rows = list(islice(lines, nrows))
    if len(rows) < nrows:
        raise ParseError(f"{what}: missing rows")
    nz = []
    for lineno, line in rows:
        toks = line.split()
        row = {j: _int(tok, lineno) for j, tok in enumerate(toks) if tok != "0"}
        if len(toks) != ncols:
            raise ParseError(f"line {lineno}: expected {ncols} entries")
        nz.append({j: x for j, x in row.items() if x})
    return IntMatrix.from_sparse(ncols, nz)


def parse_document(text):
    """Returns (kind, value); kind is the document's type tag."""
    lines = _meaningful(text)
    _, tag = next(lines, (None, None))
    if tag is None:
        raise ParseError("empty document")
    if tag not in _PARSERS:
        raise ParseError(f"unknown document type {tag!r}")
    return tag, _PARSERS[tag](lines)


# ---- chain complexes ------------------------------------------------------

def _parse_complex(lines):
    from .exactalg import ChainComplex, ComplexInvalid, IntMatrix
    cells = None
    boundaries = {}
    seen = set()
    for lineno, line in lines:
        head, colon, value = line.partition(":")
        key = head + colon  # a bare "cells" line is not a cells: line
        if key == "cells:":
            _once(seen, key, lineno)
            cells = _ints(value, lineno)
            if any(c < 0 for c in cells):
                raise ComplexInvalid("negative cell count")
            # every boundary, given or omitted, is bounded before any is read
            for k in range(1, len(cells)):
                _check_shape(cells[k - 1], cells[k], f"boundary {k}")
            if sum(cells) > MAX_CELLS:
                raise ParseError(f"line {lineno}: {sum(cells)} cells are past "
                                 f"the bound sum(cells) <= {MAX_CELLS}")
        elif key.startswith("boundary"):
            words = line.rstrip(":").split()
            if len(words) < 2:
                raise ParseError(f"line {lineno}: bad boundary header")
            k = _int(words[1], lineno)
            if cells is None:
                raise ParseError(f"line {lineno}: boundary before cells")
            if not 1 <= k <= len(cells) - 1:
                raise ParseError(f"line {lineno}: boundary {k} out of range")
            _once(seen, f"boundary {k}:", lineno)
            boundaries[k] = _block(lines, cells[k - 1], cells[k], f"boundary {k}")
        else:
            raise ParseError(f"line {lineno}: unexpected {line!r}")
    if cells is None:
        raise ParseError("chain-complex needs a cells: line")
    for k in range(1, len(cells)):
        if k not in boundaries:
            boundaries[k] = IntMatrix.zero(cells[k - 1], cells[k])
    return ChainComplex(cells, [boundaries[k] for k in range(1, len(cells))])


def emit_complex(C):
    out = ["chain-complex", "cells: " + " ".join(str(c) for c in C.cells)]
    for k in range(1, len(C.cells)):
        out.append(f"boundary {k}:")
        d = C.boundary(k)
        for i in range(d.rows):
            out.append(" ".join(str(x) for x in d.row(i)))
    return "\n".join(out) + "\n"


# ---- presentations ---------------------------------------------------------

def _parse_presentation(lines):
    from .grouppres import ClassMap, Presentation, parse_word
    gens = None
    relators = []
    fox_letters = 0
    classes = {}
    seen = set()
    for lineno, line in lines:
        head, colon, value = line.partition(":")
        key = head + colon
        if key == "generators:":
            _once(seen, key, lineno)
            gens = value.split()
        elif key == "relator:":
            if gens is None:
                raise ParseError(f"line {lineno}: relator before generators")
            try:
                relators.append(parse_word(value.strip(), gens))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            fox_letters += len(relators[-1]) * (len(relators[-1]) + 1) // 2
            if fox_letters > MAX_FOX_LETTERS:
                raise ParseError(f"line {lineno}: relators past the Fox bound "
                                 f"sum L(L+1)/2 <= {MAX_FOX_LETTERS} letters")
        elif key.startswith("class "):
            if gens is None:
                raise ParseError(f"line {lineno}: class before generators")
            name = head[len("class "):].strip()
            _once(seen, f"class {name}:", lineno)
            values = _ints(value, lineno)
            if len(values) != len(gens):
                raise ParseError(f"line {lineno}: class needs one value "
                                 f"per generator")
            classes[name] = values
        else:
            raise ParseError(f"line {lineno}: unexpected {line!r}")
    if gens is None:
        raise ParseError("presentation needs a generators: line")
    try:
        P = Presentation(gens, relators)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    class_maps = {}
    for name, values in classes.items():
        try:
            class_maps[name] = ClassMap(P, [(v,) for v in values])
        except ValueError as exc:
            raise ParseError(f"class {name}: {exc}") from None
    return P, class_maps


def emit_presentation(P, classes=None):
    from .grouppres import render_word
    out = ["presentation", "generators: " + " ".join(P.generators)]
    for r in P.relators:
        out.append("relator: " + render_word(r, P.generators))
    for name in sorted(classes or {}):
        vals = " ".join(str(img[0]) for img in classes[name].images)
        out.append(f"class {name}: {vals}")
    return "\n".join(out) + "\n"


# ---- intersection forms -----------------------------------------------------

def _parse_form(lines):
    from .fourman import FormData, SurfaceEntry
    labels = Q = K = None
    surfaces = []
    seen = set()
    for lineno, line in lines:
        head, colon, value = line.partition(":")
        key = head + colon
        if key == "labels:":
            _once(seen, key, lineno)
            labels = value.split()
            names = set()
            for label in labels:
                _once(names, label, lineno)
        elif key == "Q:":
            _once(seen, key, lineno)
            if labels is None:
                raise ParseError(f"line {lineno}: Q before labels")
            Q = _block(lines, len(labels), len(labels), "Q")
        elif key == "K:":
            _once(seen, key, lineno)
            K = _ints(value, lineno)
        elif key == "surface:":
            toks = value.split()
            if len(toks) < 2:
                raise ParseError(f"line {lineno}: surface needs label and kind")
            _once(seen, f"surface: {toks[0]}", lineno)
            genus = None
            fields = set()
            for tok in toks[2:]:
                if not tok.startswith("genus="):
                    raise ParseError(f"line {lineno}: unknown field {tok!r}")
                _once(fields, "genus=", lineno)
                genus = _int(tok[len("genus="):], lineno)
            try:
                surfaces.append(SurfaceEntry(toks[0], toks[1], genus))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        else:
            raise ParseError(f"line {lineno}: unexpected {line!r}")
    if labels is None or Q is None or K is None:
        raise ParseError("form needs labels:, Q: and K:")
    try:
        return FormData(labels, Q, K, surfaces)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def emit_form(form):
    out = ["form", "labels: " + " ".join(form.labels), "Q:"]
    for i in range(len(form.labels)):
        out.append(" ".join(str(x) for x in form.Q.row(i)))
    out.append("K: " + " ".join(str(x) for x in form.K))
    for label in form.labels:
        if label in form.surfaces:
            s = form.surfaces[label]
            line = f"surface: {label} {s.kind}"
            if s.genus is not None:
                line += f" genus={s.genus}"
            out.append(line)
    return "\n".join(out) + "\n"


# ---- exact sequences ---------------------------------------------------------

def _parse_sequence(lines):
    from .exactalg import ExactSequenceData, MapData
    terms = []
    maps = {}
    seen = set()
    names = set()
    for lineno, line in lines:
        head, colon, value = line.partition(":")
        key = head + colon
        value = value.strip()
        if key == "term:":
            if value.startswith("?"):
                terms.append(value[1:].strip() or f"x{len(terms)}")
                _once(names, terms[-1], lineno)
            else:
                terms.append(_int(value, lineno))
        elif key.startswith("map "):
            toks = head.split()
            if len(toks) != 3 or toks[2] not in ("image", "kernel"):
                raise ParseError(f"line {lineno}: expected 'map N image|kernel:'")
            idx, rank = _int(toks[1], lineno), _int(value, lineno)
            _once(seen, f"map {idx} {toks[2]}:", lineno)
            maps[idx] = maps.get(idx, MapData())._replace(**{toks[2]: rank})
        else:
            raise ParseError(f"line {lineno}: unexpected {line!r}")
    if not terms:
        raise ParseError("exact-sequence needs term: lines")
    try:
        return ExactSequenceData(terms, maps)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def emit_sequence(seq):
    out = ["exact-sequence"]
    for t in seq.terms:
        out.append(f"term: {t}" if isinstance(t, int) else f"term: ? {t}")
    for idx in sorted(seq.maps):
        md = seq.maps[idx]
        if md.image is not None:
            out.append(f"map {idx} image: {md.image}")
        if md.kernel is not None:
            out.append(f"map {idx} kernel: {md.kernel}")
    return "\n".join(out) + "\n"


_PARSERS = {"chain-complex": _parse_complex, "presentation": _parse_presentation,
            "form": _parse_form, "exact-sequence": _parse_sequence}
