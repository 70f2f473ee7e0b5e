"""The input document format.

One human-writable line format for all job inputs: a type tag on the first
meaningful line, then `key: value` lines and integer-matrix blocks.  Lines
starting with # and blank lines are ignored.  Every document round-trips
through its emitter bit-identically.
"""

from .exactalg import ChainComplex, ExactSequenceData, IntMatrix, MapData
from .fourman import FormData, SurfaceEntry
from .grouppres import ClassMap, Presentation, parse_word, render_word


class ParseError(ValueError):
    pass


def _meaningful(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _int_row(line, lineno):
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise ParseError(f"line {lineno}: expected integers, got {line!r}") from None


def parse_document(text):
    """Returns (kind, value); kind is the document's type tag."""
    lines = list(_meaningful(text))
    if not lines:
        raise ParseError("empty document")
    tag = lines[0][1]
    body = lines[1:]
    if tag == "chain-complex":
        return tag, _parse_complex(body)
    if tag == "presentation":
        return tag, _parse_presentation(body)
    if tag == "form":
        return tag, _parse_form(body)
    if tag == "exact-sequence":
        return tag, _parse_sequence(body)
    raise ParseError(f"unknown document type {tag!r}")


# ---- chain complexes ------------------------------------------------------

def _parse_complex(body):
    cells = None
    boundaries = {}
    i = 0
    while i < len(body):
        lineno, line = body[i]
        if line.startswith("cells:"):
            cells = _int_row(line[len("cells:"):], lineno)
            i += 1
        elif line.startswith("boundary"):
            head = line.rstrip(":")
            try:
                k = int(head.split()[1])
            except (IndexError, ValueError):
                raise ParseError(f"line {lineno}: bad boundary header") from None
            if cells is None:
                raise ParseError(f"line {lineno}: boundary before cells")
            if not 1 <= k <= len(cells) - 1:
                raise ParseError(f"line {lineno}: boundary {k} out of range")
            nrows = cells[k - 1]
            rows = []
            i += 1
            for _ in range(nrows):
                if i >= len(body):
                    raise ParseError(f"boundary {k}: missing rows")
                rl, rline = body[i]
                row = _int_row(rline, rl)
                if len(row) != cells[k]:
                    raise ParseError(f"line {rl}: expected {cells[k]} entries")
                rows.append(row)
                i += 1
            boundaries[k] = IntMatrix.from_rows(rows) if rows \
                else IntMatrix.zero(0, cells[k])
        else:
            raise ParseError(f"line {lineno}: unexpected {line!r}")
    if cells is None:
        raise ParseError("chain-complex needs a cells: line")
    maps = []
    for k in range(1, len(cells)):
        maps.append(boundaries.get(k, IntMatrix.zero(cells[k - 1], cells[k])))
    return ChainComplex(cells, maps)


def emit_complex(C):
    out = ["chain-complex", "cells: " + " ".join(str(c) for c in C.cells)]
    for k in range(1, len(C.cells)):
        out.append(f"boundary {k}:")
        d = C.boundary(k)
        for i in range(d.rows):
            out.append(" ".join(str(x) for x in d.row(i)))
    return "\n".join(out) + "\n"


# ---- presentations ---------------------------------------------------------

def _parse_presentation(body):
    gens = None
    relators = []
    classes = {}
    for lineno, line in body:
        if line.startswith("generators:"):
            gens = line[len("generators:"):].split()
        elif line.startswith("relator:"):
            if gens is None:
                raise ParseError(f"line {lineno}: relator before generators")
            try:
                relators.append(parse_word(line[len("relator:"):].strip(), gens))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        elif line.startswith("class "):
            head, _, vals = line.partition(":")
            name = head[len("class "):].strip()
            if gens is None:
                raise ParseError(f"line {lineno}: class before generators")
            values = _int_row(vals, lineno)
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
    out = ["presentation", "generators: " + " ".join(P.generators)]
    for r in P.relators:
        out.append("relator: " + render_word(r, P.generators))
    for name in sorted(classes or {}):
        vals = " ".join(str(img[0]) for img in classes[name].images)
        out.append(f"class {name}: {vals}")
    return "\n".join(out) + "\n"


# ---- intersection forms -----------------------------------------------------

def _parse_form(body):
    labels = None
    Q = None
    K = None
    surfaces = []
    i = 0
    while i < len(body):
        lineno, line = body[i]
        if line.startswith("labels:"):
            labels = line[len("labels:"):].split()
            i += 1
        elif line.startswith("Q:"):
            if labels is None:
                raise ParseError(f"line {lineno}: Q before labels")
            rows = []
            i += 1
            for _ in range(len(labels)):
                rl, rline = body[i]
                row = _int_row(rline, rl)
                if len(row) != len(labels):
                    raise ParseError(f"line {rl}: expected {len(labels)} entries")
                rows.append(row)
                i += 1
            Q = rows
        elif line.startswith("K:"):
            K = _int_row(line[len("K:"):], lineno)
            i += 1
        elif line.startswith("surface:"):
            toks = line[len("surface:"):].split()
            if len(toks) < 2:
                raise ParseError(f"line {lineno}: surface needs label and kind")
            label, kind = toks[0], toks[1]
            genus = None
            for tok in toks[2:]:
                if tok.startswith("genus="):
                    genus = int(tok[len("genus="):])
                else:
                    raise ParseError(f"line {lineno}: unknown field {tok!r}")
            try:
                surfaces.append(SurfaceEntry(label, kind, genus))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            i += 1
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

def _parse_sequence(body):
    terms = []
    maps = {}
    for lineno, line in body:
        if line.startswith("term:"):
            val = line[len("term:"):].strip()
            if val.startswith("?"):
                terms.append(val[1:].strip() or f"x{len(terms)}")
            else:
                try:
                    terms.append(int(val))
                except ValueError:
                    raise ParseError(f"line {lineno}: bad term {val!r}") from None
        elif line.startswith("map "):
            head, _, val = line.partition(":")
            toks = head.split()
            if len(toks) != 3 or toks[2] not in ("image", "kernel"):
                raise ParseError(f"line {lineno}: expected 'map N image|kernel:'")
            try:
                idx = int(toks[1])
                rank = int(val)
            except ValueError:
                raise ParseError(f"line {lineno}: bad map data") from None
            old = maps.get(idx, MapData())
            if toks[2] == "image":
                maps[idx] = MapData(image=rank, kernel=old.kernel)
            else:
                maps[idx] = MapData(image=old.image, kernel=rank)
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
