import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex.docio import MAX_MATRIX_ENTRIES, ParseError, parse_document
from twistalex.exactalg import ComplexInvalid

from conftest import FIXTURES, fixture_text

NAMES = sorted(p.name for p in FIXTURES.iterdir())
JUNK = ("x", "-1", ":", "genus=x", "?", "", "0", "Q:", "boundary 1:",
        "cells: 1 1", "map 0 image: 1", "class c: 1")


@st.composite
def mutated_documents(draw):
    """A fixture after one to three truncations, line deletions, line
    insertions or token replacements."""
    text = fixture_text(draw(st.sampled_from(NAMES)))
    for _ in range(draw(st.integers(1, 3))):
        lines = text.splitlines()
        op = draw(st.sampled_from(("truncate", "delete", "insert", "replace")))
        if op == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
            continue
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert" or not lines:
            lines.insert(i, draw(st.sampled_from(JUNK + tuple(lines))))
        elif op == "delete":
            del lines[i]
        else:
            toks = lines[i].split(" ")
            toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(JUNK))
            lines[i] = " ".join(toks)
        text = "\n".join(lines) + "\n"
    return text


@given(mutated_documents())
@settings(max_examples=600, derandomize=True, deadline=None)
def test_mutated_documents_parse_or_raise_parse_errors(text):
    try:
        parse_document(text)
    except (ParseError, ComplexInvalid):
        pass


@pytest.mark.parametrize("text", [
    "chain-complex\ncells: 1 1001\n",
    "chain-complex\ncells: 0 1001 0\n",
    "chain-complex\ncells: 1001 1\nboundary 1:\n0\n",
    "form\nlabels: " + " ".join(f"e{i}" for i in range(1001)) + "\nQ:\n",
])
def test_matrix_bound_rejects_before_allocating(text):
    with pytest.raises(ParseError, match=str(MAX_MATRIX_ENTRIES)):
        parse_document(text)


def test_matrix_bound_admits_its_edge():
    _, C = parse_document("chain-complex\ncells: 1000 1000\n")
    assert C.boundary(1).rows == C.boundary(1).cols == 1000


@pytest.mark.parametrize("text", [
    "presentation\ngenerators\n",
    "form\nlabels: a\nQ\n1\nK: 0\n",
    "exact-sequence\nterm 1\n",
])
def test_key_needs_its_colon(text):
    with pytest.raises(ParseError, match="unexpected"):
        parse_document(text)
