import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex.docio import MAX_MATRIX_ENTRIES, ParseError, parse_document
from twistalex.exactalg import ComplexInvalid, all_homology

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


OMITTED_BOUNDARIES = "chain-complex\ncells:" + " 1000" * 40 + "\n"

# A fresh interpreter prints its own peak RSS (ru_maxrss, KiB on Linux)
# after running the CLI on the document named by argv[1].
PEAK_RSS_SCRIPT = """
import contextlib, io, resource, sys
import twistalex.cli as cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main(["homology", sys.argv[1]]) == 0
print(out.getvalue().split()[0], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_omitted_boundaries_stay_sparse(tmp_path):
    """Forty omitted 1000 x 1000 boundaries are zero matrices of empty rows:
    the d o d checks and the Smith forms cost the rows, not the entries."""
    doc = tmp_path / "zeros.cplx"
    doc.write_text(OMITTED_BOUNDARIES)
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_SCRIPT, str(doc)],
                          env=env, capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    first, peak_kib = proc.stdout.split()
    assert first == "H0=Z^1000"
    assert int(peak_kib) < 100 * 1024


def test_block_reads_tokens_as_int_does():
    spelled = ("chain-complex\ncells: 1 2 1\nboundary 1:\n-0 +0\n"
               "boundary 2:\n+3\n00\n")
    plain = "chain-complex\ncells: 1 2 1\nboundary 1:\n0 0\nboundary 2:\n3\n0\n"
    a, b = parse_document(spelled)[1], parse_document(plain)[1]
    assert a.boundaries == b.boundaries
    assert a.boundary(2).to_lists() == [[int("+3")], [int("00")]]
    assert list(map(str, all_homology(a))) == list(map(str, all_homology(b))) \
        == ["Z", "Z+Z/3", "0"]


@pytest.mark.parametrize("text", [
    "presentation\ngenerators\n",
    "form\nlabels: a\nQ\n1\nK: 0\n",
    "exact-sequence\nterm 1\n",
])
def test_key_needs_its_colon(text):
    with pytest.raises(ParseError, match="unexpected"):
        parse_document(text)
