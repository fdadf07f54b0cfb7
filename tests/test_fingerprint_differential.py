"""Differential test: the fingerprint scan against the fingerprint of the
lossless token stream it replaces.

``_fingerprint_reference`` computes a unit's module names, keyword set, dedup
key and logic flag the way they were computed before the filter stopped
lexing. ``SourceUnit.fingerprint`` must equal it, never lex the unit, and
be the same when mutation lexed the unit first, on the fixture corpus, the
duplicate corpus of the CLI tests, the lexer edge cases and
Hypothesis-generated text. The module names that ``augment`` takes from a
lexed unit's token stream must equal the fingerprint's on the same inputs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _fingerprint_reference as ref
from assertforge.corpus import SourceUnit, module_names_of
from fixture_corpus import CORPUS_FILES
from test_cli import DUP_CORPUS
from test_lexer_differential import _CHARS, _FRAGMENTS, EDGE_CASES


def assert_same_as_reference(text: str, label: str = "") -> None:
    want = ref.fingerprint(text)
    scanned = SourceUnit.from_text("scanned", text)
    assert tuple(scanned.fingerprint) == want, label
    assert "tokens" not in scanned.__dict__, label  # the scan did not lex
    lexed = SourceUnit.from_text("lexed", text)
    assert "".join(t.text for t in lexed.tokens) == text, label  # lexed first
    assert tuple(lexed.fingerprint) == want, label
    assert module_names_of(lexed.tokens) == scanned.fingerprint.module_names, label


@pytest.mark.parametrize("corpus", ["fixture", "dups"])
def test_corpus_files_match_reference(corpus):
    for name, text in (CORPUS_FILES if corpus == "fixture" else DUP_CORPUS).items():
        assert_same_as_reference(text, name)


FINGERPRINT_EDGE_CASES = {
    **EDGE_CASES,
    "trailing unterminated block comment": "module m; assign y = a & b; endmodule /* open",
    "trailing line comment at eof": "module m; always @(x) y = x; endmodule //",
    "module name after a comment": "module /* c */ top // d\n(input a); endmodule",
    "gate primitive and instantiation": "module g; and (y, a, b); sub #(2) u (.a(a)); endmodule",
    "wiring assign only": "module w(input a, output y); assign y = a; assign z = 1'b0; endmodule",
    "wiring netlist": "module n;\n"
    + "".join(f"assign w{i} = x{i};\nINV u{i} (.A(w{i}), .Y(x{i + 1}));\n" for i in range(50))
    + "endmodule\n",
    "assign with no semicolon": "module m; assign y = a endmodule",
}


@pytest.mark.parametrize("name", sorted(FINGERPRINT_EDGE_CASES))
def test_edge_cases_match_reference(name):
    assert_same_as_reference(FINGERPRINT_EDGE_CASES[name], name)


_STRUCTURE = st.sampled_from(
    ["module", "endmodule", "assign", "and", "nand", "buf", "=", "(", ")", "#", ";",
     "u1", "sub", "casez", "forever", " ", "\n", "/*c*/", "// c\n"]
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.one_of(_FRAGMENTS, _CHARS, _STRUCTURE), max_size=40).map("".join))
def test_generated_text_matches_reference(text):
    assert_same_as_reference(text)
