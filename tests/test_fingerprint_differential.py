"""Differential test: the filter's one scan against the fingerprint of the
lossless token stream it replaces.

``_fingerprint_reference`` computes a unit's module names, keyword set, dedup
key and logic flag the way they were computed before the filter stopped
lexing. On the fixture corpus, the duplicate corpus of the CLI tests, the
lexer edge cases and Hypothesis-generated text, the filter's status must
follow from the reference's keyword set and logic flag, without lexing the
unit, and be the same when the unit was lexed first; the dedup key of the
scan's pairs must equal the reference's; a lexed unit's tokens must sit at
their positions; and ``SourceUnit.module_names``, which ``augment`` reads
from a lexed unit's tokens, must equal its module names.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _fingerprint_reference as ref
from assertforge import corpus
from assertforge.corpus import SourceUnit
from fixture_corpus import CORPUS_FILES
from test_cli import DUP_CORPUS
from test_corpus import status_of
from test_lexer_differential import _CHARS, _FRAGMENTS, EDGE_CASES, assert_positions


def reference_row(keywords: frozenset[str], has_logic: bool) -> tuple[str, str]:
    """The (status, detail) the filter rules give a lone unit with this
    keyword set and logic flag."""
    missing = [w for w in ("module", "endmodule") if w not in keywords]
    if missing:
        return "missing_module_boundary", f"missing keyword(s): {', '.join(missing)}"
    if not has_logic:
        return "no_functional_logic", (
            "no procedural block, control flow, computing assign, or instantiation")
    return "accepted", ""


def assert_same_as_reference(text: str, label: str = "") -> None:
    module_names, keywords, dedup_key, has_logic = ref.fingerprint(text)
    want = reference_row(keywords, has_logic)
    scanned = SourceUnit(id="scanned", path="", text=text)
    assert status_of(scanned) == want, label
    assert "tokens" not in scanned.__dict__, label  # the filter did not lex
    assert corpus._dedup_key(corpus._significant_lexemes(text)) == dedup_key, label
    lexed = SourceUnit(id="lexed", path="", text=text)
    assert_positions(text, lexed.tokens, label)  # lexed first
    assert status_of(lexed) == want, label
    assert lexed.module_names == module_names, label


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
