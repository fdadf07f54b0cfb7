"""Differential tests of the filter's one-``findall`` scan.

``corpus._SCAN`` tries its token rules in first-character order, and its
comment rules only after a ``/``. Its ``findall`` must equal that of the
scanner it replaces, which tried every rule in ``_PATTERNS`` order: on every
ordered pair of fixed-table lexemes, joined with and without a space, on
hand-picked operator and literal forms, on the edges of comments and
whitespace, and on Hypothesis-generated text. ``corpus._significant_lexemes``
with ``_kind_of`` must give exactly the ``(kind, text)`` pairs of the
reference lexer's significant tokens, and so of ``tokenize(text)``
(``test_lexer_differential.py``): on the lexer's edge cases, on text that ends
in trivia or inside a comment, on every entry of the fixed lexeme-kind table,
and on Hypothesis-generated text. ``_kind_of`` must give ``_MASTER``'s kind (a
keyword's from the fixed table) of every lexeme of the benchmark and fixture
corpora, and of each kind of lexeme that its first character does not decide.
"""

from __future__ import annotations

import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assertforge import corpus
from fixture_corpus import CORPUS_FILES
from test_lexer_differential import _CHARS, _FRAGMENTS, EDGE_CASES, reference_significant
from test_mutate_differential import bench_gen  # noqa: F401  (a fixture)

TABLE_ORDER_SCAN = re.compile(
    f"(?:{'|'.join(rx for _, rx in corpus._PATTERNS[:2])})*"
    f"({'|'.join(rx for _, rx in corpus._PATTERNS[2:])}|\\Z)",
    re.DOTALL,
)
GENERATED_TEXT = st.lists(st.one_of(_FRAGMENTS, _CHARS, st.text(max_size=3)), max_size=40).map("".join)


def lexer_pairs(text: str) -> list[tuple[str, str]]:
    return [(kind, lexeme) for kind, lexeme, _, _ in reference_significant(text)[0]]


def scan_pairs(text: str) -> list[tuple[str, str]]:
    return [(corpus._kind_of(x), x) for x in corpus._significant_lexemes(text)]


def test_every_pair_of_fixed_lexemes_scans_as_in_table_order():
    fixed = list(corpus._KIND_OF_LEXEME)
    for a, b in product(fixed, repeat=2):
        for text in (a + b, f"{a} {b}"):
            assert corpus._SCAN.findall(text) == TABLE_ORDER_SCAN.findall(text), text


@pytest.mark.parametrize("text", ["'h1F", "::", "##1", "#(", "<->", "|->", "a<<<=b", "==?"])
def test_operator_and_literal_forms_scan_as_in_table_order(text):
    assert corpus._SCAN.findall(text) == TABLE_ORDER_SCAN.findall(text)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(GENERATED_TEXT)
def test_generated_text_scans_as_in_table_order(text):
    assert corpus._SCAN.findall(text) == TABLE_ORDER_SCAN.findall(text)


SCAN_EDGE_CASES = {
    "ends in whitespace": "module m; endmodule\n\t \n",
    "only whitespace": " \n\t",
    "line comment at eof": "assign x = a & b; // trailing note",
    "line comment alone": "//",
    "line comment then newline at eof": "q <= d; // note\n",
    "unterminated block comment": "a = b; /* never\n closed",
    "block comment at eof": "a = b; /* done */",
    "comment openers in strings": '$display("// no /* no"); s = "/*"; t = "//" // yes',
    "escaped identifiers": "\\bus[3] = \\a+b ; \\q\n\\endmodule ",
    "based literals and lone ticks": "4'b10_z 'hF 8'sd5 ' '{1} x' 'b",
    "non-ascii": "wire ü = 1; // é\nλ /* 日本 */ \"ß\" ∑",
    "non-ascii at eof": "a = b;é",
}
# Where a ``/`` is or is not a comment, and whitespace that is not a space.
TRIVIA_EDGE_CASES = {
    "division": "a/b",
    "division over a space": "a/ /b",
    "line comment after a name": "a//b",
    "line comment right after a name at eof": "a//",
    "empty block comment": "/**/x",
    "block comment opened by its own star": "/*/x*/y",
    "unterminated block comment": "/*",
    "slash after a block comment": "x/*y*/ /z",
    "slash then a starred text": "/ *x*/",
    "tab, form feed and vertical tab runs": "a\t\f\v\tb\v\v=\f\t c\t\f\v",
    "crlf lines": "module m;\r\n  assign x = a; // note\r\n/* b\r\n */endmodule\r\n",
    "only trivia": " \t// a\n/* b */\r\n\f/**/\v",
    "empty": "",
}
CASES = {**EDGE_CASES, **SCAN_EDGE_CASES, **TRIVIA_EDGE_CASES}


@pytest.mark.parametrize("name", sorted(TRIVIA_EDGE_CASES))
def test_trivia_edge_cases_scan_as_in_table_order(name):
    text = TRIVIA_EDGE_CASES[name]
    assert corpus._SCAN.findall(text) == TABLE_ORDER_SCAN.findall(text), name


@pytest.mark.parametrize("name", sorted(CASES))
def test_edge_cases_match_the_lexer(name):
    text = CASES[name]
    assert scan_pairs(text) == lexer_pairs(text), name


def test_every_fixed_table_lexeme_has_its_lexer_kind():
    for lexeme, kind in corpus._KIND_OF_LEXEME.items():
        assert lexer_pairs(lexeme) == [(kind, lexeme)], lexeme
        assert scan_pairs(f" {lexeme} ") == [(kind, lexeme)], lexeme
        assert corpus._TAGGED[lexeme] == f"{kind}\x00{lexeme}", lexeme


@settings(max_examples=300, derandomize=True, deadline=None)
@given(GENERATED_TEXT)
def test_generated_text_matches_the_lexer(text):
    assert scan_pairs(text) == lexer_pairs(text)


def master_kind(x: str) -> str:
    """A fixed-table lexeme's kind from that table (a keyword is no identifier),
    any other lexeme's from ``_MASTER``."""
    return corpus._KIND_OF_LEXEME.get(x) or corpus._KIND_OF_GROUP[corpus._MASTER.match(x).lastindex]


def test_every_corpus_lexeme_has_its_master_kind(bench_gen):  # noqa: F811
    texts = [*bench_gen.corpus(1, 400).files.values(), *bench_gen.corpus(29, 400).files.values(),
             *CORPUS_FILES.values()]
    lexemes = {x for text in texts for x in corpus._significant_lexemes(text)}
    assert len(lexemes) > 1_000
    for x in lexemes:
        assert corpus._kind_of(x) == master_kind(x), x


@pytest.mark.parametrize("lexeme", ["'h1", "\\esc", "`define", "$display", "\\", "`", "$", "é"])
def test_lexemes_not_decided_by_their_first_character_have_their_master_kind(lexeme):
    assert lexeme[0] not in corpus._KIND_OF_FIRST
    assert corpus._kind_of(lexeme) == master_kind(lexeme)
    assert corpus._significant_lexemes(lexeme) == [lexeme]
