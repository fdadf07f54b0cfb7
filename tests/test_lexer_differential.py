"""Differential test: the one-pass lexer against its pre-rework copy.

``_lexer_reference`` is the lexer as it was before its patterns were joined
into one pattern and it kept only the significant tokens. ``tokenize`` must
give exactly the reference's tokens other than whitespace and comments, as
``(kind, text, line, col)``, and the same tainted lines: those a comment or
string spanning lines overlaps. Each token's text must sit at its
``(line, col)``, and the text between tokens must lex, by the reference, to
whitespace and comments only. This must hold on the fixture corpus, the
benchmark's augment units, hand-picked edge cases and Hypothesis-generated
text, and the fixture corpus must keep its dedup keys.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _lexer_reference as ref
from assertforge import corpus
from assertforge.corpus import tokenize
from fixture_corpus import CORPUS_FILES
from test_mutate_differential import bench_gen  # noqa: F401  (a fixture)

TRIVIA = ("whitespace", "comment")


def reference_significant(text: str) -> tuple[list[tuple], frozenset[int]]:
    """The reference's significant ``(kind, text, line, col)`` tokens and the
    lines a multi-line comment or string overlaps."""
    tokens, tainted = [], set()
    for t in ref.tokenize(text):
        if t.kind not in TRIVIA:
            tokens.append((t.kind, t.text, t.line, t.col))
        if t.kind in ("comment", "string") and "\n" in t.text:
            tainted.update(range(t.line, t.line + t.text.count("\n") + 1))
    return tokens, frozenset(tainted)


def assert_positions(text: str, tokens, label: str = "") -> None:
    """Each token's text sits at its ``(line, col)``, in order, and the text
    between tokens lexes by the reference to whitespace and comments only."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    end = 0
    for t in tokens:
        at = line_starts[t.line - 1] + t.col - 1
        assert end <= at and bisect_right(line_starts, at) == t.line, (label, t)
        assert text.startswith(t.text, at), (label, t)
        assert {g.kind for g in ref.tokenize(text[end:at])} <= set(TRIVIA), (label, t)
        end = at + len(t.text)
    assert {g.kind for g in ref.tokenize(text[end:])} <= set(TRIVIA), label


def assert_same_as_reference(text: str, label: str = "") -> None:
    got = tokenize(text)
    want, tainted = reference_significant(text)
    assert [tuple(t) for t in got] == want, label
    assert got.tainted == tainted, label
    assert_positions(text, got, label)


def test_fixture_corpus_matches_reference():
    for name, text in CORPUS_FILES.items():
        assert_same_as_reference(text, name)


@pytest.mark.parametrize("seed", [1, 7])
def test_bench_units_match_reference(bench_gen, seed):  # noqa: F811
    for uid, text in bench_gen.units(seed, 40).texts.items():
        assert_same_as_reference(text, uid)


def test_dedup_keys_match_reference():
    # The key used to hash each significant token's kind and text in turn.
    for name, text in CORPUS_FILES.items():
        h = hashlib.sha256()
        for t in ref.tokenize(text):
            if t.kind not in TRIVIA:
                h.update(t.kind.encode() + b"\x00" + t.text.encode() + b"\x01")
        assert corpus._dedup_key(corpus._significant_lexemes(text)) == h.hexdigest(), name


EDGE_CASES = {
    "unterminated string": 'x = "abc\ny = 1;',
    "unterminated string at eof": '$display("never closed',
    "open block comment": "a = b; /* runs\n to the end\n",
    "block comment then code": "/* one\n two */ q <= d;\n",
    "nested comment openers": "/* /* */ */ // /* \n",
    "backslash-newline in string": '"first \\\nsecond" ; z = 1;',
    "escaped quote in string": '"say \\"hi\\"" x',
    "escaped identifier": "\\bus[3] = \\a+b ;\n\\module x",
    "directives": "`define W 8\n`ifdef SIM `include \"t.vh\" `endif\n`timescale 1ns/1ps",
    "system tasks": "$display(\"%d\", $time); $finish; $ ; $$x",
    "based literals": "4'b10_1z 8'hFf_x? 'd5 2'sb01 12'o7_7 'h 3'B1 16'SD9",
    "real literals": "1.5 2.5e3 3E-2 1_000.0_1 7e+4 1. .5 9_",
    "underscored literals": "1_000 32'h_dead_beef 4'b____",
    "shift assigns": "a <<<= 2; b >>>= 1; c <<= d >>= e <<< f >>> g;",
    "wildcard equality": "a ==? b; c !=? d; e === f; g !== h;",
    "implications": "a |-> b; c |=> d; e <-> f; g -> h;",
    "cycle delays": "##1 a ##[1:3] b ## c # (2) d",
    "crlf line ends": "module m;\r\n  assign x = a & b;\r\nendmodule\r\n",
    "lone carriage returns": "a\rb\r\nc\n\r",
    "nul and del": "a\x00b\x7f = c;\x00",
    "non-ascii": "// héllo\nwire ü = 1; /* 日本 */ \"ß\" λ",
    "form feed and vertical tab": "a\f=\vb;\n",
    "tick forms": "' '{1, 2} 'b 4' x'y",
    "trailing backslash": "a = b \\\nc",
    "empty": "",
    "line comment hides a block opener": "a = b; // no /* here\nc = d; /* but\n here */ e;",
    "two multi-line comments in one gap": "a;\n/* x\n */ /* y\n\n */\n// z\nb;",
    "comment and string spanning lines": 'a = "s\\\nt"; /* c\n */ b = 1;',
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_reference(name):
    assert_same_as_reference(EDGE_CASES[name], name)


_FRAGMENTS = st.sampled_from(
    [
        "module", "endmodule", "assign", "always", "posedge", "if", "wire", "reg",
        "a", "q_1", "x$y", "\\esc", "`define", "$time", "4'b10", "8'hFz", "'d5",
        "1.5e3", "1_0", "<<<=", ">>>=", "==?", "!=?", "|->", "|=>", "##", "<=",
        "//", "/*", "*/", '"', "\\\n", "\r\n", "\n", " ", "\t", "(", ")", ";",
        "[", "]", "{", "}", "@", "#", "'", "\x00", "\x7f", "é",
    ]
)
_CHARS = st.text(alphabet="ab01'bhdxz_.eE+-=<>!?&|^~*/%(){}[];:,@#$`\\\" \t\r\n", max_size=4)
# Text that spans lines or hides one lexeme's openers inside another.
_SPANNING = st.sampled_from(
    [
        "/* one\n two */", "/*\n\n*/", '"esc \\\n aped"', '"a\\\nb\\\nc"', "\\a/*b ",
        '\\q"r ', '"// not a comment"', '"/* nor this */"', "// tail /* \n",
    ]
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.one_of(_FRAGMENTS, _CHARS), max_size=40).map("".join))
def test_generated_text_matches_reference(text):
    assert_same_as_reference(text)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.tuples(st.lists(st.one_of(_SPANNING, _FRAGMENTS, _CHARS), max_size=30).map("".join),
                 st.sampled_from(["", "/*", "/* left\n open\n"])).map("".join))
def test_generated_spanning_text_matches_reference(text):
    assert_same_as_reference(text)
