"""Differential test: the one-pass lexer against its pre-rework copy.

``_lexer_reference`` is the lexer as it was before its patterns were joined
into one master pattern and its tokens became tuples. The
``(kind, text, line, col)`` streams must match it exactly on the fixture
corpus, on hand-picked edge cases and on Hypothesis-generated text, and the
fixture corpus must keep its dedup keys.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _lexer_reference as ref
from assertforge import corpus
from assertforge.corpus import tokenize
from fixture_corpus import CORPUS_FILES


def assert_same_as_reference(text: str, label: str = "") -> None:
    got = [tuple(t) for t in tokenize(text)]
    assert got == [(t.kind, t.text, t.line, t.col) for t in ref.tokenize(text)], label


def test_fixture_corpus_matches_reference():
    for name, text in CORPUS_FILES.items():
        assert_same_as_reference(text, name)


def test_dedup_keys_match_reference():
    # The key used to hash each significant token's kind and text in turn.
    for name, text in CORPUS_FILES.items():
        h = hashlib.sha256()
        for t in ref.tokenize(text):
            if t.kind not in ("whitespace", "comment"):
                h.update(t.kind.encode() + b"\x00" + t.text.encode() + b"\x01")
        assert corpus._dedup_key(corpus._significant_pairs(text)) == h.hexdigest(), name


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


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.one_of(_FRAGMENTS, _CHARS), max_size=40).map("".join))
def test_generated_text_matches_reference(text):
    assert_same_as_reference(text)
