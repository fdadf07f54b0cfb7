"""Frozen copy of the Verilog lexer before its one-pass rework.

Kept only as the oracle for ``test_lexer_differential.py``: this version
tries twelve ordered patterns at every position and builds a frozen dataclass
per token. Its ``(kind, text, line, col)`` streams are the behaviour the
rework must reproduce exactly. Do not edit it to follow changes in
``assertforge.corpus``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from assertforge.corpus import KEYWORDS

_OPERATORS = (
    ">>>=",
    "<<<=",
    "<<<",
    ">>>",
    "===",
    "!==",
    "==?",
    "!=?",
    "|->",
    "|=>",
    "<->",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "~&",
    "~|",
    "~^",
    "^~",
    "->",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "::",
    "##",
    "**",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "~",
    "!",
    "<",
    ">",
    "=",
    "?",
)

# Ordered scanner: first pattern that matches at the cursor wins.
_PATTERNS: tuple[tuple[str, re.Pattern[str]], ...] = (
    ("whitespace", re.compile(r"[ \t\r\n\f\v]+")),
    ("comment", re.compile(r"//[^\n]*|/\*.*?\*/|/\*.*", re.DOTALL)),
    ("string", re.compile(r'"(?:[^"\\\n]|\\.)*"?', re.DOTALL)),
    ("number", re.compile(r"(?:\d[\d_]*)?'[sS]?[bBoOdDhH][0-9a-fA-FxXzZ?_]+")),
    (
        "number",
        re.compile(r"\d[\d_]*\.\d[\d_]*(?:[eE][+-]?\d[\d_]*)?|\d[\d_]*(?:[eE][+-]?\d[\d_]*)?"),
    ),
    ("identifier", re.compile(r"\\[^ \t\r\n\f\v]+")),  # escaped identifier
    ("other", re.compile(r"`[A-Za-z_][A-Za-z0-9_$]*")),  # compiler directive
    ("other", re.compile(r"\$[A-Za-z_][A-Za-z0-9_$]*")),  # system task/function
    ("identifier", re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")),
    ("operator", re.compile("|".join(re.escape(op) for op in _OPERATORS))),
    ("punctuation", re.compile(r"[()\[\]{};,.:@#']")),
    ("other", re.compile(r"[\s\S]")),
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int  # 1-based
    col: int  # 1-based


def tokenize(text: str) -> tuple[Token, ...]:
    """Lex Verilog/SystemVerilog source into a lossless token stream.

    Concatenating the returned lexemes reproduces ``text`` byte for byte.
    Unknown bytes become single-character "other" tokens.
    """
    tokens: list[Token] = []
    pos, line, col = 0, 1, 1
    n = len(text)
    while pos < n:
        for kind, rx in _PATTERNS:
            m = rx.match(text, pos)
            if m:
                break
        lexeme = m.group()
        if kind == "identifier" and lexeme in KEYWORDS:
            kind = "keyword"
        tokens.append(Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    return tuple(tokens)
