"""Frozen copy of a unit's fingerprint as computed before the filter stopped
lexing.

Kept only as the oracle for ``test_fingerprint_differential.py``.
``SourceUnit.from_text`` used to lex the whole file, keep its significant
``Token``s and compute the module names, dedup key and logic flag from them;
``classify_rejection`` rebuilt the keyword set from every token. Do not edit
it to follow changes in ``assertforge.corpus``.
"""

from __future__ import annotations

import hashlib

from _lexer_reference import Token, tokenize


def significant(tokens) -> list[Token]:
    return [t for t in tokens if t.kind not in ("whitespace", "comment")]


def _module_names(sig: list[Token]) -> tuple[str, ...]:
    names: list[str] = []
    for i, t in enumerate(sig[:-1]):
        if t.kind == "keyword" and t.text == "module" and sig[i + 1].kind == "identifier":
            names.append(sig[i + 1].text)
    return tuple(names)


def _dedup_key(sig: list[Token]) -> str:
    blob = "".join(f"{t.kind}\x00{t.text}\x01" for t in sig)
    return hashlib.sha256(blob.encode()).hexdigest()


_FUNCTIONAL_KEYWORDS = frozenset(
    {
        "always",
        "always_comb",
        "always_ff",
        "always_latch",
        "if",
        "case",
        "casex",
        "casez",
        "for",
        "while",
        "repeat",
        "forever",
    }
)

_GATE_PRIMITIVES = frozenset(
    """
    and or nand nor xor xnor not buf bufif0 bufif1 notif0 notif1 pulldown
    pullup cmos nmos pmos rcmos rnmos rpmos tran tranif0 tranif1 rtran
    rtranif0 rtranif1
    """.split()
)


def _assign_is_functional(sig: list[Token], assign_idx: int) -> bool:
    i = assign_idx + 1
    while i < len(sig) and not (sig[i].kind == "operator" and sig[i].text == "="):
        i += 1
    ops = 0
    idents = 0
    i += 1
    while i < len(sig) and sig[i].text != ";":
        t = sig[i]
        if t.kind == "operator":
            ops += 1
        elif t.kind == "identifier":
            idents += 1
        i += 1
    return ops >= 1 or idents >= 2


def _has_instantiation(sig: list[Token]) -> bool:
    for i in range(len(sig) - 2):
        a, b, c = sig[i], sig[i + 1], sig[i + 2]
        if a.kind == "identifier":
            if b.kind == "identifier" and c.text == "(":
                return True
            if b.text == "#" and c.text == "(":
                return True
        if a.kind == "keyword" and a.text in _GATE_PRIMITIVES:
            if b.text == "(" or (b.kind == "identifier" and c.text == "("):
                return True
    return False


def _has_functional_logic(sig: list[Token]) -> bool:
    for i, t in enumerate(sig):
        if t.kind == "keyword":
            if t.text in _FUNCTIONAL_KEYWORDS:
                return True
            if t.text == "assign" and _assign_is_functional(sig, i):
                return True
    return _has_instantiation(sig)


def fingerprint(text: str) -> tuple[tuple[str, ...], frozenset[str], str, bool]:
    """(module names, keyword set, dedup key, logic flag) of ``text``."""
    tokens = tokenize(text)
    sig = significant(tokens)
    return (
        _module_names(sig),
        frozenset(t.text for t in tokens if t.kind == "keyword"),
        _dedup_key(sig),
        _has_functional_logic(sig),
    )
