"""Frozen copy of the mutation-site enumeration before its one-pass rework.

Kept only as the oracle for ``test_mutate_differential.py``: this version
re-lexes each line for every kind, rebuilds the identifier pool for every
``Var``/``Non_cond`` check and builds every rewrite list in full. Its
``(line, kinds)`` lists and its records are the behaviour the rework must
reproduce exactly. Do not edit it to follow changes in ``assertforge.mutate``.
Its tokens come from the lossless stream of ``_lexer_reference``, the lexer
as it was when this copy was frozen.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from _lexer_reference import Token, tokenize
from assertforge.corpus import SourceUnit
from assertforge.errors import DomainError, NoAlternativeError

SYNTACTIC_KINDS = ("Var", "Value", "Op", "Cond", "Non_cond")

OP_SWAP_CLASSES: tuple[tuple[str, ...], ...] = (
    ("|", "&", "^"),
    ("+", "-"),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


@lru_cache(maxsize=4)
def _stream(text: str):
    """A unit's lossless token stream, lexed once for all its lines."""
    return tokenize(text)


@dataclass
class _LineInfo:
    tokens: list[Token]
    assign_idx: int | None  # token index of the assignment operator
    lhs_idents: list[Token]
    rhs: list[Token]  # significant tokens right of the assignment op
    cond_spans: list[tuple[str, int, int]]  # (label, open-paren idx, close idx)

    def cond_interior(self, span) -> list[Token]:
        _, o, c = span
        return [
            t
            for t in self.tokens[o + 1 : c]
            if t.kind not in ("whitespace", "comment")
        ]


_OPEN = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = {")", "]", "}"}


def _match_paren(tokens, open_idx) -> int | None:
    depth = 0
    for i in range(open_idx, len(tokens)):
        if tokens[i].text == "(":
            depth += 1
        elif tokens[i].text == ")":
            depth -= 1
            if depth == 0:
                return i
    return None


def _analyze_line(line_text: str) -> _LineInfo:
    tokens = list(tokenize(line_text))
    sig_idx = [i for i, t in enumerate(tokens) if t.kind not in ("whitespace", "comment")]

    # Condition spans: if/case(…), and event controls @(...).
    cond_spans: list[tuple[str, int, int]] = []
    for pos, i in enumerate(sig_idx):
        t = tokens[i]
        label = None
        if t.kind == "keyword" and t.text in ("if", "case", "casex", "casez"):
            label = "if" if t.text == "if" else "case"
        elif t.text == "@":
            label = "event"
        if label is None:
            continue
        if pos + 1 < len(sig_idx) and tokens[sig_idx[pos + 1]].text == "(":
            close = _match_paren(tokens, sig_idx[pos + 1])
            if close is not None:
                cond_spans.append((label, sig_idx[pos + 1], close))

    def in_cond_span(i: int) -> bool:
        return any(o <= i <= c for _, o, c in cond_spans)

    # Assignment operator: first '=' or '<=' at parenthesis depth 0 preceded
    # by an identifier outside any condition span. Only parens gate the scan:
    # concatenation targets like {cout, sum} and indexed targets stay visible.
    assign_idx = None
    paren_depth = 0
    seen_lhs_ident = False
    for i in sig_idx:
        t = tokens[i]
        if t.text == "(":
            paren_depth += 1
        elif t.text == ")":
            paren_depth -= 1
        elif (
            paren_depth == 0
            and t.kind == "operator"
            and t.text in ("=", "<=")
            and seen_lhs_ident
        ):
            assign_idx = i
            break
        if t.kind == "identifier" and paren_depth == 0 and not in_cond_span(i):
            seen_lhs_ident = True

    lhs_idents: list[Token] = []
    rhs: list[Token] = []
    if assign_idx is not None:
        bracket_depth = 0
        for i in sig_idx:
            if i >= assign_idx:
                break
            t = tokens[i]
            if t.text == "[":
                bracket_depth += 1
            elif t.text == "]":
                bracket_depth -= 1
            elif t.kind == "identifier" and bracket_depth == 0 and not in_cond_span(i):
                lhs_idents.append(t)
        depth = 0
        for i in sig_idx:
            if i <= assign_idx:
                continue
            t = tokens[i]
            if t.text in _OPEN:
                depth += 1
            elif t.text in _CLOSERS:
                depth -= 1
            elif t.text == ";" and depth == 0:
                break
            rhs.append(t)

    return _LineInfo(tokens, assign_idx, lhs_idents, rhs, cond_spans)


def _replace_token(line: str, tok: Token, new_text: str) -> str:
    c = tok.col - 1
    return line[:c] + new_text + line[c + len(tok.text) :]


# ---------------------------------------------------------------------------
# Alternative rewrites per kind


def _class_of(op_text: str) -> tuple[str, ...] | None:
    for cls in OP_SWAP_CLASSES:
        if op_text in cls:
            return cls
    return None


def _op_alternatives(line: str, info: _LineInfo) -> list[str]:
    out = []
    for i, t in enumerate(info.tokens):
        if t.kind != "operator" or i == info.assign_idx:
            continue
        cls = _class_of(t.text)
        if cls is None:
            continue
        for repl in cls:
            if repl != t.text:
                out.append(_replace_token(line, t, repl))
    return out


_BASED_RE = re.compile(r"(\d[\d_]*)?('[sS]?)([bBoOdDhH])([0-9a-fA-FxXzZ?_]+)")


def _literal_variants(text: str) -> list[str]:
    m = _BASED_RE.fullmatch(text)
    if m:
        size = m.group(1) or ""
        tick = m.group(2)
        base = m.group(3)
        digits = m.group(4).replace("_", "")
        variants: list[str] = []
        bl = base.lower()
        if bl == "b":
            for i, ch in enumerate(digits):
                if ch in "01":
                    flipped = digits[:i] + ("1" if ch == "0" else "0") + digits[i + 1 :]
                    variants.append(size + tick + base + flipped)
        elif bl in ("h", "o"):
            width = 4 if bl == "h" else 3
            for i, ch in enumerate(digits):
                try:
                    v = int(ch, 16 if bl == "h" else 8)
                except ValueError:
                    continue  # x/z/? digits admit no bit flip
                for bit in range(width):
                    nv = v ^ (1 << bit)
                    nd = format(nv, "x" if bl == "h" else "o")
                    if ch.isupper():
                        nd = nd.upper()
                    variants.append(size + tick + base + digits[:i] + nd + digits[i + 1 :])
        else:  # decimal base
            clean = digits
            if clean.isdigit():
                n = int(clean)
                variants.append(size + tick + base + str(n + 1))
                if n > 0:
                    variants.append(size + tick + base + str(n - 1))
        return [v for v in variants if v != text]
    # Plain decimal / real: bump the leading integer part by +/-1.
    m = re.match(r"\d+", text.replace("_", ""))
    if not m:
        return []
    head = m.group()
    rest = text.replace("_", "")[len(head) :]
    n = int(head)
    out = [str(n + 1) + rest]
    if n > 0:
        out.append(str(n - 1) + rest)
    return [v for v in out if v != text]


def _value_alternatives(line: str, info: _LineInfo, tokens=None) -> list[str]:
    out = []
    pool = tokens if tokens is not None else info.tokens
    for t in pool:
        if t.kind != "number":
            continue
        for variant in _literal_variants(t.text):
            out.append(_replace_token(line, t, variant))
    return out


def _identifier_pool(unit: SourceUnit) -> list[str]:
    names = {t.text for t in _stream(unit.text) if t.kind == "identifier"}
    names.add("input")  # reserved-word replacement, as in the Var taxonomy row
    return sorted(names)


def _var_site_tokens(info: _LineInfo) -> list[Token]:
    sites = list(info.lhs_idents)
    sites += [t for t in info.rhs if t.kind == "identifier"]
    for span in info.cond_spans:
        sites += [t for t in info.cond_interior(span) if t.kind == "identifier"]
    seen = set()
    ordered = []
    for t in sorted(sites, key=lambda t: t.col):
        if t.col not in seen:
            seen.add(t.col)
            ordered.append(t)
    return ordered


def _var_alternatives(line: str, info: _LineInfo, pool: list[str], sites=None) -> list[str]:
    out = []
    for t in sites if sites is not None else _var_site_tokens(info):
        for cand in pool:
            if cand != t.text:
                out.append(_replace_token(line, t, cand))
    return out


def _negate_condition(line: str, info: _LineInfo, span) -> str | None:
    _, o, c = span
    open_char = info.tokens[o].col  # char index just past '('
    close_char = info.tokens[c].col - 1
    inner = line[open_char:close_char]
    cond = inner.strip()
    if not cond:
        return None
    if _IDENT_RE.fullmatch(cond):
        neg = "!" + cond
    elif cond.startswith("!") and _IDENT_RE.fullmatch(cond[1:].strip()):
        neg = cond[1:].strip()
    else:
        neg = "!(" + cond + ")"
    return line[:open_char] + neg + line[close_char:]


def _cond_alternatives(line: str, info: _LineInfo) -> list[str]:
    out: list[str] = []
    for span in info.cond_spans:
        label = span[0]
        if label in ("if", "case"):
            neg = _negate_condition(line, info, span)
            if neg is not None and neg != line:
                out.append(neg)
        else:  # event control: swap the clock edge
            for t in info.cond_interior(span):
                if t.kind == "keyword" and t.text == "posedge":
                    out.append(_replace_token(line, t, "negedge"))
                elif t.kind == "keyword" and t.text == "negedge":
                    out.append(_replace_token(line, t, "posedge"))
    for span in info.cond_spans:
        if span[0] == "event":
            continue
        for t in info.cond_interior(span):
            if t.kind == "operator":
                cls = _class_of(t.text)
                if cls in (OP_SWAP_CLASSES[2], OP_SWAP_CLASSES[3]):
                    for repl in cls:
                        if repl != t.text:
                            out.append(_replace_token(line, t, repl))
    return out


def _non_cond_alternatives(line: str, info: _LineInfo, pool: list[str]) -> list[str]:
    if info.assign_idx is None:
        return []
    rhs_idents = [t for t in info.rhs if t.kind == "identifier"]
    out = _var_alternatives(line, info, pool, sites=rhs_idents)
    out += _value_alternatives(line, info, tokens=info.rhs)
    rhs_set = {(t.line, t.col) for t in info.rhs}
    for i, t in enumerate(info.tokens):
        if t.kind == "operator" and (t.line, t.col) in rhs_set and i != info.assign_idx:
            cls = _class_of(t.text)
            if cls:
                for repl in cls:
                    if repl != t.text:
                        out.append(_replace_token(line, t, repl))
    return out


def _alternatives(unit: SourceUnit, line_text: str, kind: str) -> list[str]:
    info = _analyze_line(line_text)
    if kind == "Op":
        alts = _op_alternatives(line_text, info)
    elif kind == "Value":
        alts = _value_alternatives(line_text, info)
    elif kind == "Var":
        alts = _var_alternatives(line_text, info, _identifier_pool(unit))
    elif kind == "Cond":
        alts = _cond_alternatives(line_text, info)
    elif kind == "Non_cond":
        alts = _non_cond_alternatives(line_text, info, _identifier_pool(unit))
    else:
        raise DomainError(f"unknown mutation kind: {kind!r}")
    return [a for a in alts if a != line_text and "\n" not in a]


def _tainted_lines(unit: SourceUnit) -> set[int]:
    """Lines overlapped by a multi-line comment or string; unsafe to rewrite."""
    tainted: set[int] = set()
    for t in _stream(unit.text):
        if t.kind in ("comment", "string") and "\n" in t.text:
            tainted.update(range(t.line, t.line + t.text.count("\n") + 1))
    return tainted


def enumerate_sites(unit: SourceUnit) -> list[tuple[int, tuple[str, ...]]]:
    """All (line, admissible mutation kinds) pairs for a unit.

    A kind is listed only when at least one legal rewrite exists for it, so
    every returned pair is a valid apply_mutation target.
    """
    tainted = _tainted_lines(unit)
    lines = unit.text.split("\n")
    sites = []
    for ln, line_text in enumerate(lines, start=1):
        if ln in tainted or not line_text.strip():
            continue
        kinds = tuple(k for k in SYNTACTIC_KINDS if _alternatives(unit, line_text, k))
        if kinds:
            sites.append((ln, kinds))
    return sites


def _governed_targets(unit: SourceUnit, line_no: int, info: _LineInfo):
    """Assignment targets governed by the condition on ``line_no``.

    Used when the mutated line itself assigns nothing (e.g. a bare `if` or an
    `always @(...)` header). Scans the single governed statement, or the
    begin/end block, that follows.
    """
    if not info.cond_spans:
        return frozenset(), "no condition span found"
    close_tok = info.tokens[info.cond_spans[0][2]]
    toks = [
        t
        for t in _stream(unit.text)
        if t.kind not in ("whitespace", "comment")
        and (t.line, t.col) > (line_no, close_tok.col)
    ]
    if not toks:
        return frozenset(), "no governed statement found"
    # Bound the region: begin/end block or single statement up to ';'.
    region: list[Token] = []
    if toks[0].kind == "keyword" and toks[0].text == "begin":
        depth = 0
        for t in toks:
            if t.kind == "keyword" and t.text == "begin":
                depth += 1
            elif t.kind == "keyword" and t.text == "end":
                depth -= 1
                if depth == 0:
                    break
            region.append(t)
    else:
        for t in toks:
            if t.text == ";":
                break
            region.append(t)
    targets: set[str] = set()
    boundary = {";", "begin", ")", "else"}
    paren = 0  # a `<=` inside parentheses compares; it assigns nothing
    for i, t in enumerate(region):
        paren += (t.text == "(") - (t.text == ")")
        if t.kind == "operator" and (t.text == "=" or (t.text == "<=" and paren <= 0)):
            j = i - 1
            bracket = 0
            while j >= 0 and region[j].text not in boundary:
                if region[j].text == "]":
                    bracket += 1
                elif region[j].text == "[":
                    bracket -= 1
                elif region[j].kind == "identifier" and bracket == 0:
                    targets.add(region[j].text)
                j -= 1
    if targets:
        return frozenset(targets), ""
    return frozenset(), "no assignment governed by mutated condition"


def apply_mutation(unit: SourceUnit, line: int, kind: str, seed: int) -> tuple:
    """Produce the seed-selected mutation of ``kind`` on ``line``: the
    record's fields, ``(line, original, mutated, kind, lhs_targets, seed)``.

    Raises NoAlternativeError when the site admits no legal distinct rewrite.
    """
    lines = unit.text.split("\n")
    if not (1 <= line <= len(lines)):
        raise DomainError(f"line {line} out of range for unit {unit.id}")
    if kind not in SYNTACTIC_KINDS:
        raise DomainError(f"unknown mutation kind: {kind!r}")
    original = lines[line - 1]
    alts = _alternatives(unit, original, kind)
    if not alts:
        raise NoAlternativeError(f"{unit.id}:{line} admits no {kind} mutation")
    mutated = alts[seed % len(alts)]

    mut_info = _analyze_line(mutated)
    detail = ""
    if mut_info.assign_idx is not None:
        targets = frozenset(t.text for t in mut_info.lhs_idents)
    else:
        # Condition-only lines: the affected signals are the ones assigned in
        # the governed statement/block, which lives on the unchanged lines.
        targets, detail = _governed_targets(unit, line, _analyze_line(original))
    return (line, original, mutated, kind, targets, seed)
