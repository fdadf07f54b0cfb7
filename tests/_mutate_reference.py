"""Frozen copy of the mutation-site enumeration before its one-pass rework.

Kept only as the oracle for ``test_mutate_differential.py``: this version
re-lexes each line for every kind, rebuilds the identifier pool for every
``Var``/``Non_cond`` check and builds every rewrite list in full. Its
``(line, kinds)`` lists and its records are the behaviour the rework must
reproduce exactly. Do not edit it to follow changes in ``assertforge.mutate``,
save a rule named here. It follows eight: a line is cut into statements at
each ``;`` outside parentheses, and a change's targets are those of the
statement that holds it; a governed region's targets are read by the same
forward rule, statement by statement; ``Op`` swaps no statement's
assignment operator; every statement of a line is a site, so ``Var`` takes
each statement's left-hand names and ``Non_cond`` each statement's
right-hand side, which is every token after its assignment operator; and a
governed region is one statement read whole (a matched ``begin … end`` or
``case … endcase``, ``if (…) S [else S]``, ``for``/``while``/``repeat (…) S``,
or else up to the first ``;`` outside parentheses, each running to the end
of the unit when left open), where a ``case`` condition governs its whole
``case`` statement; an ``if`` condition governs its whole ``if (…) S
[else S]``, read from its keyword as a ``case`` condition's region is; and
a statement's left-hand names are those after its last ``:`` outside
brackets, so a ``case`` item's label is none of them (``x[3:0]`` keeps
``x``); and a block's name, the identifier right after ``begin :``,
``end :``, ``fork :`` or ``join :``, is none of them either.
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
        for pos, i in enumerate(sig_idx):
            if i >= assign_idx:
                break
            t = tokens[i]
            before = [tokens[j].text for j in sig_idx[max(pos - 2, 0) : pos]]
            if t.text == "[":
                bracket_depth += 1
            elif t.text == "]":
                bracket_depth -= 1
            elif t.text == ":" and bracket_depth == 0:
                lhs_idents = []  # rule 7: a case item's label is assigned nothing
            elif t.kind == "identifier" and bracket_depth == 0 and not in_cond_span(i):
                if before not in (["begin", ":"], ["end", ":"], ["fork", ":"], ["join", ":"]):
                    lhs_idents.append(t)  # rule 8: a named block's name is assigned nothing
        rhs = [tokens[i] for i in sig_idx if i > assign_idx]

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


def _statements(tokens):
    """Lossless ``tokens`` cut at each ``;`` outside parentheses, the ``;``
    left out; the last statement follows the last cut and may be empty."""
    stmt, depth = [], 0
    for t in tokens:
        if t.text == ";" and depth == 0:
            yield stmt
            stmt = []
            continue
        depth += (t.text == "(") - (t.text == ")")
        stmt.append(t)
    yield stmt


def _statement_info(stmt) -> _LineInfo:
    return _analyze_line("".join(t.text for t in stmt))


def _assignment_cols(line: str) -> set[int]:
    """The column of each statement's assignment operator on ``line``."""
    cols = set()
    for stmt in _statements(tokenize(line)):
        info = _statement_info(stmt)
        if info.assign_idx is not None:
            cols.add(stmt[0].col + info.tokens[info.assign_idx].col - 1)
    return cols


def _statement_sites(line: str) -> tuple[set[int], set[int]]:
    """The columns of each statement's left-hand names and right-hand tokens
    on ``line``, each statement analysed alone."""
    lhs, rhs = set(), set()
    for stmt in _statements(tokenize(line)):
        if stmt:
            info = _statement_info(stmt)
            lhs |= {stmt[0].col + t.col - 1 for t in info.lhs_idents}
            rhs |= {stmt[0].col + t.col - 1 for t in info.rhs}
    return lhs, rhs


def _op_alternatives(line: str, info: _LineInfo) -> list[str]:
    out = []
    assignments = _assignment_cols(line)
    for t in info.tokens:
        if t.kind != "operator" or t.col in assignments:
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


def _var_site_tokens(line: str, info: _LineInfo) -> list[Token]:
    lhs, rhs = _statement_sites(line)
    sites = [t for t in info.tokens if t.col in lhs]
    sites += [t for t in info.tokens if t.col in rhs and t.kind == "identifier"]
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
    for t in sites if sites is not None else _var_site_tokens(line, info):
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
    rhs = [t for t in info.tokens if t.col in _statement_sites(line)[1]]
    rhs_idents = [t for t in rhs if t.kind == "identifier"]
    out = _var_alternatives(line, info, pool, sites=rhs_idents)
    out += _value_alternatives(line, info, tokens=rhs)
    for t in rhs:
        if t.kind == "operator":
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


_TRIVIA = ("whitespace", "comment")


def _statement_end(sig, i: int) -> int:
    """The index just past the statement that opens at ``sig[i]``, read whole."""
    if i >= len(sig):
        return len(sig)
    head = sig[i].text
    if head in ("if", "for", "while", "repeat") and i + 1 < len(sig) and sig[i + 1].text == "(":
        close = _match_paren(sig, i + 1)
        if close is None:
            return len(sig)
        end = _statement_end(sig, close + 1)
        if head == "if" and end < len(sig) and sig[end].text == "else":
            return _statement_end(sig, end + 1)
        return end
    if head == "begin":
        opens, closes, last = {"begin"}, {"end"}, "end"
    elif head in ("case", "casex", "casez"):
        opens, closes, last = {"case", "casex", "casez"}, {"endcase"}, "endcase"
    else:
        opens, closes, last = {"("}, {")"}, ";"
    depth = 0
    for j in range(i, len(sig)):
        depth += (sig[j].text in opens) - (sig[j].text in closes)
        if sig[j].text == last and depth == 0:
            return j + 1
    return len(sig)


def _governed_targets(unit: SourceUnit, line_no: int, col: int):
    """Assignment targets of the statement that opens at the first token after
    ``col`` on ``line_no``, read whole, each of its statements read by the
    forward rule."""
    toks = [t for t in _stream(unit.text) if (t.line, t.col) > (line_no, col)]
    sig = [t for t in toks if t.kind not in _TRIVIA]
    end = _statement_end(sig, 0)
    if end == 0:
        return frozenset()
    region = [t for t in toks if (t.line, t.col) <= (sig[end - 1].line, sig[end - 1].col)]
    statements = _statements(region)
    return frozenset(t.text for stmt in statements for t in _statement_info(stmt).lhs_idents)


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

    # The change is the first significant token that differs. Inside a
    # condition span of the original line it affects the region that
    # condition governs; elsewhere the names its statement assigns, or when
    # that statement assigns nothing, the region of the line's first condition.
    old = [t for t in tokenize(original) if t.kind not in ("whitespace", "comment")]
    new = list(tokenize(mutated))
    new_sig = [t for t in new if t.kind not in ("whitespace", "comment")]
    at = min(len(old), len(new_sig))
    for i, (a, b) in enumerate(zip(old, new_sig)):
        if (a.kind, a.text) != (b.kind, b.text):
            at = i
            break
    info = _analyze_line(original)

    def governed(span):  # rule 6: an if or case condition governs its whole statement
        label, o, c = span
        if label != "event":
            keyword = [t for t in info.tokens[:o] if t.kind not in _TRIVIA][-1]
            return _governed_targets(unit, line, keyword.col - 1)
        return _governed_targets(unit, line, info.tokens[c].col)

    spans = info.cond_spans
    inside = [s for s in spans if at < len(old)
              and info.tokens[s[1]].col <= old[at].col <= info.tokens[s[2]].col]
    if inside:
        return (line, original, mutated, kind, governed(inside[0]), seed)
    cuts, depth = 0, 0
    for t in new_sig[:at]:
        if t.text == ";" and depth == 0:
            cuts += 1
        depth += (t.text == "(") - (t.text == ")")
    stmt = _statement_info(list(_statements(new))[cuts])
    if stmt.assign_idx is not None:
        targets = frozenset(t.text for t in stmt.lhs_idents)
    elif spans:
        targets = governed(spans[0])
    else:
        targets = frozenset()
    return (line, original, mutated, kind, targets, seed)
