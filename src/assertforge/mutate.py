"""Single-line bug injection for Verilog sources.

Five mutation kinds are supported, each realized as a deterministic rewrite
of exactly one line:

  Var      replace one identifier in an expression with another in-scope
           identifier (or the reserved word `input`)
  Value    flip one bit of a sized literal, or perturb a decimal by +/-1
  Op       swap a binary operator, never an assignment, within its class
  Cond     negate/alter an `if`/`case` condition or an event edge
  Non_cond perturb the right-hand side of an assignment, leaving any
           condition on the line untouched

A (unit, line, kind, seed) quadruple always produces the same record; the
seed indexes into the deterministically ordered list of legal rewrites.
``edit`` builds every record: a change affects the names that its statement
(cut at each ``;`` outside parentheses) assigns or its condition governs.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, groupby, islice
from operator import attrgetter
from weakref import WeakKeyDictionary

from .corpus import SourceUnit, Token, tokenize
from .errors import AssertForgeError, DomainError, NoAlternativeError

SYNTACTIC_KINDS = ("Var", "Value", "Op", "Cond", "Non_cond")

# Arity-preserving swap classes; a swapped operator keeps the line parseable.
OP_SWAP_CLASSES: tuple[tuple[str, ...], ...] = (
    ("|", "&", "^"),
    ("+", "-"),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
)
_SWAPPABLE = frozenset(op for cls in OP_SWAP_CLASSES for op in cls)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


@dataclass(frozen=True)
class MutationRecord:
    """One single-line bug; ``classify_relation`` gives its relation to an assertion."""

    line: int  # 1-based
    original_snippet: str
    mutated_snippet: str
    kind: str  # one of SYNTACTIC_KINDS
    lhs_targets: frozenset[str]
    rng_seed: int

    def __post_init__(self):
        if self.original_snippet == self.mutated_snippet:
            raise ValueError("mutation must change the line")
        if "\n" in self.mutated_snippet:
            raise ValueError("mutated snippet must stay on one line")

    def apply_to(self, text: str) -> str:
        """Rewrite the record's line inside the full original source."""
        lines = text.split("\n")
        if not (1 <= self.line <= len(lines)):
            raise DomainError(f"line {self.line} out of range")
        if lines[self.line - 1] != self.original_snippet:
            raise DomainError("original text does not match record snippet")
        lines[self.line - 1] = self.mutated_snippet
        return "\n".join(lines)


def extract_referenced_signals(sva_text: str) -> frozenset[str]:
    """Identifiers referenced by an assertion, minus keywords and system tasks.
    Text with unbalanced parentheses or no ``assert`` keyword is not one."""
    if not sva_text:
        raise DomainError("empty assertion text")
    depth = 0
    toks = tokenize(sva_text)
    for t in toks:
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
            if depth < 0:
                raise AssertForgeError("unbalanced parentheses in assertion")
    if depth != 0:
        raise AssertForgeError("unbalanced parentheses in assertion")
    if not any(t.kind == "keyword" and t.text == "assert" for t in toks):
        raise AssertForgeError("assertion has no assert keyword")
    return frozenset(t.text for t in toks if t.kind == "identifier")


# ---------------------------------------------------------------------------
# Per-line analysis


@dataclass
class _LineInfo:
    tokens: list[Token]  # significant tokens only
    assign_idx: int | None  # token index of the assignment operator
    lhs_idents: list[Token]
    rhs: list[Token]  # tokens right of the assignment op
    cond_spans: list[tuple[str, int, int]]  # (label, open-paren idx, close idx)
    assigns: list[int]  # token index of each statement's assignment operator

    def cond_interior(self, span) -> list[Token]:
        _, o, c = span
        return self.tokens[o + 1 : c]


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


def _analyze_tokens(tokens: list[Token]) -> _LineInfo:
    """Structure of one line, given its significant tokens, and the assignment
    of each of its statements as ``_statements`` cuts them."""
    # Condition spans: if/case(…), and event controls @(...). Each `;` outside
    # parentheses is a cut: a statement starts at paren depth 0.
    cond_spans: list[tuple[str, int, int]] = []
    cuts: list[int] = []
    depth = 0
    for i, t in enumerate(tokens):
        depth += (t.text == "(") - (t.text == ")")
        if t.text == ";" and depth == 0:
            cuts.append(i)
        label = None
        if t.kind == "keyword" and t.text in ("if", "case", "casex", "casez"):
            label = "if" if t.text == "if" else "case"
        elif t.text == "@":
            label = "event"
        if label is None:
            continue
        if i + 1 < len(tokens) and tokens[i + 1].text == "(":
            close = _match_paren(tokens, i + 1)
            if close is not None:
                cond_spans.append((label, i + 1, close))

    in_cond = {i for _, o, c in cond_spans for i in range(o, c + 1)}
    # A span that a cut crosses is no condition of the statement it opens in.
    stmt_cond = {i for _, o, c in cond_spans if bisect_left(cuts, o) == bisect_left(cuts, c)
                 for i in range(o, c + 1)}

    # Assignment operator: first '=' or '<=' at parenthesis depth 0 preceded
    # by an identifier outside any condition span, in the line and in each
    # statement. Only parens gate the scan: concatenation targets like
    # {cout, sum} and indexed targets stay visible.
    assign_idx = None
    assigns: list[int] = []
    paren_depth = 0
    seen_lhs_ident = seen_stmt_ident = stmt_assigned = False
    for i, t in enumerate(tokens):
        if t.text == "(":
            paren_depth += 1
        elif t.text == ")":
            paren_depth -= 1
        elif paren_depth != 0:
            continue
        elif t.text == ";":
            seen_stmt_ident = stmt_assigned = False
        elif t.kind == "identifier":
            seen_lhs_ident = seen_lhs_ident or i not in in_cond
            seen_stmt_ident = seen_stmt_ident or i not in stmt_cond
        elif t.kind == "operator" and t.text in ("=", "<="):
            if seen_lhs_ident and assign_idx is None:
                assign_idx = i
            if seen_stmt_ident and not stmt_assigned:
                assigns.append(i)
                stmt_assigned = True

    lhs_idents: list[Token] = []
    rhs: list[Token] = []
    if assign_idx is not None:
        bracket_depth = 0
        for i, t in enumerate(tokens[:assign_idx]):
            if t.text == "[":
                bracket_depth += 1
            elif t.text == "]":
                bracket_depth -= 1
            elif t.kind == "identifier" and bracket_depth == 0 and i not in in_cond:
                lhs_idents.append(t)
        depth = 0
        for t in tokens[assign_idx + 1 :]:
            if t.text in _OPEN:
                depth += 1
            elif t.text in _CLOSERS:
                depth -= 1
            elif t.text == ";" and depth == 0:
                break
            rhs.append(t)

    return _LineInfo(tokens, assign_idx, lhs_idents, rhs, cond_spans, assigns)


_LINE, _KIND, _TEXT = attrgetter("line"), attrgetter("kind"), attrgetter("text")


def _statements(tokens: Iterable[Token]) -> Iterator[list[Token]]:
    """``tokens`` cut at each ``;`` outside parentheses, which is left out."""
    stmt, depth = [], 0
    for t in tokens:
        if t.text == ";" and depth == 0:
            yield stmt
            stmt = []
        else:
            depth += (t.text == "(") - (t.text == ")")
            stmt.append(t)
    yield stmt


def _op_sites(info: _LineInfo) -> list[Token]:
    """The line's tokens but each statement's assignment operator."""
    return [t for i, t in enumerate(info.tokens) if i not in info.assigns]


def _replace_token(line: str, tok: Token, new_text: str) -> str:
    c = tok.col - 1
    return line[:c] + new_text + line[c + len(tok.text) :]


# ---------------------------------------------------------------------------
# Alternative rewrites per kind
#
# Each kind's rewrites come from a generator, in a fixed order, and
# apply_mutation lists them all to index one with its seed. A site admits a
# kind when a first rewrite exists; only Cond's is built to find out.


def _class_of(op_text: str) -> tuple[str, ...] | None:
    for cls in OP_SWAP_CLASSES:
        if op_text in cls:
            return cls
    return None


def _op_swaps(line: str, tokens, classes=OP_SWAP_CLASSES) -> Iterator[str]:
    """Each operator in ``tokens`` whose swap class is one of ``classes``,
    replaced in turn by every other member of that class."""
    for t in tokens:
        cls = _class_of(t.text) if t.kind == "operator" else None
        if cls in classes:
            for repl in cls:
                if repl != t.text:
                    yield _replace_token(line, t, repl)


_BASED_RE = re.compile(r"(\d[\d_]*)?('[sS]?)([bBoOdDhH])([0-9a-fA-FxXzZ?_]+)")


def _literal_rewrites(text: str) -> Iterator[str]:
    """Lazily, in order, a based literal with one bit flipped, digit by digit;
    a decimal one (based or plain, real included) moved by +1, then by -1 when
    positive. Each rewrite changes the value, so none is the literal itself."""
    m = _BASED_RE.fullmatch(text)
    if m:
        size = m.group(1) or ""
        tick = m.group(2)
        base = m.group(3)
        digits = m.group(4).replace("_", "")
        bl = base.lower()
        if bl == "b":
            for i, ch in enumerate(digits):
                if ch in "01":
                    flipped = digits[:i] + ("1" if ch == "0" else "0") + digits[i + 1 :]
                    yield size + tick + base + flipped
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
                    yield size + tick + base + digits[:i] + nd + digits[i + 1 :]
        elif digits.isdigit():  # decimal base
            n = int(digits)
            yield size + tick + base + str(n + 1)
            if n > 0:
                yield size + tick + base + str(n - 1)
        return
    # Plain decimal / real: bump the leading integer part by +/-1.
    m = re.match(r"\d+", text.replace("_", ""))
    if not m:
        return
    head = m.group()
    rest = text.replace("_", "")[len(head) :]
    n = int(head)
    yield str(n + 1) + rest
    if n > 0:
        yield str(n - 1) + rest


def _value_alternatives(line: str, tokens: list[Token]) -> Iterator[str]:
    for t in tokens:
        if t.kind != "number":
            continue
        for variant in _literal_rewrites(t.text):
            yield _replace_token(line, t, variant)


def _identifier_pool(unit: SourceUnit) -> list[str]:
    names = {t.text for t in unit.tokens if t.kind == "identifier"}
    names.add("input")  # reserved-word replacement, as in the Var taxonomy row
    return sorted(names)


# Each unit's pool, built on the first draw that needs it and freed with the unit.
_POOLS: WeakKeyDictionary[SourceUnit, list[str]] = WeakKeyDictionary()


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


def _var_alternatives(line: str, sites: list[Token], pool: list[str]) -> Iterator[str]:
    for t in sites:
        for cand in pool:
            if cand != t.text:
                yield _replace_token(line, t, cand)


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


def _cond_alternatives(line: str, info: _LineInfo) -> Iterator[str]:
    for span in info.cond_spans:
        label = span[0]
        if label in ("if", "case"):
            neg = _negate_condition(line, info, span)
            if neg is not None and neg != line:
                yield neg
        else:  # event control: swap the clock edge
            for t in info.cond_interior(span):
                if t.kind == "keyword" and t.text == "posedge":
                    yield _replace_token(line, t, "negedge")
                elif t.kind == "keyword" and t.text == "negedge":
                    yield _replace_token(line, t, "posedge")
    for span in info.cond_spans:
        if span[0] != "event":
            yield from _op_swaps(line, info.cond_interior(span), OP_SWAP_CLASSES[2:4])


def _non_cond_alternatives(line: str, info: _LineInfo, pool: list[str]) -> Iterator[str]:
    if info.assign_idx is None:
        return
    rhs_idents = [t for t in info.rhs if t.kind == "identifier"]
    yield from _var_alternatives(line, rhs_idents, pool)
    yield from _value_alternatives(line, info.rhs)
    yield from _op_swaps(line, info.rhs)


def _alternatives(line_text: str, info: _LineInfo, kind: str, pool: list[str]) -> Iterator[str]:
    """Lazily, in order, the legal distinct rewrites of ``kind`` on a line."""
    if kind == "Op":
        alts = _op_swaps(line_text, _op_sites(info))
    elif kind == "Value":
        alts = _value_alternatives(line_text, info.tokens)
    elif kind == "Var":
        alts = _var_alternatives(line_text, _var_site_tokens(info), pool)
    elif kind == "Cond":
        alts = _cond_alternatives(line_text, info)
    elif kind == "Non_cond":
        alts = _non_cond_alternatives(line_text, info, pool)
    else:
        raise DomainError(f"unknown mutation kind: {kind!r}")
    return (a for a in alts if a != line_text and "\n" not in a)


@lru_cache(maxsize=1024)
def _based_has_variant(text: str) -> bool:
    return any(_literal_rewrites(text))


def _has_variant(tokens) -> bool:
    """A plain decimal or real always has a variant; a based literal is asked."""
    return any(
        t.kind == "number" and ("'" not in t.text or _based_has_variant(t.text)) for t in tokens
    )


def _admissible_kinds(line_text: str, info: _LineInfo) -> tuple[str, ...]:
    """The kinds with a rewrite on a line. A rewrite of any kind but ``Cond``
    puts other text in one token's place, so a predicate decides it: ``Var``
    needs a site token (the pool's ``input`` is no identifier's text)."""
    toks, a, rhs = info.tokens, info.assign_idx, info.rhs
    rhs_var = "identifier" in map(_KIND, rhs)
    cond_var = any("identifier" in map(_KIND, info.cond_interior(s)) for s in info.cond_spans)
    found = (
        bool(info.lhs_idents) or rhs_var or cond_var,  # Var
        _has_variant(toks),  # Value
        # Op, not at an assignment; only the lexer's operator rule spells these
        not _SWAPPABLE.isdisjoint(map(_TEXT, _op_sites(info))),
        bool(info.cond_spans) and any(_alternatives(line_text, info, "Cond", [])),  # Cond
        a is not None  # Non_cond
        and (rhs_var or _has_variant(rhs) or not _SWAPPABLE.isdisjoint(map(_TEXT, rhs))),
    )
    return tuple(kind for kind, ok in zip(SYNTACTIC_KINDS, found) if ok)


def enumerate_sites(unit: SourceUnit) -> list[tuple[int, tuple[str, ...]]]:
    """All (line, admissible mutation kinds) pairs for a unit.

    A kind is listed only when at least one legal rewrite exists for it, so
    every returned pair is a valid apply_mutation target. One pass groups the
    unit's significant tokens by line, and each line is analysed once; a line
    that a comment or string spanning lines overlaps is never a site.
    """
    tainted, lines = unit.tokens.tainted, unit.lines
    sites = []
    for ln, run in groupby(unit.tokens, _LINE):
        if ln not in tainted:
            kinds = _admissible_kinds(lines[ln - 1], _analyze_tokens(list(run)))
            if kinds:
                sites.append((ln, kinds))
    return sites


def _line_tokens(unit: SourceUnit, line: int) -> tuple[list[Token], int]:
    """The tokens of ``unit`` that start on ``line``, and the index of the first."""
    lo = bisect_left(unit.tokens, line, key=_LINE)
    return unit.tokens[lo : bisect_right(unit.tokens, line, lo, key=_LINE)], lo


def _pool(unit: SourceUnit) -> list[str]:
    return _POOLS.get(unit) or _POOLS.setdefault(unit, _identifier_pool(unit))


def _governed_targets(tokens: list[Token], start: int) -> frozenset[str]:
    """The names assigned in the begin/end block, or else the one statement,
    that opens at ``tokens[start]``."""
    if start < len(tokens) and tokens[start].text == "begin":
        block, depth = [], 0
        for t in islice(tokens, start, None):
            depth += (t.text == "begin") - (t.text == "end")
            if depth == 0:
                break
            block.append(t)
        region = _statements(block)
    else:
        region = islice(_statements(islice(tokens, start, None)), 1)
    return frozenset(t.text for s in region for t in _analyze_tokens(s).lhs_idents)


def edit(
    unit: SourceUnit, line: int, mutated: str, seed: int, kind: str | None = None
) -> MutationRecord | None:
    """The record of ``line`` of ``unit`` rewritten as ``mutated``, or None
    when that changes no significant token or the line is tainted.

    The change starts at the first token that differs. Inside a condition it
    affects what that condition governs; elsewhere, what its statement
    assigns or, when that is nothing, what the line's first condition
    governs. ``kind`` defaults to the first kind with an engine rewrite of
    the line whose significant tokens are those of ``mutated``, else to
    ``Cond`` inside a condition and ``Non_cond`` outside.
    """
    if line in unit.tokens.tainted:
        return None
    old, first = _line_tokens(unit, line)
    new = tokenize(mutated)
    sig = [t[:2] for t in new]
    at = next((i for i, (a, b) in enumerate(zip(old, sig)) if a[:2] != b), min(len(old), len(new)))
    if at == len(old) == len(new):
        return None
    info = _analyze_tokens(old)
    inside = [s for s in info.cond_spans if s[1] <= at <= s[2]]
    stmts = list(_statements(new))
    ends = accumulate(len(s) + 1 for s in stmts)  # past each statement's `;`
    stmt = _analyze_tokens(next(s for s, end in zip(stmts, ends) if end > at))
    if inside or (stmt.assign_idx is None and info.cond_spans):
        targets = _governed_targets(unit.tokens, first + (inside or info.cond_spans)[0][2] + 1)
    else:
        targets = frozenset(t.text for t in stmt.lhs_idents)
    if kind is None:
        kind = next((k for k in SYNTACTIC_KINDS  # matched on significant tokens, not layout
                     if any(sig == [t[:2] for t in tokenize(alt)]
                            for alt in _alternatives(unit.lines[line - 1], info, k, _pool(unit)))),
                    "Cond" if inside else "Non_cond")
    return MutationRecord(line, unit.lines[line - 1], mutated, kind, targets, seed)


def apply_mutation(unit: SourceUnit, line: int, kind: str, seed: int) -> MutationRecord:
    """Produce the seed-selected mutation of ``kind`` on ``line``.

    Raises NoAlternativeError when the site admits no legal distinct rewrite.
    The line's tokens are the unit's significant tokens, so text inside a
    comment or string that spans lines is never rewritten.
    """
    if not (1 <= line <= len(unit.lines)):
        raise DomainError(f"line {line} out of range for unit {unit.id}")
    if kind not in SYNTACTIC_KINDS:
        raise DomainError(f"unknown mutation kind: {kind!r}")
    info = _analyze_tokens(_line_tokens(unit, line)[0])
    pool = _pool(unit) if kind in ("Var", "Non_cond") else []  # kinds that draw names
    alts = list(_alternatives(unit.lines[line - 1], info, kind, pool))
    if not alts or line in unit.tokens.tainted:
        raise NoAlternativeError(f"{unit.id}:{line} admits no {kind} mutation")
    return edit(unit, line, alts[seed % len(alts)], seed, kind)


def classify_relation(record: MutationRecord, signals: frozenset[str]) -> str:
    """Direct when the mutated line affects one of the SVA's ``signals``."""
    if record.lhs_targets & signals:
        return "Direct"
    return "Indirect"
