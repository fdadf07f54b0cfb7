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
The statement is the unit of analysis: a line is cut at each ``;`` outside
parentheses, and every statement of it is a site. ``edit`` builds every
record: a change affects the names that its statement assigns or its
condition governs, read whole by ``_statement_end``: an ``if`` or ``case``
condition governs its whole ``if``/``else`` or ``case``, an event control the
statement after it. A ``case`` item's label is no name a statement assigns.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple
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
_CLASS_OF = {op: cls for cls in OP_SWAP_CLASSES for op in cls}
_SWAPPABLE = frozenset(_CLASS_OF)

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


class _Statement(NamedTuple):
    """One statement of a run of tokens cut at each ``;`` outside parentheses;
    the empty one after a last ``;`` is left out."""

    end: int  # index of the `;` that ends it, or the length of its tokens
    assign: int | None  # index of its assignment operator
    lhs: list[Token]  # the names it assigns
    rhs: list[Token]  # its tokens right of the assignment operator


_EMPTY = _Statement(0, None, [], [])  # the statement after a last `;`


@dataclass
class _LineInfo:
    tokens: list[Token]  # significant tokens only
    cond_spans: list[tuple[str, int, int]]  # (label, open-paren idx, close idx)
    statements: list[_Statement]

    def cond_interior(self, span) -> list[Token]:
        _, o, c = span
        return self.tokens[o + 1 : c]

    def rhs(self) -> list[Token]:
        """Every statement's right-hand tokens, in order."""
        return [t for s in self.statements for t in s.rhs]


def _closing(tokens, i, opens=("(",), closes=(")",), last=")") -> int | None:
    """The index of the first ``last`` at nesting depth 0 from ``tokens[i]`` on,
    each of ``opens`` opening a level and each of ``closes`` closing one."""
    depth = 0
    for j in range(i, len(tokens)):
        text = tokens[j].text
        depth += (text in opens) - (text in closes)
        if depth == 0 and text == last:
            return j
    return None


_LABELS = {"if": "if", "case": "case", "casex": "case", "casez": "case", "@": "event"}
_BLOCKS = frozenset({"begin", "end", "fork", "join"})  # each may be followed by `: name`


def _analyze_tokens(tokens: list[Token]) -> _LineInfo:
    """The condition spans and the statements of a run of significant tokens:
    a line, or the region a condition governs."""
    # Condition spans: if/case(…), and event controls @(...). Each `;` outside
    # parentheses is a cut: a statement starts at paren depth 0.
    cond_spans: list[tuple[str, int, int]] = []
    cuts: list[int] = []
    depth = 0
    for i, t in enumerate(tokens):
        depth += (t.text == "(") - (t.text == ")")
        if t.text == ";" and depth == 0:
            cuts.append(i)
        label = _LABELS.get(t.text)
        if label and i + 1 < len(tokens) and tokens[i + 1].text == "(":
            close = _closing(tokens, i + 1)
            if close is not None:
                cond_spans.append((label, i + 1, close))
    if not cuts or cuts[-1] < len(tokens) - 1:  # a last statement with no `;`
        cuts.append(len(tokens))

    # A span that a cut crosses is no condition of the statement it opens in.
    in_cond = {i for _, o, c in cond_spans if bisect_left(cuts, o) == bisect_left(cuts, c)
               for i in range(o, c + 1)}

    # A statement's assignment operator is its first '=' or '<=' at paren depth
    # 0 after an identifier outside its conditions. Only parens gate the scan:
    # concatenation targets like {cout, sum} and indexed targets stay visible.
    assigns: list[int | None] = []
    assign, depth, seen_ident = None, 0, False
    for i, t in enumerate(tokens):
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
        elif depth != 0:
            continue
        elif t.text == ";":
            assigns.append(assign)
            assign, seen_ident = None, False
        elif assign is not None:
            continue
        elif t.kind == "identifier":
            seen_ident = seen_ident or i not in in_cond
        elif seen_ident and t.text in ("=", "<="):
            assign = i
    assigns.append(assign)

    statements = []
    start = 0
    for end, assign in zip(cuts, assigns):
        if assign is None:
            statements.append(_Statement._make((end, None, (), ())))
        else:
            lhs, bracket_depth = [], 0
            for i, t in enumerate(tokens[start:assign], start):
                if t.text == "[":
                    bracket_depth += 1
                elif t.text == "]":
                    bracket_depth -= 1
                elif t.text == ":" and bracket_depth == 0:  # what went before is a case item label
                    lhs.clear()
                elif t.kind == "identifier" and bracket_depth == 0 and i not in in_cond and not (
                        i - 2 >= start and tokens[i - 1].text == ":" and tokens[i - 2].text in _BLOCKS):
                    lhs.append(t)  # a name, but not that of a named block
            statements.append(_Statement._make((end, assign, lhs, tokens[assign + 1 : end])))
        start = end + 1
    return _LineInfo(tokens, cond_spans, statements)


_LINE, _KIND, _TEXT = attrgetter("line"), attrgetter("kind"), attrgetter("text")


def _op_sites(info: _LineInfo) -> list[Token]:
    """The line's tokens but each statement's assignment operator."""
    assigns = {s.assign for s in info.statements}
    return [t for i, t in enumerate(info.tokens) if i not in assigns]


def _replace_token(line: str, tok: Token, new_text: str) -> str:
    c = tok.col - 1
    return line[:c] + new_text + line[c + len(tok.text) :]


# ---------------------------------------------------------------------------
# Alternative rewrites per kind
#
# Each kind's rewrites come from a generator, in a fixed order, and
# apply_mutation lists them all to index one with its seed. A site admits a
# kind when a first rewrite exists; only Cond's is built to find out.


def _op_swaps(line: str, tokens, classes=OP_SWAP_CLASSES) -> Iterator[str]:
    """Each operator in ``tokens`` whose swap class is one of ``classes``,
    replaced in turn by every other member of that class."""
    for t in tokens:
        cls = _CLASS_OF.get(t.text) if t.kind == "operator" else None
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
    sites = [t for s in info.statements for t in s.lhs]
    sites += [t for t in info.rhs() if t.kind == "identifier"]
    for span in info.cond_spans:
        sites += [t for t in info.cond_interior(span) if t.kind == "identifier"]
    return [t for _, t in sorted({t.col: t for t in sites}.items())]  # one per column


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
    rhs = info.rhs()
    yield from _var_alternatives(line, [t for t in rhs if t.kind == "identifier"], pool)
    yield from _value_alternatives(line, rhs)
    yield from _op_swaps(line, rhs)


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
    toks, rhs = info.tokens, info.rhs()
    rhs_var = "identifier" in map(_KIND, rhs)
    found = (
        rhs_var or any(s.lhs for s in info.statements)  # Var
        or any("identifier" in map(_KIND, info.cond_interior(s)) for s in info.cond_spans),
        _has_variant(toks),  # Value
        # Op, not at an assignment; only the lexer's operator rule spells these.
        # Most lines hold no swappable operator, and skip building their sites.
        not _SWAPPABLE.isdisjoint(map(_TEXT, toks))
        and not _SWAPPABLE.isdisjoint(map(_TEXT, _op_sites(info))),
        bool(info.cond_spans) and any(_alternatives(line_text, info, "Cond", [])),  # Cond
        rhs_var  # Non_cond
        or rhs and (_has_variant(rhs) or not _SWAPPABLE.isdisjoint(map(_TEXT, rhs))),
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


_HEADED = frozenset({"if", "for", "while", "repeat"})  # each heads (…) S
_CASES = frozenset({"case", "casex", "casez"})
# How a statement nests, by its first token: the tokens that open and close a
# level, and the token that ends it at level 0. Any other reads to a `;`.
_NESTING = {"begin": ({"begin"}, {"end"}, "end"),
            **dict.fromkeys(_CASES, (_CASES, {"endcase"}, "endcase"))}
_ENDS_AT_SEMICOLON = ({"("}, {")"}, ";")


def _statement_end(tokens: list[Token], i: int) -> int:
    """The index just past the statement that opens at ``tokens[i]``: a matched
    ``begin … end`` or ``case … endcase``, ``if (…) S [else S]``,
    ``for``/``while``/``repeat (…) S``, or else up to the first ``;`` outside
    parentheses; one left open runs to the end. It counts the ``if``s still
    open instead of recursing, so an ``else if`` chain of any depth reads."""
    n, ifs = len(tokens), 0
    while True:
        head = tokens[i].text if i < n else ""
        headed = head in _HEADED and i + 1 < n and tokens[i + 1].text == "("
        args = (i + 1,) if headed else (i, *_NESTING.get(head, _ENDS_AT_SEMICOLON))
        end = _closing(tokens, *args)
        if end is None:
            return n
        i = end + 1
        if headed:  # its statement follows
            ifs += head == "if"
            continue
        while ifs:  # the statement ends each open `if` that takes no `else`
            ifs -= 1
            if i < n and tokens[i].text == "else":
                i += 1
                break
        else:
            return i


def edit(
    unit: SourceUnit, line: int, mutated: str, seed: int, kind: str | None = None
) -> MutationRecord | None:
    """The record of ``line`` of ``unit`` rewritten as ``mutated``, or None
    when that changes no significant token or the line is tainted.

    The change starts at the first token that differs. Inside a condition it
    affects what that condition governs, read whole: for an ``if`` or ``case``
    condition its whole statement, ``else`` included, and for an event control
    the statement after it. Elsewhere it affects what
    its statement assigns or, when that is nothing, what the line's first
    condition governs. ``kind`` defaults to the first kind with an engine rewrite of
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
    stmts = [next((s for s in _analyze_tokens(new).statements if s.end >= at), _EMPTY)]
    if inside or (stmts[0].assign is None and info.cond_spans):
        label, o, c = (inside or info.cond_spans)[0]
        # An if or case condition governs its whole statement; an event, the one after it.
        start = first + (c + 1 if label == "event" else o - 1)
        stmts = _analyze_tokens(unit.tokens[start : _statement_end(unit.tokens, start)]).statements
    targets = frozenset(t.text for s in stmts for t in s.lhs)
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
