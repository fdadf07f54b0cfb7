"""Single-line bug injection for Verilog sources.

Five mutation kinds are supported, each realized as a deterministic rewrite
of exactly one line:

  Var      replace one identifier in an expression with another in-scope
           identifier (or the reserved word `input`)
  Value    flip one bit of a sized literal, or perturb a decimal by +/-1
  Op       swap a binary operator within its arity-preserving class
  Cond     negate/alter an `if`/`case` condition or an event edge
  Non_cond perturb the right-hand side of an assignment, leaving any
           condition on the line untouched

A (unit, line, kind, seed) quadruple always produces the same record; the
seed indexes into the deterministically ordered list of legal rewrites.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, replace as dc_replace
from operator import attrgetter

from .corpus import SourceUnit, Token, significant, tokenize
from .errors import DomainError, NoAlternativeError, ParseFailure

SYNTACTIC_KINDS = ("Var", "Value", "Op", "Cond", "Non_cond")
RELATIONS = ("Direct", "Indirect", "Unknown")

# Arity-preserving swap classes; a swapped operator keeps the line parseable.
OP_SWAP_CLASSES: tuple[tuple[str, ...], ...] = (
    ("|", "&", "^"),
    ("+", "-"),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


@dataclass(frozen=True)
class BugType:
    syntactic: str
    relation: str = "Unknown"

    def __post_init__(self):
        if self.syntactic not in SYNTACTIC_KINDS:
            raise ValueError(f"unknown syntactic bug type: {self.syntactic!r}")
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown bug relation: {self.relation!r}")


@dataclass(frozen=True)
class MutationRecord:
    unit_id: str
    line: int  # 1-based
    original_snippet: str
    mutated_snippet: str
    bug_type: BugType
    lhs_targets: frozenset[str]
    rng_seed: int
    detail: str = ""

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
    """Identifiers referenced by an assertion, minus keywords and system tasks."""
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
                raise ParseFailure("unbalanced parentheses in assertion")
    if depth != 0:
        raise ParseFailure("unbalanced parentheses in assertion")
    return frozenset(t.text for t in toks if t.kind == "identifier")


@dataclass(frozen=True)
class AssertionSpec:
    sva_text: str
    insertion_line: int  # 1-based line just before `endmodule`
    referenced_signals: frozenset[str]

    @classmethod
    def from_text(cls, sva_text: str, insertion_line: int) -> "AssertionSpec":
        return cls(sva_text, insertion_line, extract_referenced_signals(sva_text))


# ---------------------------------------------------------------------------
# Per-line analysis


@dataclass
class _LineInfo:
    tokens: list[Token]  # significant tokens only
    assign_idx: int | None  # token index of the assignment operator
    lhs_idents: list[Token]
    rhs: list[Token]  # tokens right of the assignment op
    cond_spans: list[tuple[str, int, int]]  # (label, open-paren idx, close idx)

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
    """Structure of one line, given its significant tokens."""
    # Condition spans: if/case(…), and event controls @(...).
    cond_spans: list[tuple[str, int, int]] = []
    for i, t in enumerate(tokens):
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

    def in_cond_span(i: int) -> bool:
        return any(o <= i <= c for _, o, c in cond_spans)

    # Assignment operator: first '=' or '<=' at parenthesis depth 0 preceded
    # by an identifier outside any condition span. Only parens gate the scan:
    # concatenation targets like {cout, sum} and indexed targets stay visible.
    assign_idx = None
    paren_depth = 0
    seen_lhs_ident = False
    for i, t in enumerate(tokens):
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
        for i, t in enumerate(tokens[:assign_idx]):
            if t.text == "[":
                bracket_depth += 1
            elif t.text == "]":
                bracket_depth -= 1
            elif t.kind == "identifier" and bracket_depth == 0 and not in_cond_span(i):
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

    return _LineInfo(tokens, assign_idx, lhs_idents, rhs, cond_spans)


_LINE = attrgetter("line")


def _line_tokens(unit: SourceUnit, line: int) -> list[Token]:
    """Significant tokens that start on ``line``, sliced from the unit's stream."""
    lo = bisect_left(unit.tokens, line, key=_LINE)
    return significant(unit.tokens[lo : bisect_right(unit.tokens, line, lo, key=_LINE)])


def _replace_token(line: str, tok: Token, new_text: str) -> str:
    c = tok.col - 1
    return line[:c] + new_text + line[c + len(tok.text) :]


# ---------------------------------------------------------------------------
# Alternative rewrites per kind
#
# Each kind's rewrites come from a generator, in a fixed order: a site is
# admissible as soon as the first rewrite appears, and apply_mutation lists
# them all to index one with its seed.


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


def _op_alternatives(line: str, info: _LineInfo) -> Iterator[str]:
    return _op_swaps(line, (t for i, t in enumerate(info.tokens) if i != info.assign_idx))


_BASED_RE = re.compile(r"(\d[\d_]*)?('[sS]?)([bBoOdDhH])([0-9a-fA-FxXzZ?_]+)")


def _literal_variants(text: str) -> Iterator[str]:
    """Lazily, in order, the rewrites of a number literal other than itself."""
    return (v for v in _literal_rewrites(text) if v != text)


def _literal_rewrites(text: str) -> Iterator[str]:
    """A based literal with one bit flipped, digit by digit; a decimal one
    (based or plain, real included) moved by +1, then by -1 when positive."""
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
        for variant in _literal_variants(t.text):
            yield _replace_token(line, t, variant)


def _identifier_pool(unit: SourceUnit) -> list[str]:
    names = {t.text for t in unit.tokens if t.kind == "identifier"}
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


# Kinds whose rewrites draw replacement names from the unit's identifier pool.
_POOL_KINDS = ("Var", "Non_cond")


def _alternatives(line_text: str, info: _LineInfo, kind: str, pool: list[str]) -> Iterator[str]:
    """Lazily, in order, the legal distinct rewrites of ``kind`` on a line."""
    if kind == "Op":
        alts = _op_alternatives(line_text, info)
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


def _tainted_lines(unit: SourceUnit) -> set[int]:
    """Lines overlapped by a multi-line comment or string; unsafe to rewrite."""
    tainted: set[int] = set()
    for t in unit.tokens:
        if t.kind in ("comment", "string") and "\n" in t.text:
            tainted.update(range(t.line, t.line + t.text.count("\n") + 1))
    return tainted


def enumerate_sites(unit: SourceUnit) -> list[tuple[int, tuple[str, ...]]]:
    """All (line, admissible mutation kinds) pairs for a unit.

    A kind is listed only when at least one legal rewrite exists for it, so
    every returned pair is a valid apply_mutation target. Each line is
    analysed once, from its run of the unit's tokens, and a kind is decided
    by its first rewrite.
    """
    tainted = _tainted_lines(unit)
    pool = _identifier_pool(unit)
    sites = []
    for ln, line_text in enumerate(unit.text.split("\n"), start=1):
        if ln in tainted or not line_text.strip():
            continue
        info = _analyze_tokens(_line_tokens(unit, ln))
        kinds = tuple(
            k
            for k in SYNTACTIC_KINDS
            if next(_alternatives(line_text, info, k, pool), None) is not None
        )
        if kinds:
            sites.append((ln, kinds))
    return sites


def assigned_targets(line_text: str) -> frozenset[str] | None:
    """Names a line assigns to; None when the line holds no assignment."""
    info = _analyze_tokens(significant(tokenize(line_text)))
    if info.assign_idx is None:
        return None
    return frozenset(t.text for t in info.lhs_idents)


def _governed_targets(unit: SourceUnit, line_no: int, info: _LineInfo):
    """Assignment targets governed by the condition on ``line_no``.

    Used when the mutated line itself assigns nothing (e.g. a bare `if` or an
    `always @(...)` header). Scans the single governed statement, or the
    begin/end block, that follows.
    """
    if not info.cond_spans:
        return frozenset(), "no condition span found"
    close_tok = info.tokens[info.cond_spans[0][2]]
    toks = [t for t in significant(unit.tokens) if (t.line, t.col) > (line_no, close_tok.col)]
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
    for i, t in enumerate(region):
        if t.kind == "operator" and t.text in ("=", "<="):
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


def apply_mutation(unit: SourceUnit, line: int, kind: str, seed: int) -> MutationRecord:
    """Produce the seed-selected mutation of ``kind`` on ``line``.

    Raises NoAlternativeError when the site admits no legal distinct rewrite.
    The line's tokens come from the unit's stream, so text inside a comment
    or string that spans lines is never rewritten.
    """
    lines = unit.text.split("\n")
    if not (1 <= line <= len(lines)):
        raise DomainError(f"line {line} out of range for unit {unit.id}")
    if kind not in SYNTACTIC_KINDS:
        raise DomainError(f"unknown mutation kind: {kind!r}")
    original = lines[line - 1]
    info = _analyze_tokens(_line_tokens(unit, line))
    pool = _identifier_pool(unit) if kind in _POOL_KINDS else []
    alts = list(_alternatives(original, info, kind, pool))
    if not alts:
        raise NoAlternativeError(f"{unit.id}:{line} admits no {kind} mutation")
    mutated = alts[seed % len(alts)]

    targets = assigned_targets(mutated)
    detail = ""
    if targets is None:
        # Condition-only lines: the affected signals are the ones assigned in
        # the governed statement/block, which lives on the unchanged lines.
        targets, detail = _governed_targets(unit, line, info)
    return MutationRecord(
        unit_id=unit.id,
        line=line,
        original_snippet=original,
        mutated_snippet=mutated,
        bug_type=BugType(kind, "Unknown"),
        lhs_targets=targets,
        rng_seed=seed,
        detail=detail,
    )


def classify_relation(record: MutationRecord, assertion: AssertionSpec) -> str:
    """Direct when the mutated line's assigned signal is protected by the SVA."""
    if record.lhs_targets & assertion.referenced_signals:
        return "Direct"
    return "Indirect"


def with_relation(record: MutationRecord, assertion: AssertionSpec) -> MutationRecord:
    """Copy of ``record`` with its relation axis resolved against ``assertion``."""
    rel = classify_relation(record, assertion)
    return dc_replace(record, bug_type=BugType(record.bug_type.syntactic, rel))
