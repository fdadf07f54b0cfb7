"""Verilog source ingestion: lexing, structure extraction, corpus filtering.

The lexer is token-level only (no grammar): every byte of the input lands in
exactly one token, so concatenating the lexemes reproduces the file. That
round-trip property is what makes single-line mutation safe without a full
parser. One scanner, a ``finditer`` pass over a master pattern (an ordered
alternation of one group per token rule), has two consumers: ``tokenize``
builds the lossless stream of ``Token`` tuples, and the fingerprint scan keeps
only the ``(kind, text)`` pairs of significant tokens. A ``SourceUnit`` runs
each once, on first use: the filter reads only the fingerprint and never
builds a ``Token``. ``augment`` lexes a short-lived copy of each unit it
injects bugs into, on either bug path, and takes the split's module names
from those tokens (``module_names_of``), so it scans no fingerprint.

Filtering streams: ``load_corpus_dir`` reads one file per step and
``filter_units`` judges each unit as it arrives, keeping only the dedup keys
and the report rows, so memory is bounded by the largest file plus the
report.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

# IEEE 1364-2005 Annex B reserved words.
VERILOG_2005_KEYWORDS = frozenset(
    """
    always and assign automatic begin buf bufif0 bufif1 case casex casez cell
    cmos config deassign default defparam design disable edge else end endcase
    endconfig endfunction endgenerate endmodule endprimitive endspecify
    endtable endtask event for force forever fork function generate genvar
    highz0 highz1 if ifnone incdir include initial inout input instance
    integer join large liblist library localparam macromodule medium module
    nand negedge nmos nor noshowcancelled not notif0 notif1 or output
    parameter pmos posedge primitive pull0 pull1 pulldown pullup
    pulsestyle_ondetect pulsestyle_onevent rcmos real realtime reg release
    repeat rnmos rpmos rtran rtranif0 rtranif1 scalared showcancelled signed
    small specify specparam strong0 strong1 supply0 supply1 table task time
    tran tranif0 tranif1 tri tri0 tri1 triand trior trireg unsigned use uwire
    vectored wait wand weak0 weak1 while wire wor xnor xor
    """.split()
)

# SystemVerilog additions this pipeline actually meets (assertions, always_*).
SYSTEMVERILOG_EXTRA_KEYWORDS = frozenset(
    """
    always_comb always_ff always_latch assert assume bit byte cover do enum
    endproperty endsequence eventually final first_match iff int intersect
    let logic longint nexttime priority property restrict return
    s_eventually s_nexttime s_until s_until_with sequence shortint struct
    strong throughout typedef union unique until until_with void weak within
    """.split()
)

KEYWORDS = VERILOG_2005_KEYWORDS | SYSTEMVERILOG_EXTRA_KEYWORDS

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

# Ordered scanner: one group per entry, joined into a single alternation, so
# the first entry that matches at the cursor wins. Group i + 1 is entry i, and
# the first two entries are the trivia the fingerprint skips.
_PATTERNS: tuple[tuple[str, str], ...] = (
    ("whitespace", r"[ \t\r\n\f\v]+"),
    ("comment", r"//[^\n]*|/\*.*?\*/|/\*.*"),
    ("string", r'"(?:[^"\\\n]|\\.)*"?'),
    ("number", r"(?:\d[\d_]*)?'[sS]?[bBoOdDhH][0-9a-fA-FxXzZ?_]+"),
    ("number", r"\d[\d_]*\.\d[\d_]*(?:[eE][+-]?\d[\d_]*)?|\d[\d_]*(?:[eE][+-]?\d[\d_]*)?"),
    ("identifier", r"\\[^ \t\r\n\f\v]+"),  # escaped identifier
    ("other", r"`[A-Za-z_][A-Za-z0-9_$]*"),  # compiler directive
    ("other", r"\$[A-Za-z_][A-Za-z0-9_$]*"),  # system task/function
    ("identifier", r"[A-Za-z_][A-Za-z0-9_$]*"),
    ("operator", "|".join(re.escape(op) for op in _OPERATORS)),
    ("punctuation", r"[()\[\]{};,.:@#']"),
    ("other", r"[\s\S]"),
)
_MASTER = re.compile("|".join(f"({rx})" for _, rx in _PATTERNS), re.DOTALL)
_KIND_OF_GROUP = (None, *(kind for kind, _ in _PATTERNS))  # by ``m.lastindex``
_LAST_TRIVIA_GROUP = 2
TRIVIA_KINDS = ("whitespace", "comment")  # the token kinds ``significant`` drops


class Token(NamedTuple):
    kind: str
    text: str
    line: int  # 1-based
    col: int  # 1-based, counted from the start of the token's line


@dataclass(frozen=True)
class RejectionReason:
    code: str  # missing_module_boundary | no_functional_logic | duplicate
    detail: str = ""

    REJECTION_CODES = frozenset({"missing_module_boundary", "no_functional_logic", "duplicate"})

    def __post_init__(self):
        if self.code not in self.REJECTION_CODES:
            raise ValueError(f"unknown rejection code: {self.code!r}")


def tokenize(text: str) -> tuple[Token, ...]:
    """Lex Verilog/SystemVerilog source into a lossless token stream.

    Concatenating the returned lexemes reproduces ``text`` byte for byte.
    Unknown bytes become single-character "other" tokens.
    """
    tokens = []
    new_token = tuple.__new__  # what Token._make calls, without its checks
    line, line_start = 1, 0
    for m in _MASTER.finditer(text):
        kind = _KIND_OF_GROUP[m.lastindex]
        lexeme = m.group()
        start = m.start()
        if kind == "identifier" and lexeme in KEYWORDS:
            kind = "keyword"
        tokens.append(new_token(Token, (kind, lexeme, line, start - line_start + 1)))
        if "\n" in lexeme:
            line += lexeme.count("\n")
            line_start = start + lexeme.rfind("\n") + 1
    return tuple(tokens)


def significant(tokens) -> list[Token]:
    """Tokens that carry syntax (everything but whitespace and comments)."""
    return [t for t in tokens if t.kind not in TRIVIA_KINDS]


def _significant_pairs(text: str) -> list[tuple[str, str]]:
    """``(kind, text)`` of each token ``significant(tokenize(text))`` holds,
    from the same scan but without positions or ``Token`` objects."""
    pairs = []
    for m in _MASTER.finditer(text):
        group = m.lastindex
        if group > _LAST_TRIVIA_GROUP:
            kind, lexeme = _KIND_OF_GROUP[group], m.group()
            if kind == "identifier" and lexeme in KEYWORDS:
                kind = "keyword"
            pairs.append((kind, lexeme))
    return pairs


class Fingerprint(NamedTuple):
    """What the filter and the split read of a unit."""

    module_names: tuple[str, ...]
    keywords: frozenset[str]
    dedup_key: str
    has_functional_logic: bool


def _module_names(sig: Iterable) -> tuple[str, ...]:
    pairs = pairwise(sig)  # of significant ``(kind, text)`` pairs or ``Token``s
    return tuple(b[1] for a, b in pairs if a[1] == "module" and a[0] == "keyword" and b[0] == "identifier")


def module_names_of(tokens: Iterable[Token]) -> tuple[str, ...]:
    """``Fingerprint.module_names``, streamed from a lossless token stream."""
    return _module_names(t for t in tokens if t.kind not in TRIVIA_KINDS)


def _dedup_key(sig: list[tuple[str, str]]) -> str:
    blob = "".join([f"{kind}\x00{text}\x01" for kind, text in sig])
    return hashlib.sha256(blob.encode()).hexdigest()


def _fingerprint(sig: list[tuple[str, str]]) -> Fingerprint:
    keywords = frozenset(text for kind, text in sig if kind == "keyword")
    return Fingerprint(
        _module_names(sig), keywords, _dedup_key(sig), _has_functional_logic(sig, keywords)
    )


@dataclass(frozen=True)
class SourceUnit:
    """One Verilog file. Its fingerprint and its lossless token stream are
    each computed once, on first use: the filter reads only the fingerprint,
    and ``augment`` lexes a short-lived copy, whose tokens give the mutations
    and the split's module names, so the units it keeps hold neither."""

    id: str
    path: str
    text: str

    @cached_property
    def tokens(self) -> tuple[Token, ...]:
        return tokenize(self.text)

    @cached_property
    def fingerprint(self) -> Fingerprint:
        return _fingerprint(_significant_pairs(self.text))

    module_names = property(attrgetter("fingerprint.module_names"))
    dedup_key = property(attrgetter("fingerprint.dedup_key"))
    has_functional_logic = property(attrgetter("fingerprint.has_functional_logic"))

    @property
    def line_count(self) -> int:
        return len(self.text.splitlines())


# Keywords whose presence marks a file as containing functional logic.
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


def _assign_is_functional(sig: list[tuple[str, str]], assign_idx: int) -> bool:
    """True when the continuous assignment's RHS is more than wiring/constant.

    An `assign` whose RHS holds an operator or two identifiers computes
    something; a bare identifier (port wiring) or a lone literal does not.
    """
    # Find '=' after the assign keyword, then scan the RHS up to ';'.
    i = assign_idx + 1
    while i < len(sig) and sig[i] != ("operator", "="):
        i += 1
    ops = 0
    idents = 0
    i += 1
    while i < len(sig) and sig[i][1] != ";":
        kind = sig[i][0]
        if kind == "operator":
            ops += 1
        elif kind == "identifier":
            idents += 1
        i += 1
    return ops >= 1 or idents >= 2


def _has_instantiation(sig: list[tuple[str, str]]) -> bool:
    for (a_kind, a_text), (b_kind, b_text), (_, c_text) in zip(sig, sig[1:], sig[2:]):
        if a_kind == "identifier":
            if c_text == "(" and (b_kind == "identifier" or b_text == "#"):
                return True
        elif a_kind == "keyword" and a_text in _GATE_PRIMITIVES:
            if b_text == "(" or (b_kind == "identifier" and c_text == "("):
                return True
    return False


def _has_functional_logic(sig: list[tuple[str, str]], keywords: frozenset[str]) -> bool:
    if not keywords.isdisjoint(_FUNCTIONAL_KEYWORDS):
        return True
    if any(p == ("keyword", "assign") and _assign_is_functional(sig, i) for i, p in enumerate(sig)):
        return True
    return _has_instantiation(sig)


def classify_rejection(unit: SourceUnit) -> RejectionReason | None:
    """Apply the script-level filter rules to one unit.

    Returns None when the unit is accepted. Duplicate detection is the
    caller's job (see filter_units); syntax checking is the compiler adapter's.
    """
    kw = unit.fingerprint.keywords
    if "module" not in kw or "endmodule" not in kw:
        missing = [w for w in ("module", "endmodule") if w not in kw]
        return RejectionReason(
            "missing_module_boundary", f"missing keyword(s): {', '.join(missing)}"
        )
    if not unit.has_functional_logic:
        return RejectionReason(
            "no_functional_logic",
            "no procedural block, control flow, computing assign, or instantiation",
        )
    return None


def load_corpus_dir(root: str | Path, errors: list[dict]) -> Iterator[SourceUnit]:
    """Every *.v / *.sv under ``root`` (recursive), sorted by relative path.

    The directory is checked and listed at the call, so a missing ``root``
    raises FileNotFoundError there; each file is read only when the iterator
    reaches it. A file that cannot be read is skipped and appended to
    ``errors`` as ``{"unit_id", "stage": "load", "error"}``.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    paths = sorted(
        (p for p in root.rglob("*") if p.is_file() and p.suffix in (".v", ".sv")),
        key=lambda p: p.relative_to(root).as_posix(),
    )

    def read():
        for p in paths:
            unit_id = p.relative_to(root).as_posix()
            try:
                text = p.read_text(encoding="utf-8", errors="replace")
            except OSError as exc:
                errors.append({"unit_id": unit_id, "stage": "load", "error": str(exc)})
                continue
            yield SourceUnit(id=unit_id, path=str(p), text=text)

    return read()


def filter_units(units: Iterable[SourceUnit]) -> list[dict]:
    """Judge each unit once, in order: ``classify_rejection``, then dedup.

    A unit that passes the rules is a duplicate when an earlier survivor has
    the same dedup key; the first one wins. Returns the filter report, one
    row per unit: {"id", "path", "status", "detail"}. No unit is kept, so a
    stream of units is filtered in the memory of one.
    """
    first_by_key: dict[str, str] = {}
    rows = []
    for u in units:
        reason = classify_rejection(u)
        if reason is None:
            prior = first_by_key.get(u.dedup_key)
            if prior is None:
                first_by_key[u.dedup_key] = u.id
            else:
                reason = RejectionReason("duplicate", f"duplicate of {prior}")
        rows.append(
            {
                "id": u.id,
                "path": u.path,
                "status": "accepted" if reason is None else reason.code,
                "detail": "" if reason is None else reason.detail,
            }
        )
        del u  # free this unit before the next one is read
    return rows
