"""Verilog source ingestion: lexing, structure extraction, corpus filtering.

The lexer is token-level only (no grammar): every byte of the input lands in
exactly one token, so concatenating the lexemes reproduces the file. That
round-trip property is what makes single-line mutation and deduplication safe
without a full parser.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

TOKEN_KINDS = frozenset(
    {
        "keyword",
        "identifier",
        "number",
        "operator",
        "punctuation",
        "string",
        "comment",
        "whitespace",
        "other",
    }
)

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


@dataclass(frozen=True)
class RejectionReason:
    code: str  # missing_module_boundary | no_functional_logic | duplicate | syntax_error
    detail: str = ""

    REJECTION_CODES = frozenset(
        {"missing_module_boundary", "no_functional_logic", "duplicate", "syntax_error"}
    )

    def __post_init__(self):
        if self.code not in self.REJECTION_CODES:
            raise ValueError(f"unknown rejection code: {self.code!r}")


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


def significant(tokens) -> list[Token]:
    """Tokens that carry syntax (everything but whitespace and comments)."""
    return [t for t in tokens if t.kind not in ("whitespace", "comment")]


def _module_names(tokens) -> tuple[str, ...]:
    names: list[str] = []
    sig = significant(tokens)
    for i, t in enumerate(sig[:-1]):
        if t.kind == "keyword" and t.text == "module" and sig[i + 1].kind == "identifier":
            names.append(sig[i + 1].text)
    return tuple(names)


def _dedup_key(tokens) -> str:
    h = hashlib.sha256()
    for t in significant(tokens):
        h.update(t.kind.encode())
        h.update(b"\x00")
        h.update(t.text.encode())
        h.update(b"\x01")
    return h.hexdigest()


@dataclass(frozen=True)
class SourceUnit:
    """One Verilog file, tokenized and fingerprinted."""

    id: str
    path: str
    text: str
    tokens: tuple[Token, ...]
    module_names: tuple[str, ...]
    line_count: int
    dedup_key: str

    @classmethod
    def from_text(cls, unit_id: str, text: str, path: str = "") -> "SourceUnit":
        tokens = tokenize(text)
        return cls(
            id=unit_id,
            path=path,
            text=text,
            tokens=tokens,
            module_names=_module_names(tokens),
            line_count=len(text.splitlines()),
            dedup_key=_dedup_key(tokens),
        )


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


def _assign_is_functional(sig: list[Token], assign_idx: int) -> bool:
    """True when the continuous assignment's RHS is more than wiring/constant.

    An `assign` whose RHS holds an operator or two identifiers computes
    something; a bare identifier (port wiring) or a lone literal does not.
    """
    # Find '=' after the assign keyword, then scan the RHS up to ';'.
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


def _has_functional_logic(tokens) -> bool:
    sig = significant(tokens)
    for i, t in enumerate(sig):
        if t.kind == "keyword":
            if t.text in _FUNCTIONAL_KEYWORDS:
                return True
            if t.text == "assign" and _assign_is_functional(sig, i):
                return True
    return _has_instantiation(sig)


def classify_rejection(unit: SourceUnit) -> RejectionReason | None:
    """Apply the script-level filter rules to one unit.

    Returns None when the unit is accepted. Duplicate detection is the
    caller's job (see dedup); syntax checking is the compiler adapter's.
    """
    kw = {t.text for t in unit.tokens if t.kind == "keyword"}
    if "module" not in kw or "endmodule" not in kw:
        missing = [w for w in ("module", "endmodule") if w not in kw]
        return RejectionReason(
            "missing_module_boundary", f"missing keyword(s): {', '.join(missing)}"
        )
    if not _has_functional_logic(unit.tokens):
        return RejectionReason(
            "no_functional_logic",
            "no procedural block, control flow, computing assign, or instantiation",
        )
    return None


def dedup(units: list[SourceUnit]):
    """Drop later units whose normalized token stream repeats an earlier one.

    Returns (kept, rejected) where rejected is a list of
    (unit, RejectionReason(code="duplicate")) pairs. Order is preserved.
    """
    kept: list[SourceUnit] = []
    rejected: list[tuple[SourceUnit, RejectionReason]] = []
    first_by_key: dict[str, SourceUnit] = {}
    for u in units:
        prior = first_by_key.get(u.dedup_key)
        if prior is None:
            first_by_key[u.dedup_key] = u
            kept.append(u)
        else:
            rejected.append((u, RejectionReason("duplicate", f"duplicate of {prior.id}")))
    return kept, rejected


def load_corpus_dir(root: str | Path) -> list[SourceUnit]:
    """Read every *.v / *.sv under ``root`` (recursive), sorted by relative path."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    paths = sorted(
        (p for p in root.rglob("*") if p.is_file() and p.suffix in (".v", ".sv")),
        key=lambda p: p.relative_to(root).as_posix(),
    )
    units = []
    for p in paths:
        rel = p.relative_to(root).as_posix()
        text = p.read_text(encoding="utf-8", errors="replace")
        units.append(SourceUnit.from_text(rel, text, path=str(p)))
    return units


def filter_units(units: list[SourceUnit]):
    """Run classify_rejection then dedup over a corpus.

    Returns (accepted, rows) where rows is the filter report, one dict per
    input unit in input order: {"id", "path", "status", "detail"}.
    """
    verdicts: dict[str, RejectionReason | None] = {}
    survivors: list[SourceUnit] = []
    for u in units:
        reason = classify_rejection(u)
        verdicts[u.id] = reason
        if reason is None:
            survivors.append(u)
    accepted, dup_rejected = dedup(survivors)
    for u, reason in dup_rejected:
        verdicts[u.id] = reason
    rows = []
    for u in units:
        reason = verdicts[u.id]
        rows.append(
            {
                "id": u.id,
                "path": u.path,
                "status": "accepted" if reason is None else reason.code,
                "detail": "" if reason is None else reason.detail,
            }
        )
    return accepted, rows
