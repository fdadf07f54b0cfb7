"""Verilog source ingestion: lexing, structure extraction, corpus filtering.

The lexer is token-level only (no grammar). One table of token rules,
``_PATTERNS``, makes the scanner ``_SCAN``, each of whose matches is a run of
whitespace and comments and then one significant token. ``tokenize`` walks
it into a text's significant ``Token`` tuples and the lines that a comment or
string spanning lines overlaps; ``_significant_lexemes`` takes the same
lexemes' texts from one ``findall``, and the filter judges each file from
those strings alone. ``augment`` lexes a short-lived copy of each unit it
injects bugs into, on either bug path, and takes the split's module names
from those tokens (``SourceUnit.module_names``).

Filtering streams: ``load_corpus_dir`` lists the files' sorted relative names
and reads one file per step, and ``filter_units`` judges each unit as it
arrives. At any time the filter holds those names, the report rows so far,
the dedup keys of the files accepted so far, and one file's text and lexemes.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
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

_IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_$]*"
_WHITESPACE = r"[ \t\r\n\f\v]"

# Ordered rules: the first entry that matches at the cursor wins. ``_MASTER``
# makes entry i its group i + 1; ``_SCAN`` takes the first two, the trivia, as
# the prefix of each significant token and the rest as its one group.
_PATTERNS: tuple[tuple[str, str], ...] = (
    ("whitespace", _WHITESPACE + "+"),
    ("comment", r"//[^\n]*|/\*.*?\*/|/\*.*"),
    ("string", r'"(?:[^"\\\n]|\\.)*"?'),
    ("number", r"(?:\d[\d_]*)?'[sS]?[bBoOdDhH][0-9a-fA-FxXzZ?_]+"),
    ("number", r"\d[\d_]*\.\d[\d_]*(?:[eE][+-]?\d[\d_]*)?|\d[\d_]*(?:[eE][+-]?\d[\d_]*)?"),
    ("identifier", r"\\[^ \t\r\n\f\v]+"),  # escaped identifier
    ("other", r"`[A-Za-z_][A-Za-z0-9_$]*"),  # compiler directive
    ("other", r"\$[A-Za-z_][A-Za-z0-9_$]*"),  # system task/function
    ("identifier", _IDENTIFIER),
    ("operator", "|".join(re.escape(op) for op in _OPERATORS)),
    ("punctuation", r"[()\[\]{};,.:@#']"),
    ("other", r"[\s\S]"),
)
_MASTER = re.compile("|".join(f"({rx})" for _, rx in _PATTERNS), re.DOTALL)
_KIND_OF_GROUP = (None, *(kind for kind, _ in _PATTERNS))  # by ``m.lastindex``

# Each match: a token's leading trivia, then the token as the group, or ``\Z``
# at the end. Plain ``*``, not 3.11's ``*+``: a rule or ``\Z`` always follows.
# The trivia is a whitespace run, then comments each followed by one, and the
# comment rules, their leading ``/`` taken out, are tried only after a ``/``.
# The group tries identifiers first, then the punctuation no other rule starts
# with, then the operators, one branch per first character that tries their
# rests in table order (so the longest wins), then the other rules in table
# order. No rule moved ahead starts with a character that begins a rule it now
# precedes, so every match is the one table order gives.
_COMMENT_RESTS = "|".join(rx[1:] for rx in _PATTERNS[1][1].split("|"))
_TOKEN = "|".join((
    _IDENTIFIER,
    r"[()\[\]{};,.@]",
    *(re.escape(c) + "(?:" + "|".join(re.escape(op[1:]) for op in _OPERATORS if op[0] == c) + ")"
      for c in dict.fromkeys(op[0] for op in _OPERATORS)),
    *(rx for kind, rx in _PATTERNS[2:] if rx != _IDENTIFIER and kind != "operator"),
))
_SCAN = re.compile(f"{_WHITESPACE}*(?:/(?:{_COMMENT_RESTS}){_WHITESPACE}*)*({_TOKEN}|\\Z)", re.DOTALL)
_TRIVIUM = re.compile("|".join(rx for _, rx in _PATTERNS[:2]), re.DOTALL)  # one run or comment
# A lexeme's kind is that of ``_MASTER``'s match of it alone, as no rule has an
# anchor or lookaround: here for every keyword, operator and punctuation mark,
# and in ``_TAGGED`` as the ``kind\x00lexeme`` that the dedup key hashes.
_KIND_OF_LEXEME = {x: _KIND_OF_GROUP[_MASTER.match(x).lastindex]
                   for x in (*_OPERATORS, *"()[]{};,.:@#'")} | dict.fromkeys(KEYWORDS, "keyword")
_TAGGED = {x: f"{kind}\x00{x}" for x, kind in _KIND_OF_LEXEME.items()}
# A lexeme outside ``_KIND_OF_LEXEME`` that starts with one of these characters
# can match one rule only, of this kind; ``_MASTER`` decides any other.
_KIND_OF_FIRST = dict.fromkeys("_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz", "identifier")
_KIND_OF_FIRST |= dict.fromkeys("0123456789", "number") | {'"': "string"}


def _kind_of(x: str) -> str:
    return (_KIND_OF_LEXEME.get(x) or _KIND_OF_FIRST.get(x[0])
            or _KIND_OF_GROUP[_MASTER.match(x).lastindex])


class Token(NamedTuple):
    kind: str
    text: str
    line: int  # 1-based
    col: int  # 1-based, counted from the start of the token's line


class Tokens(list):
    """The significant tokens of a text, in order, and ``tainted``: the lines
    that a comment or string spanning lines overlaps."""

    tainted: frozenset[int]


def tokenize(text: str) -> Tokens:
    """The significant tokens of Verilog/SystemVerilog source: every token but
    whitespace and comments. Unknown bytes become single-character "other"
    tokens, and equal lexemes share one ``str``."""
    tokens, tainted = Tokens(), set()
    append, new_token = tokens.append, tuple.__new__  # what Token._make calls, unchecked
    seen: dict[str, tuple[str, str, bool]] = {}  # lexeme -> (kind, lexeme, spans lines)
    count, find = text.count, text.find
    line, line_start, next_newline = 1, 0, find("\n")
    for m in _SCAN.finditer(text):
        x, start = m.group(1), m.start(1)
        if start > next_newline >= 0:  # the trivia before the token holds a newline
            end = m.start()
            if find("/*", end, start) >= 0:  # a block comment may span lines
                for c in _TRIVIUM.finditer(text, end, start):
                    if c.group()[0] == "/" and (inner := c.group().count("\n")):
                        first = line + count("\n", end, c.start())
                        tainted.update(range(first, first + inner + 1))
            line += count("\n", end, start)
            line_start, next_newline = text.rfind("\n", end, start) + 1, find("\n", start)
        if (entry := seen.get(x)) is None:
            if not x:  # ``\Z``
                break
            entry = seen[x] = (_kind_of(x), x, "\n" in x)
        kind, x, spans_lines = entry
        append(new_token(Token, (kind, x, line, start - line_start + 1)))
        if spans_lines:  # a string with an escaped newline
            tainted.update(range(line, line + x.count("\n") + 1))
            line += x.count("\n")
            line_start, next_newline = start + x.rfind("\n") + 1, find("\n", start + len(x))
    tokens.tainted = frozenset(tainted)
    return tokens


def _significant_lexemes(text: str) -> list[str]:
    """The text of each token ``tokenize(text)`` holds, from one ``_SCAN``."""
    lexemes = _SCAN.findall(text)
    while lexemes and not lexemes[-1]:  # the empty ``\Z`` group, twice after trailing trivia
        lexemes.pop()
    return lexemes


def _dedup_key(lexemes: list[str]) -> str:
    """The SHA-256 of each lexeme's ``kind\x00text\x01`` in turn, read from a
    table of the file's distinct lexemes, dropped with it, that takes each
    keyword's, operator's and punctuation mark's string from ``_TAGGED``."""
    tag = _TAGGED.get
    tagged = {x: tag(x) or f"{_kind_of(x)}\x00{x}" for x in set(lexemes)}
    blob = "\x01".join(map(tagged.__getitem__, lexemes)) + "\x01" if lexemes else ""
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class SourceUnit:
    """One Verilog file. Its ``tokenize`` result is computed once, on first
    use, and its module names are read from it. The filter never asks for
    either; ``augment`` lexes a short-lived copy, whose tokens give the
    mutations and the split's module names, so the units it keeps hold none."""

    id: str
    path: str
    text: str

    @cached_property
    def tokens(self) -> Tokens:
        return tokenize(self.text)

    @property
    def module_names(self) -> tuple[str, ...]:
        return tuple(b.text for a, b in pairwise(self.tokens)
                     if a.text == "module" and a.kind == "keyword" and b.kind == "identifier")

    @cached_property
    def lines(self) -> list[str]:
        return self.text.split("\n")

    @property
    def endmodule_line(self) -> int | None:
        # Only the keyword's token has this text: an escaped name keeps its `\`.
        return next((t.line for t in self.tokens if t.text == "endmodule"), None)

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


def classify_rejection(lexemes: list[str]) -> tuple[str, str] | None:
    """Apply the script-level filter rules to one unit's significant lexemes:
    ``(code, detail)``, or None when it is accepted. Only a unit with no
    functional keyword has its lexemes' kinds looked up, for the assign and
    instantiation rules.

    Duplicate detection is the caller's job (see filter_units); syntax
    checking is the compiler adapter's.
    """
    keywords = KEYWORDS.intersection(lexemes)
    missing = [w for w in ("module", "endmodule") if w not in keywords]
    if missing:
        return "missing_module_boundary", f"missing keyword(s): {', '.join(missing)}"
    if keywords.isdisjoint(_FUNCTIONAL_KEYWORDS):
        sig = [(_kind_of(x), x) for x in lexemes]
        if not (any(p == ("keyword", "assign") and _assign_is_functional(sig, i)
                    for i, p in enumerate(sig)) or _has_instantiation(sig)):
            return "no_functional_logic", (
                "no procedural block, control flow, computing assign, or instantiation")
    return None


def read_unit(unit_id: str, path: Path, errors: list[dict]) -> SourceUnit | None:
    """The file at ``path`` as a unit, read as UTF-8 with each undecodable
    byte replaced. A path that is not a file, or a file that cannot be read,
    gives None and appends ``{"unit_id", "stage": "load", "error"}`` to
    ``errors``."""
    try:
        if not path.is_file():
            raise FileNotFoundError(f"missing file: {path}")
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as exc:  # also a name too long for the file system
        errors.append({"unit_id": unit_id, "stage": "load", "error": str(exc)})
        return None
    return SourceUnit(id=unit_id, path=str(path), text=text)


def load_corpus_dir(root: str | Path, errors: list[dict]) -> Iterator[SourceUnit]:
    """Every *.v / *.sv under ``root`` (recursive), sorted by relative path.

    The directory is checked and listed at the call, as relative names, so a
    missing ``root`` raises FileNotFoundError there; each file's path is built
    and read by ``read_unit`` only when the iterator reaches it, and one that
    cannot be read is skipped.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    names = sorted(p.relative_to(root).as_posix()
                   for p in root.rglob("*") if p.is_file() and p.suffix in (".v", ".sv"))
    units = (read_unit(name, root / name, errors) for name in names)
    return (u for u in units if u is not None)


def filter_units(units: Iterable[SourceUnit]) -> list[dict]:
    """Judge each unit once, in order, from one scan of its text:
    ``classify_rejection``, then dedup.

    Only a unit that passes the rules is hashed, and it is a duplicate when an
    earlier survivor has the same dedup key; the first one wins. Returns the
    filter report, one row per unit: {"id", "path", "status", "detail"}. No
    unit is kept, so a stream of units is filtered in the memory of one.
    """
    first_by_key: dict[str, str] = {}
    rows = []
    for u in units:
        lexemes = _significant_lexemes(u.text)
        reason = classify_rejection(lexemes)
        if reason is None:
            key = _dedup_key(lexemes)
            prior = first_by_key.get(key)
            if prior is None:
                first_by_key[key] = u.id
            else:
                reason = "duplicate", f"duplicate of {prior}"
        status, detail = reason or ("accepted", "")
        rows.append({"id": u.id, "path": u.path, "status": status, "detail": detail})
        del u, lexemes  # free this unit before the next one is read
    return rows
