"""Dataset assembly: the JSONL input row formats, the three record families,
the machine benchmark cases, CoT validation, and the length-binned 90/10
module-name split.

A unit's outcome is decided once, in ``pipeline._process_unit``, and a
mutant's once, in ``build_records``: every injected bug lands in exactly one
family, one benchmark case, or one documented drop or error. A mutant is its
record: its golden fix is the record's two snippets, and its source is derived
from its unit's item by ``PipelineItem.mutant_source`` only where it is used,
so a written row holds the one copy it writes. A case's golden fix is its two
golden fields. The same pass counts what it routed. Every output file is
written whole by ``write_whole``. JSONL field names are part of the external
contract and must not drift.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from .corpus import SourceUnit
from .errors import DomainError, SchemaError
from .mutate import SYNTACTIC_KINDS, MutationRecord
from .textutil import normalize_line, normalize_line_loose, parse_solution_reply

BIN_LABELS = ("(0,50]", "(50,100]", "(100,150]", "(150,200]", "(200,+inf)")

SOURCES = ("machine", "human")

# Canonical breakdown key order: the two relation values then the five
# syntactic values, i.e. the seven taxonomy rows.
BUG_TYPE_ORDER = ("Direct", "Indirect", "Var", "Value", "Op", "Cond", "Non_cond")


def length_bin(line_count: int) -> int:
    """Bin index for a code length; intervals are open below, closed above."""
    if line_count < 1:
        raise DomainError(f"line_count must be >= 1, got {line_count}")
    if line_count <= 50:
        return 0
    if line_count <= 100:
        return 1
    if line_count <= 150:
        return 2
    if line_count <= 200:
        return 3
    return 4


# ---------------------------------------------------------------------------
# Input rows: one table per JSONL input, its fields in checking order, each a
# JSON type, PROB, a list of one such entry, or a table for objects in a list.

PROB = "probability in (0, 1]"
_TYPE_NAMES = {str: "string", bool: "boolean", PROB: PROB}

MANIFEST_ROW = {"path": str, "id": str}
# A row missing its code says so first.
CASE_ROW = dict.fromkeys(("buggy_sv_code", "id", "source", "spec", "log", "golden_buggy_line",
                          "golden_corrected_line", "bug_syntactic", "bug_relation"), str)
RESULTS_ROW = {"case_id": str, "responses": [{"raw_text": str, "valid_json": bool, "verdict": str}]}
LOSS_ROWS = {"pt": {"token_probs": [PROB]}, "sft": {"token_probs": [PROB]},
             "dpo": dict.fromkeys(("policy_p", "ref_p", "policy_n", "ref_n"), PROB)}


def row_error(row: dict, fields: dict, what: str) -> str | None:
    """``"<what> has no <field> <type>"`` for the first field of ``row`` that
    ``fields`` does not admit, or None. An entry of a list field is named
    ``field[i]``, and a field of an object in a list ``field[i].name``."""
    error = _type_error(row, fields, "")
    return None if error is None else f"{what} has no {error}"


def _type_error(value, kind, name: str) -> str | None:
    if isinstance(kind, dict):
        if type(value) is not dict:
            return f"{name} object"
        errors = (_type_error(value.get(f), k, f"{name}.{f}" if name else f)
                  for f, k in kind.items())
    elif isinstance(kind, list):
        if type(value) is not list:
            return f"{name} list"
        errors = (_type_error(entry, kind[0], f"{name}[{i}]") for i, entry in enumerate(value))
    else:  # bool is an int subclass, and not a probability
        ok = type(value) in (int, float) and 0 < value <= 1 if kind is PROB else type(value) is kind
        return None if ok else f"{name} {_TYPE_NAMES[kind]}"
    return next(filter(None, errors), None)


# ---------------------------------------------------------------------------
# Benchmark cases


@dataclass(frozen=True)
class EvalCase:
    """One benchmark case: a failing design, its log and the golden fix. The
    fields are the case row's, in schema order."""

    id: str
    source: str  # machine | human
    spec: str
    buggy_sv_code: str
    log: str
    golden_buggy_line: str
    golden_corrected_line: str
    bug_syntactic: str
    bug_relation: str
    length_bin: int

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown case source: {self.source!r}")
        if self.bug_syntactic not in SYNTACTIC_KINDS:
            raise ValueError(f"unknown syntactic bug type: {self.bug_syntactic!r}")
        if self.bug_relation not in ("Direct", "Indirect"):
            raise ValueError(f"unknown bug relation: {self.bug_relation!r}")
        if not (0 <= self.length_bin <= 4):
            raise ValueError("length_bin must lie in 0..4")

    @cached_property
    def loose_golden(self) -> tuple[str, str]:
        """Both golden lines as the judge compares them, normalized once."""
        return (normalize_line_loose(self.golden_buggy_line),
                normalize_line_loose(self.golden_corrected_line))

    @classmethod
    def from_json(cls, obj: dict) -> "EvalCase":
        error = row_error(obj, CASE_ROW, "eval case")
        if error is not None:
            raise SchemaError(error)
        lb = obj.get("length_bin")
        if lb is None:
            lb = length_bin(max(1, len(obj["buggy_sv_code"].splitlines())))
        elif type(lb) is not int:  # bool is an int subclass, and not a bin
            raise SchemaError(f"eval case length_bin must be an integer, got {lb!r}")
        return cls(**{f: obj[f] for f in CASE_ROW}, length_bin=lb)


# ---------------------------------------------------------------------------
# Split


def split(units: Iterable[SourceUnit | PipelineItem], seed: int, fraction: float = 0.9) -> dict:
    """Per-bin 90/10 module-name split, reproducible from the seed: the
    ``split_plan.json`` document, ``{"seed", "bins": [{"interval", "train",
    "test"}]}``, each name list sorted.

    Module names are binned by their first unit's code length, sorted, shuffled
    with a bin-local seeded PRNG, and the first round-half-up(fraction * N)
    go to train. Each name lands in one bin, and a unit follows its first
    module name. ``augment`` passes the ``PipelineItem``s that carry them."""
    if not (0.0 < fraction < 1.0):
        raise DomainError("split fraction must lie in (0, 1)")
    frac = Fraction(str(fraction))
    names_by_bin: list[list[str]] = [[] for _ in BIN_LABELS]
    placed: set[str] = set()
    for i, u in enumerate(units):
        if not u.module_names:
            raise DomainError(f"split unit {i} has no module name")
        b = length_bin(u.line_count)
        for name in u.module_names:
            if name not in placed:
                placed.add(name)
                names_by_bin[b].append(name)
    bins = []
    for bi, names in enumerate(names_by_bin):
        ordered = sorted(names)
        rng = random.Random(f"{seed}:{bi}")
        rng.shuffle(ordered)
        k = int(frac * len(ordered) + Fraction(1, 2))  # round half up
        bins.append({"interval": BIN_LABELS[bi], "train": sorted(ordered[:k]),
                     "test": sorted(ordered[k:])})
    return {"seed": seed, "bins": bins}


# ---------------------------------------------------------------------------
# CoT validation


def _matches_golden(parsed: dict, record: MutationRecord) -> bool:
    """Whether a parsed reply's buggy line and fix match the record's injected
    line and original under trim/collapse-whitespace/drop-semicolon normalization."""
    return normalize_line(parsed["buggy_line"]) == normalize_line(record.mutated_snippet) and (
        normalize_line(parsed["fix"]) == normalize_line(record.original_snippet)
    )


# ---------------------------------------------------------------------------
# Record building


def insert_assertion(text: str, sva_text: str, before: int | None) -> str:
    """Insert the assertion on its own line just before line ``before``, the
    design's ``SourceUnit.endmodule_line``, or append it when that is None."""
    lines = text.split("\n")
    at = len(lines) if before is None else before - 1
    return "\n".join(lines[:at] + [sva_text] + lines[at:])


@dataclass
class MutantItem:
    """One injected bug, its relation (Direct or Indirect) to the unit's
    assertion and its tool outcomes, ready for routing. ``log`` is the output
    of the last tool that ran on it. It holds no source: its record is the
    edit, and ``PipelineItem.mutant_source`` derives the text where it is used."""

    record: MutationRecord
    relation: str
    compile_status: str
    verify_status: str | None = None
    log: str = ""
    cot_reply: str | None = None  # raw Stage-3 reply; None when not generated


@dataclass
class PipelineItem:
    """Everything Stage 1 and 2 produced for one unit. A held-out (test-split)
    unit's mutants stay out of the training families."""

    unit_id: str
    compile_status: str  # ok | syntax_error
    code: str = ""
    spec: str = ""
    analysis: str = ""
    mutants: list[MutantItem] = field(default_factory=list)
    held_out: bool = False
    module_names: tuple[str, ...] = ()  # what the split reads of the unit
    sva_text: str = ""  # the unit's assertion
    sva_before: int | None = None  # the line it goes above, as in the baseline verify

    @property
    def line_count(self) -> int:
        return len(self.code.splitlines())

    def mutant_source(self, record: MutationRecord, with_sva: bool = True) -> str:
        """The source of one mutant of this unit: ``code`` with ``record``
        applied and, unless ``with_sva`` is False, the assertion inserted."""
        code = record.apply_to(self.code)
        return insert_assertion(code, self.sva_text, self.sva_before) if with_sva else code


@dataclass
class RecordBundle:
    """Everything ``build_records`` routed, and the counts over it. The
    ``pt``/``bug``/``svabug`` rows are the JSONL objects as written, keys in
    schema order."""

    pt: list[dict] = field(default_factory=list)
    bug: list[dict] = field(default_factory=list)
    svabug: list[dict] = field(default_factory=list)
    eval_cases: list[EvalCase] = field(default_factory=list)
    drops: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)
    split_plan: dict | None = None  # the split_plan.json document
    counts: dict = field(default_factory=dict)
    cot_stats: dict = field(
        default_factory=lambda: {"total": 0, "correct": 0, "unparseable": 0}
    )


def _empty_counts() -> dict:
    return {
        "by_interval": dict.fromkeys(BIN_LABELS, 0),
        "by_bug_type": dict.fromkeys(BUG_TYPE_ORDER, 0),
    }


def build_records(items: Iterable[PipelineItem]) -> RecordBundle:
    """Route pipeline items into the three families and the benchmark cases,
    validate CoTs, and count SVA-Bug records and cases per length interval
    and bug type.

    Each mutant is routed on its own compile and verify statuses. A held-out
    unit's assertion failures become benchmark cases with id
    ``{unit_id}#m{i}``, where i counts the unit's assertion failures; its
    other outcomes become drops or errors, never records. An unknown status
    raises DomainError.
    """
    bundle = RecordBundle()
    sides = {"svabug": _empty_counts(), "eval": _empty_counts()}
    cot = bundle.cot_stats
    for item in items:
        if item.compile_status == "syntax_error":
            bundle.pt.append({"code": item.code, "spec": item.spec, "analysis": item.analysis})
            continue
        if item.compile_status != "ok":
            raise DomainError(f"unknown unit compile status: {item.compile_status!r}")
        bin_index = length_bin(max(1, item.line_count))
        failures = 0
        for mut in item.mutants:
            rec = mut.record  # its two snippets are the golden fix
            where = {"unit_id": item.unit_id, "line": rec.line}
            if mut.compile_status == "syntax_error":
                # The compiler eliminates syntactically broken bugs before verification.
                bundle.drops.append({**where, "outcome": "drop:mutant_syntax_error"})
                continue
            if mut.compile_status == "tool_error":
                bundle.errors.append({**where, "stage": "compile", "error": mut.log})
                continue
            if mut.compile_status != "ok":
                raise DomainError(f"unknown compile status: {mut.compile_status!r}")
            if mut.verify_status == "tool_error":
                bundle.errors.append({**where, "stage": "verify", "error": mut.log})
                continue
            if mut.verify_status in ("proven", "inconclusive"):
                if not item.held_out:
                    bundle.bug.append(
                        {
                            "spec": item.spec,
                            "buggy_code": item.mutant_source(rec, with_sva=False),
                            "buggy_line": rec.mutated_snippet,
                            "corrected_line": rec.original_snippet,
                        }
                    )
                continue
            if mut.verify_status != "assertion_failed":
                raise DomainError(f"unknown verify status: {mut.verify_status!r}")
            side = sides["eval" if item.held_out else "svabug"]
            side["by_interval"][BIN_LABELS[bin_index]] += 1
            side["by_bug_type"][mut.relation] += 1
            side["by_bug_type"][rec.kind] += 1
            failures += 1
            if item.held_out:
                bundle.eval_cases.append(
                    EvalCase(
                        id=f"{item.unit_id}#m{failures - 1}",
                        source="machine",
                        spec=item.spec,
                        buggy_sv_code=item.mutant_source(rec),
                        log=mut.log,
                        golden_buggy_line=rec.mutated_snippet,
                        golden_corrected_line=rec.original_snippet,
                        bug_syntactic=rec.kind,
                        bug_relation=mut.relation,
                        length_bin=bin_index,
                    )
                )
                continue
            cot_text = None
            if mut.cot_reply is not None:
                cot["total"] += 1
                parsed = parse_solution_reply(mut.cot_reply)
                if parsed is None:
                    cot["unparseable"] += 1
                elif _matches_golden(parsed, rec):
                    cot["correct"] += 1
                    cot_text = parsed["cot"] or ""
            bundle.svabug.append(
                {
                    "spec": item.spec,
                    "buggy_sv_code": item.mutant_source(rec),
                    "log": mut.log,
                    "step_by_step": cot_text is not None,
                    "buggy_line": rec.mutated_snippet,
                    "corrected_line": rec.original_snippet,
                    "cot": cot_text,
                }
            )
    bundle.counts = {
        "families": {
            "pt": len(bundle.pt),
            "bug": len(bundle.bug),
            "svabug": len(bundle.svabug),
            "eval": len(bundle.eval_cases),
        },
        **sides,
    }
    return bundle


# ---------------------------------------------------------------------------
# JSONL IO


def write_whole(path: str | Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` whole or not at all: into a file staged
    under a random name in its directory, then moved onto ``path``. A write
    that fails leaves no staged file and raises OSError naming ``path``."""
    path = Path(path)
    staged = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(staged, "x", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(staged, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(staged)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
        raise


def write_jsonl(records: Iterable[dict], path: str | Path, header: dict | None = None) -> None:
    """One JSON object per line; optional metadata header as the first line.
    No record is held once its line is made, so ``records`` may stream."""
    rows = records if header is None else itertools.chain([header], records)
    write_whole(path, map(_jsonl_line, rows))


def _jsonl_line(rec: dict) -> str:
    return json.dumps(rec) + "\n"


def read_jsonl(path: str | Path) -> list[dict]:
    """Parse a JSONL file; malformed input, including a line that is not
    UTF-8, raises SchemaError with its line."""
    path = Path(path)
    if not path.is_file():
        raise SchemaError(f"no such file: {path}")
    rows = []
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                obj = json.loads(raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise SchemaError(f"not UTF-8 at byte {exc.start}", line=lineno) from exc
            except (ValueError, RecursionError) as exc:  # too many digits, or too deep
                raise SchemaError(f"malformed JSON: {getattr(exc, 'msg', exc)}",
                                  line=lineno) from exc
            if not isinstance(obj, dict):
                raise SchemaError("record is not a JSON object", line=lineno)
            rows.append(obj)
    return rows


def strip_meta_header(rows: list[dict]) -> tuple[dict | None, list[dict]]:
    """Split off the CLI's metadata header line when present."""
    if rows and "tool_version" in rows[0]:
        return rows[0], rows[1:]
    return None, rows
