"""Dataset assembly: the three record families, the machine benchmark cases,
CoT validation, and the length-binned 90/10 module-name split.

A unit's outcome is decided once, in ``pipeline._process_unit``, and a
mutant's once, in ``build_records``: every injected bug lands in exactly one
family, one benchmark case, or one documented drop or error. The same pass
counts what it routed. JSONL field names are part of the external contract
and must not drift.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from .corpus import SourceUnit
from .errors import DomainError, SchemaError
from .mutate import BugType, MutationRecord
from .textutil import normalize_line, parse_solution_reply

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
# Benchmark cases


@dataclass(frozen=True)
class GoldenSolution:
    """Mechanical ground truth: the injected line and its pre-mutation original."""

    buggy_line: str
    corrected_line: str


# Checked in this order, so a row missing its code says so first.
_CASE_TEXT_FIELDS = ("buggy_sv_code", "id", "source", "spec", "log", "golden_buggy_line",
                     "golden_corrected_line", "bug_syntactic", "bug_relation")


@dataclass(frozen=True)
class EvalCase:
    """One benchmark case: a failing design, its log and the golden fix."""

    id: str
    source: str  # machine | human
    spec: str
    buggy_sv_code: str
    log: str
    golden: GoldenSolution
    bug_type: BugType
    length_bin: int

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown case source: {self.source!r}")
        if self.bug_type.relation == "Unknown":
            raise ValueError("eval cases must carry a resolved Direct/Indirect relation")
        if not (0 <= self.length_bin <= 4):
            raise ValueError("length_bin must lie in 0..4")

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "source": self.source,
            "spec": self.spec,
            "buggy_sv_code": self.buggy_sv_code,
            "log": self.log,
            "golden_buggy_line": self.golden.buggy_line,
            "golden_corrected_line": self.golden.corrected_line,
            "bug_syntactic": self.bug_type.syntactic,
            "bug_relation": self.bug_type.relation,
            "length_bin": self.length_bin,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "EvalCase":
        for name in _CASE_TEXT_FIELDS:
            if name not in obj:
                raise SchemaError(f"eval case missing field {name!r}")
            if not isinstance(obj[name], str):
                raise SchemaError(
                    f"eval case {name} must be a string, got {type(obj[name]).__name__}"
                )
        lb = obj.get("length_bin")
        if lb is None:
            lb = length_bin(max(1, len(obj["buggy_sv_code"].splitlines())))
        elif type(lb) is not int:  # bool is an int subclass, and not a bin
            raise SchemaError(f"eval case length_bin must be an integer, got {lb!r}")
        return cls(
            id=obj["id"],
            source=obj["source"],
            spec=obj["spec"],
            buggy_sv_code=obj["buggy_sv_code"],
            log=obj["log"],
            golden=GoldenSolution(obj["golden_buggy_line"], obj["golden_corrected_line"]),
            bug_type=BugType(obj["bug_syntactic"], obj["bug_relation"]),
            length_bin=lb,
        )


# ---------------------------------------------------------------------------
# Split


@dataclass(frozen=True)
class SplitBin:
    interval: str
    train: tuple[str, ...]
    test: tuple[str, ...]


@dataclass(frozen=True)
class SplitPlan:
    seed: int
    bins: tuple[SplitBin, ...]

    def assignment_of(self, module_name: str) -> str | None:
        for b in self.bins:
            if module_name in b.train:
                return "train"
            if module_name in b.test:
                return "test"
        return None

    def unit_assignment(self, unit: SourceUnit) -> str | None:
        """A unit follows its first module name's assignment."""
        if not unit.module_names:
            return None
        return self.assignment_of(unit.module_names[0])

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "bins": [
                {"interval": b.interval, "train": list(b.train), "test": list(b.test)}
                for b in self.bins
            ],
        }


def _round_half_up(fraction: Fraction, n: int) -> int:
    return int(fraction * n + Fraction(1, 2))


def split(units: list[SourceUnit], seed: int, fraction: float = 0.9) -> SplitPlan:
    """Per-bin 90/10 module-name split, reproducible from the seed.

    Module names are binned by their first unit's code length, sorted, shuffled
    with a bin-local seeded PRNG, and the first round-half-up(fraction * N)
    go to train.
    """
    if not (0.0 < fraction < 1.0):
        raise DomainError("split fraction must lie in (0, 1)")
    frac = Fraction(str(fraction))
    names_by_bin: list[list[str]] = [[] for _ in BIN_LABELS]
    placed: set[str] = set()
    for u in units:
        if not u.module_names:
            raise DomainError(f"unit {u.id} has no module name")
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
        k = _round_half_up(frac, len(ordered))
        bins.append(
            SplitBin(
                interval=BIN_LABELS[bi],
                train=tuple(sorted(ordered[:k])),
                test=tuple(sorted(ordered[k:])),
            )
        )
    return SplitPlan(seed, tuple(bins))


# ---------------------------------------------------------------------------
# CoT validation


def _matches_golden(parsed: dict, golden: GoldenSolution) -> bool:
    """Whether a parsed reply's buggy line and fix both match the golden
    solution under trim/collapse-whitespace/drop-semicolon normalization."""
    return normalize_line(parsed["buggy_line"]) == normalize_line(golden.buggy_line) and (
        normalize_line(parsed["fix"]) == normalize_line(golden.corrected_line)
    )


def validate_cot(cot_text: str, golden: GoldenSolution) -> str:
    """'correct' when the reply parses and matches the golden solution."""
    if not cot_text:
        raise DomainError("empty CoT text")
    parsed = parse_solution_reply(cot_text)
    return "correct" if parsed is not None and _matches_golden(parsed, golden) else "incorrect"


# ---------------------------------------------------------------------------
# Record building


@dataclass
class MutantItem:
    """One injected bug with its tool outcomes, ready for routing. ``log`` is
    the output of the last tool that ran on it."""

    record: MutationRecord
    compile_status: str
    verify_status: str | None = None
    buggy_code: str = ""  # mutant source without the assertion
    buggy_sv_code: str = ""  # mutant source with the assertion inserted
    log: str = ""
    cot_reply: str | None = None  # raw Stage-3 reply; None when not generated

    @property
    def golden(self) -> GoldenSolution:
        return GoldenSolution(self.record.mutated_snippet, self.record.original_snippet)


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
    split_plan: SplitPlan | None = None
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
        bin_index = length_bin(max(1, len(item.code.splitlines())))
        failures = 0
        for mut in item.mutants:
            where = {"unit_id": item.unit_id, "line": mut.record.line}
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
            golden = mut.golden
            if mut.verify_status in ("proven", "inconclusive"):
                if not item.held_out:
                    bundle.bug.append(
                        {
                            "spec": item.spec,
                            "buggy_code": mut.buggy_code,
                            "buggy_line": golden.buggy_line,
                            "corrected_line": golden.corrected_line,
                        }
                    )
                continue
            if mut.verify_status != "assertion_failed":
                raise DomainError(f"unknown verify status: {mut.verify_status!r}")
            bug_type = mut.record.bug_type
            side = sides["eval" if item.held_out else "svabug"]
            side["by_interval"][BIN_LABELS[bin_index]] += 1
            side["by_bug_type"][bug_type.relation] += 1
            side["by_bug_type"][bug_type.syntactic] += 1
            failures += 1
            if item.held_out:
                bundle.eval_cases.append(
                    EvalCase(
                        id=f"{item.unit_id}#m{failures - 1}",
                        source="machine",
                        spec=item.spec,
                        buggy_sv_code=mut.buggy_sv_code,
                        log=mut.log,
                        golden=golden,
                        bug_type=bug_type,
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
                elif _matches_golden(parsed, golden):
                    cot["correct"] += 1
                    cot_text = parsed["cot"] or ""
            bundle.svabug.append(
                {
                    "spec": item.spec,
                    "buggy_sv_code": mut.buggy_sv_code,
                    "log": mut.log,
                    "step_by_step": cot_text is not None,
                    "buggy_line": golden.buggy_line,
                    "corrected_line": golden.corrected_line,
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


def write_jsonl(records: Iterable[dict], path: str | Path, header: dict | None = None) -> None:
    """One JSON object per line; optional metadata header as the first line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps(header) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


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
            except json.JSONDecodeError as exc:
                raise SchemaError(f"malformed JSON: {exc.msg}", line=lineno) from exc
            if not isinstance(obj, dict):
                raise SchemaError("record is not a JSON object", line=lineno)
            rows.append(obj)
    return rows


def strip_meta_header(rows: list[dict]) -> tuple[dict | None, list[dict]]:
    """Split off the CLI's metadata header line when present."""
    if rows and "tool_version" in rows[0]:
        return rows[0], rows[1:]
    return None, rows
