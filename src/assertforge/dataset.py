"""Dataset assembly: the three record families, the machine benchmark cases,
CoT validation, and the length-binned 90/10 module-name split.

Routing happens once, in ``build_records``: it is a total function of
(compile status, verify status, split assignment), and every injected bug
lands in exactly one family, one benchmark case, or one documented drop or
error. The same pass counts what it routed. JSONL field names are part of the
external contract and must not drift.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from .corpus import SourceUnit
from .errors import DomainError, InconsistentProvenance, SchemaError
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
    line_no: int = 0


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


def validate_cot(cot_text: str, golden: GoldenSolution) -> str:
    """'correct' when the reply's buggy line and fix both match the golden
    solution under trim/collapse-whitespace/drop-semicolon normalization."""
    if not cot_text:
        raise DomainError("empty CoT text")
    parsed = parse_solution_reply(cot_text)
    if parsed is None:
        return "incorrect"
    if normalize_line(parsed["buggy_line"]) == normalize_line(golden.buggy_line) and (
        normalize_line(parsed["fix"]) == normalize_line(golden.corrected_line)
    ):
        return "correct"
    return "incorrect"


# ---------------------------------------------------------------------------
# Routing and record building


def route_unit(compile_status: str) -> str:
    """Stage-1 routing of a whole unit: pt, proceed, or a documented error."""
    if compile_status == "syntax_error":
        return "pt"
    if compile_status == "ok":
        return "proceed"
    if compile_status == "tool_error":
        return "error:compile_tool_error"
    raise DomainError(f"unknown compile status: {compile_status!r}")


def route_mutant(compile_status: str, verify_status: str | None) -> str:
    """Stage-2 routing of one injected bug. Total over the status product."""
    if compile_status == "tool_error":
        return "error:compile_tool_error"
    if compile_status == "syntax_error":
        # The compiler eliminates syntactically broken bugs before verification.
        return "drop:mutant_syntax_error"
    if compile_status == "ok":
        if verify_status == "assertion_failed":
            return "svabug"
        if verify_status in ("proven", "inconclusive"):
            return "bug"
        if verify_status == "tool_error":
            return "error:verify_tool_error"
        raise DomainError(f"unknown verify status: {verify_status!r}")
    raise DomainError(f"unknown compile status: {compile_status!r}")


@dataclass
class MutantItem:
    """One injected bug with its tool outcomes and split assignment, ready for
    routing. A test-assigned bug is held out of the training families: it
    becomes a benchmark case when it trips the assertion, and nothing when it
    does not."""

    record: MutationRecord
    compile_status: str
    verify_status: str | None = None
    buggy_code: str = ""  # mutant source without the assertion
    buggy_sv_code: str = ""  # mutant source with the assertion inserted
    log: str = ""
    assignment: str = "train"  # train | test, from the unit's module name
    cot_reply: str | None = None  # raw Stage-3 reply; None when not generated

    @property
    def golden(self) -> GoldenSolution:
        rec = self.record
        return GoldenSolution(rec.mutated_snippet, rec.original_snippet, rec.line)

    @property
    def held_out(self) -> bool:
        return self.assignment == "test"


@dataclass
class PipelineItem:
    """Everything Stage 1 and 2 produced for one unit."""

    unit_id: str
    compile_status: str
    code: str = ""
    spec: str = ""
    analysis: str = ""
    mutants: list[MutantItem] = field(default_factory=list)


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


def build_records(items: Iterable[PipelineItem], corpus_ids: set[str]) -> RecordBundle:
    """Route pipeline items into the three families and the benchmark cases,
    validate CoTs, and count SVA-Bug records and cases per length interval
    and bug type.

    A held-out mutant that trips the assertion becomes a benchmark case with
    id ``{unit_id}#m{i}``, where i counts the unit's assertion failures; its
    other outcomes become drops or errors, never records. Raises
    InconsistentProvenance when an item references a unit id absent from
    ``corpus_ids``.
    """
    bundle = RecordBundle()
    sides = {"svabug": _empty_counts(), "eval": _empty_counts()}
    cot = bundle.cot_stats
    for item in items:
        if item.unit_id not in corpus_ids:
            raise InconsistentProvenance(f"unknown unit id: {item.unit_id}")
        outcome = route_unit(item.compile_status)
        if outcome == "pt":
            bundle.pt.append({"code": item.code, "spec": item.spec, "analysis": item.analysis})
            continue
        if outcome != "proceed":
            bundle.errors.append({"unit_id": item.unit_id, "outcome": outcome})
            continue
        bin_index = length_bin(max(1, len(item.code.splitlines())))
        failures = 0
        for mut in item.mutants:
            routed = route_mutant(mut.compile_status, mut.verify_status)
            golden = mut.golden
            if routed == "svabug":
                bug_type = mut.record.bug_type
                side = sides["eval" if mut.held_out else "svabug"]
                side["by_interval"][BIN_LABELS[bin_index]] += 1
                side["by_bug_type"][bug_type.relation] += 1
                side["by_bug_type"][bug_type.syntactic] += 1
                failures += 1
                if mut.held_out:
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
                    elif validate_cot(mut.cot_reply, golden) == "correct":
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
            elif routed == "bug":
                if not mut.held_out:
                    bundle.bug.append(
                        {
                            "spec": item.spec,
                            "buggy_code": mut.buggy_code,
                            "buggy_line": golden.buggy_line,
                            "corrected_line": golden.corrected_line,
                        }
                    )
            elif routed.startswith("drop:"):
                bundle.drops.append(
                    {"unit_id": item.unit_id, "line": golden.line_no, "outcome": routed}
                )
            else:
                bundle.errors.append(
                    {"unit_id": item.unit_id, "line": golden.line_no, "outcome": routed}
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
    """Parse a JSONL file; malformed input raises SchemaError with its line."""
    path = Path(path)
    if not path.is_file():
        raise SchemaError(f"no such file: {path}")
    rows = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                obj = json.loads(raw)
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
