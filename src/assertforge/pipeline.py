"""Augmentation pipeline: wire the corpus, mutation engine, and toolchain
together to produce the three dataset families plus benchmark cases.

Per unit: syntax check (failures become pretraining records), spec and
assertion generation, deterministic bug injection, mutant compilation and
verification. Each injected bug is one ``dataset.MutantItem`` from then on.
The train/test split assigns every mutant its unit's side, CoT generation
runs for train-side assertion failures only, and ``dataset.build_records``
routes the items; test-side assertion failures become machine benchmark
cases instead, so no test item ever receives a CoT.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import dataset as ds
from . import mutate
from .config import PipelineConfig
from .corpus import SourceUnit
from .errors import AssertForgeError, NoAlternativeError, ParseFailure
from .evalharness import BUG_TYPE_ORDER, EvalCase
from .mutate import AssertionSpec, MutationRecord
from .toolchain import LlmRequest, Toolchain

SPEC_PROMPT = """Write a short design specification for this Verilog module.
Describe its ports and intended behaviour in plain language.

{code}
"""

ANALYSIS_PROMPT = """The following Verilog fails to compile. Explain the cause
of the syntax error.

{code}

Compiler diagnostics:
{stderr}
"""

SVA_PROMPT = """Write one SystemVerilog assertion that checks a key property of
this design. Reply with the assertion statement only.

Specification:
{spec}

{code}
"""

COT_PROMPT = """Specification:
{spec}

Buggy SystemVerilog code:
{code}

Verification log:
{log}

The bug is on line {line}: {buggy_line}
Explain step by step why the assertion fails and how to fix it. Respond with
one JSON object with exactly these keys: "buggy_line", "fix", "cot".
"""

BUGS_PROMPT = """Inject one realistic single-line bug into this Verilog design.
Respond with one JSON object with keys "line" (1-based) and "mutated" (the
replacement line text).

{code}
"""


@dataclass
class AugmentResult:
    pt: list[ds.PtRecord] = field(default_factory=list)
    bug: list[ds.BugRecord] = field(default_factory=list)
    svabug: list[ds.SvaBugRecord] = field(default_factory=list)
    eval_cases: list[EvalCase] = field(default_factory=list)
    split_plan: ds.SplitPlan | None = None
    counts: dict = field(default_factory=dict)
    errors: list[dict] = field(default_factory=list)
    drops: list[dict] = field(default_factory=list)
    cot_stats: dict = field(default_factory=dict)


def insert_assertion(text: str, sva_text: str) -> tuple[str, int]:
    """Insert the assertion on its own line just before the first endmodule.

    Returns (new text, 1-based insertion line).
    """
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if "endmodule" in line.split("//")[0]:
            return "\n".join(lines[:i] + [sva_text] + lines[i:]), i + 1
    return "\n".join(lines + [sva_text]), len(lines) + 1


def _derive_seed(base: int, *parts) -> int:
    rng = random.Random(":".join([str(base)] + [str(p) for p in parts]))
    return rng.getrandbits(63)


def llm_bug_candidates(
    tc: Toolchain, unit: SourceUnit, count: int, base_seed: int
) -> list[MutationRecord]:
    """Optional LLM-generated-bug path; replies must describe a single-line edit.

    Replies that do not parse, leave the text unchanged, or fall outside the
    file are dropped, as are repeats of an already-proposed edit.
    """
    records = []
    seen: set[tuple[int, str]] = set()
    for i in range(count):
        reply = tc.llm_call(
            LlmRequest(
                task="bugs",
                prompt_text=BUGS_PROMPT.format(code=unit.text),
                nonce=f"{unit.id}:bug{i}",
            )
        )
        try:
            obj = json.loads(reply.text)
            line_no = int(obj["line"])
            mutated = str(obj["mutated"])
        except (ValueError, KeyError, TypeError):
            continue
        lines = unit.text.split("\n")
        if not (1 <= line_no <= len(lines)) or "\n" in mutated:
            continue
        original = lines[line_no - 1]
        if mutated == original or (line_no, mutated) in seen:
            continue
        seen.add((line_no, mutated))
        info = mutate._analyze_line(mutated)
        targets = frozenset(t.text for t in info.lhs_idents)
        records.append(
            MutationRecord(
                unit_id=unit.id,
                line=line_no,
                original_snippet=original,
                mutated_snippet=mutated,
                bug_type=mutate.BugType("Non_cond", "Unknown"),
                lhs_targets=targets,
                rng_seed=_derive_seed(base_seed, unit.id, "llm", i),
                detail="llm-generated bug",
            )
        )
    return records


def engine_bug_candidates(
    unit: SourceUnit, count: int, base_seed: int
) -> list[MutationRecord]:
    """Deterministic rule-based bugs: seed-chosen sites and rewrites."""
    sites = mutate.enumerate_sites(unit)
    flat = [(line, kind) for line, kinds in sites for kind in kinds]
    if not flat:
        return []
    rng = random.Random(f"{base_seed}:{unit.id}")
    records = []
    seen: set[tuple[int, str]] = set()
    attempts = 0
    while len(records) < count and attempts < count * 8:
        attempts += 1
        line, kind = flat[rng.randrange(len(flat))]
        seed = rng.getrandbits(63)
        try:
            rec = mutate.apply_mutation(unit, line, kind, seed)
        except NoAlternativeError:
            continue
        key = (rec.line, rec.mutated_snippet)
        if key in seen:
            continue
        seen.add(key)
        records.append(rec)
    return records


def _process_unit(
    unit: SourceUnit, tc: Toolchain, cfg: PipelineConfig
) -> tuple[ds.PipelineItem, dict | None]:
    """Stages 1 and 2 for one unit: the item, plus the error that cut it short."""
    compile_outcome = tc.compile_check(unit.text)
    item = ds.PipelineItem(unit.id, compile_outcome.status, code=unit.text)
    if compile_outcome.status == "tool_error":
        return item, {"unit_id": unit.id, "stage": "compile", "error": compile_outcome.stderr_text}
    item.spec = tc.llm_call(
        LlmRequest(task="spec", prompt_text=SPEC_PROMPT.format(code=unit.text))
    ).text
    if compile_outcome.status == "syntax_error":
        item.analysis = tc.llm_call(
            LlmRequest(
                task="cot",
                prompt_text=ANALYSIS_PROMPT.format(
                    code=unit.text, stderr=compile_outcome.stderr_text
                ),
            )
        ).text
        return item, None

    sva_text = tc.llm_call(
        LlmRequest(
            task="sva",
            prompt_text=SVA_PROMPT.format(spec=item.spec, code=unit.text),
        )
    ).text.strip()
    try:
        with_sva, at_line = insert_assertion(unit.text, sva_text)
        assertion = AssertionSpec.from_text(sva_text, at_line)
    except (ParseFailure, AssertForgeError) as exc:
        return item, {"unit_id": unit.id, "stage": "sva", "error": str(exc)}
    baseline = tc.formal_verify(with_sva)
    if baseline.status != "proven":
        return item, {
            "unit_id": unit.id,
            "stage": "sva_validation",
            "error": f"assertion not proven on original design: {baseline.status}",
        }

    if cfg.bug_source == "llm":
        records = llm_bug_candidates(tc, unit, cfg.mutations_per_unit, cfg.seed)
    else:
        records = engine_bug_candidates(unit, cfg.mutations_per_unit, cfg.seed)
    for rec in records:
        rec = mutate.with_relation(rec, assertion)
        buggy = rec.apply_to(unit.text)
        mut = ds.MutantItem(rec, tc.compile_check(buggy).status, buggy_code=buggy)
        item.mutants.append(mut)
        if mut.compile_status != "ok":
            continue
        mut.buggy_sv_code, _ = insert_assertion(buggy, sva_text)
        verify = tc.formal_verify(mut.buggy_sv_code)
        mut.verify_status = verify.status
        mut.log = verify.log_text
    return item, None


def run_augment(
    units: list[SourceUnit], tc: Toolchain, cfg: PipelineConfig | None = None
) -> AugmentResult:
    """Run the pipeline over ``units``. Reads ``seed``, ``mutations_per_unit``,
    ``split_fraction``, ``parallel`` and ``bug_source`` from ``cfg``; the
    verifier depth is the toolchain's own."""
    cfg = cfg or PipelineConfig()
    result = AugmentResult()

    if cfg.parallel > 1:
        with ThreadPoolExecutor(max_workers=cfg.parallel) as pool:
            processed = list(pool.map(lambda u: _process_unit(u, tc, cfg), units))
    else:
        processed = [_process_unit(u, tc, cfg) for u in units]
    items = [item for item, _ in processed]
    result.errors.extend(error for _, error in processed if error)
    failing = [
        [m for m in item.mutants if m.verify_status == "assertion_failed"] for item in items
    ]

    # Split before CoT generation: test items never receive a CoT.
    split_units = [u for u, fails in zip(units, failing) if fails and u.module_names]
    if split_units:
        result.split_plan = ds.split(split_units, cfg.seed, cfg.split_fraction)
    else:
        empty = tuple(ds.SplitBin(label, (), ()) for label in ds.BIN_LABELS)
        result.split_plan = ds.SplitPlan(cfg.seed, empty)

    for unit, item in zip(units, items):
        assignment = result.split_plan.unit_assignment(unit) or "train"
        for mut in item.mutants:
            mut.assignment = assignment
            if assignment == "test" or mut.verify_status != "assertion_failed":
                continue
            rec = mut.record
            mut.cot_reply = tc.llm_call(
                LlmRequest(
                    task="cot",
                    prompt_text=COT_PROMPT.format(
                        spec=item.spec,
                        code=mut.buggy_sv_code,
                        log=mut.log,
                        line=rec.line,
                        buggy_line=rec.mutated_snippet,
                    ),
                    nonce=f"{unit.id}:{rec.line}:{rec.rng_seed}",
                )
            ).text

    bundle = ds.build_records(items, {u.id for u in units})
    result.pt = bundle.pt
    result.bug = bundle.bug
    result.svabug = bundle.svabug
    result.drops = bundle.drops
    result.errors.extend(bundle.errors)
    result.cot_stats = {
        "total": bundle.cot_total,
        "correct": bundle.cot_correct,
        "unparseable": bundle.cot_unparseable,
    }

    # Benchmark cases from the reserved 10%; the index counts the unit's
    # assertion failures.
    for unit, item, fails in zip(units, items, failing):
        for idx, mut in enumerate(fails):
            if mut.held_out:
                result.eval_cases.append(
                    EvalCase(
                        id=f"{unit.id}#m{idx}",
                        source="machine",
                        spec=item.spec,
                        buggy_sv_code=mut.buggy_sv_code,
                        log=mut.log,
                        golden=mut.golden,
                        bug_type=mut.record.bug_type,
                        length_bin=ds.length_bin(max(1, unit.line_count)),
                    )
                )

    result.counts = _distribution_counts(units, failing, result)
    return result


def _distribution_counts(units, failing, result: AugmentResult) -> dict:
    """Counts of SVA-Bug and benchmark entries per length interval and bug type."""

    def empty() -> dict:
        return {
            "by_interval": {label: 0 for label in ds.BIN_LABELS},
            "by_bug_type": {b: 0 for b in BUG_TYPE_ORDER},
        }

    svabug_counts = empty()
    eval_counts = empty()
    for unit, fails in zip(units, failing):
        interval = ds.BIN_LABELS[ds.length_bin(max(1, unit.line_count))]
        for mut in fails:
            target = eval_counts if mut.held_out else svabug_counts
            target["by_interval"][interval] += 1
            target["by_bug_type"][mut.record.bug_type.relation] += 1
            target["by_bug_type"][mut.record.bug_type.syntactic] += 1
    return {
        "families": {
            "pt": len(result.pt),
            "bug": len(result.bug),
            "svabug": len(result.svabug),
            "eval": len(result.eval_cases),
        },
        "svabug": svabug_counts,
        "eval": eval_counts,
    }


def render_counts_table(counts: dict) -> str:
    """Plain-text table in the shape of the distribution summary."""
    lines = []
    fam = counts["families"]
    lines.append(
        f"records: pt={fam['pt']} bug={fam['bug']} svabug={fam['svabug']} eval={fam['eval']}"
    )
    header = ["Length Interval"] + list(ds.BIN_LABELS)
    rows = [
        ["SVA-Bug"] + [str(counts["svabug"]["by_interval"][b]) for b in ds.BIN_LABELS],
        ["SVA-Eval"] + [str(counts["eval"]["by_interval"][b]) for b in ds.BIN_LABELS],
    ]
    lines += _render_rows(header, rows)
    header = ["Bug Type"] + list(BUG_TYPE_ORDER)
    rows = [
        ["SVA-Bug"] + [str(counts["svabug"]["by_bug_type"][b]) for b in BUG_TYPE_ORDER],
        ["SVA-Eval"] + [str(counts["eval"]["by_bug_type"][b]) for b in BUG_TYPE_ORDER],
    ]
    lines += _render_rows(header, rows)
    return "\n".join(lines)


def _render_rows(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    out = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return out
