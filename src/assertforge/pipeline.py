"""Augmentation pipeline: wire the corpus, mutation engine, and toolchain
together to produce the three dataset families plus benchmark cases.

Per unit: syntax check (failures become pretraining records), spec and
assertion generation, deterministic bug injection, mutant compilation and
verification. Each injected bug is one ``dataset.MutantItem`` from then on.
A unit's outcome is decided once, in ``_process_unit``: its item or the one
error that stopped it. The split reads each item's module names, taken from
the unit's tokens when it was lexed for bug injection and from one fingerprint
scan otherwise. It marks each item held out or not, and CoT generation skips
held-out items, so no test item ever receives a CoT. A mutant's outcome is
decided once, in ``dataset.build_records``, which turns it into a record, a
benchmark case, a drop or an error and counts the result.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import ThreadPoolExecutor

from . import dataset as ds
from . import mutate
from .config import PipelineConfig
from .corpus import SourceUnit, module_names_of
from .errors import AssertForgeError, NoAlternativeError, ParseFailure
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
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
            continue
        lines = unit.text.split("\n")
        if not (1 <= line_no <= len(lines)) or "\n" in mutated:
            continue
        original = lines[line_no - 1]
        if mutated == original or (line_no, mutated) in seen:
            continue
        seen.add((line_no, mutated))
        records.append(
            MutationRecord(
                unit_id=unit.id,
                line=line_no,
                original_snippet=original,
                mutated_snippet=mutated,
                bug_type=mutate.BugType("Non_cond", "Unknown"),
                lhs_targets=mutate.assigned_targets(mutated) or frozenset(),
                rng_seed=_derive_seed(base_seed, unit.id, "llm", i),
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
) -> tuple[ds.PipelineItem | None, dict | None]:
    """Stages 1 and 2 for one unit: its item, or the one error that stopped it."""
    compile_outcome = tc.compile_check(unit.text)
    if compile_outcome.status == "tool_error":
        return None, {"unit_id": unit.id, "stage": "compile", "error": compile_outcome.stderr_text}
    item = ds.PipelineItem(unit.id, compile_outcome.status, code=unit.text)
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
        item.module_names = unit.module_names  # never lexed: one fingerprint scan
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
        return None, {"unit_id": unit.id, "stage": "sva", "error": str(exc)}
    baseline = tc.formal_verify(with_sva)
    if baseline.status != "proven":
        return None, {
            "unit_id": unit.id,
            "stage": "sva_validation",
            "error": f"assertion not proven on original design: {baseline.status}",
        }

    if cfg.bug_source == "llm":
        item.module_names = unit.module_names
        records = llm_bug_candidates(tc, unit, cfg.mutations_per_unit, cfg.seed)
    else:
        # Lex a copy, freed before the mutants are checked: one stream per worker.
        lexed = SourceUnit(id=unit.id, path=unit.path, text=unit.text)
        item.module_names = module_names_of(lexed.tokens)
        records = engine_bug_candidates(lexed, cfg.mutations_per_unit, cfg.seed)
        del lexed
    for rec in records:
        rec = mutate.with_relation(rec, assertion)
        buggy = rec.apply_to(unit.text)
        compiled = tc.compile_check(buggy)
        mut = ds.MutantItem(rec, compiled.status, buggy_code=buggy, log=compiled.stderr_text)
        item.mutants.append(mut)
        if mut.compile_status != "ok":
            continue
        mut.buggy_sv_code, _ = insert_assertion(buggy, sva_text)
        verify = tc.formal_verify(mut.buggy_sv_code)
        mut.verify_status = verify.status
        mut.log = verify.log_text
    return item, None


def _process_isolated(
    unit: SourceUnit, tc: Toolchain, cfg: PipelineConfig
) -> tuple[ds.PipelineItem | None, dict | None]:
    """``_process_unit``, or no item and the error when it raises: a unit that
    fails this way contributes no records."""
    try:
        return _process_unit(unit, tc, cfg)
    except AssertForgeError as exc:
        return None, {"unit_id": unit.id, "stage": "unit", "error": str(exc)}


def run_augment(
    units: list[SourceUnit], tc: Toolchain, cfg: PipelineConfig
) -> ds.RecordBundle:
    """Run the pipeline over ``units``. Reads ``seed``, ``mutations_per_unit``,
    ``split_fraction``, ``parallel`` and ``bug_source`` from ``cfg``; the
    verifier depth is the toolchain's own."""
    with ThreadPoolExecutor(max_workers=cfg.parallel) as pool:
        processed = list(pool.map(lambda u: _process_isolated(u, tc, cfg), units))
    errors = [error for _, error in processed if error]
    done = [item for item, _ in processed if item is not None]

    # Split before CoT generation: test items never receive a CoT.
    failing = [i for i in done if any(m.verify_status == "assertion_failed" for m in i.mutants)]
    split_plan = ds.split([i for i in failing if i.module_names], cfg.seed, cfg.split_fraction)
    for item in done:
        item.held_out = split_plan.unit_assignment(item) == "test"
        for mut in item.mutants:
            if item.held_out or mut.verify_status != "assertion_failed":
                continue
            rec = mut.record
            request = LlmRequest(
                task="cot",
                prompt_text=COT_PROMPT.format(
                    spec=item.spec,
                    code=mut.buggy_sv_code,
                    log=mut.log,
                    line=rec.line,
                    buggy_line=rec.mutated_snippet,
                ),
                nonce=f"{item.unit_id}:{rec.line}:{rec.rng_seed}",
            )
            try:
                mut.cot_reply = tc.llm_call(request).text
            except AssertForgeError as exc:
                errors.append(
                    {"unit_id": item.unit_id, "line": rec.line, "stage": "cot", "error": str(exc)}
                )

    bundle = ds.build_records(done)
    bundle.split_plan = split_plan
    bundle.errors = errors + bundle.errors
    return bundle


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
    header = ["Bug Type"] + list(ds.BUG_TYPE_ORDER)
    rows = [
        ["SVA-Bug"] + [str(counts["svabug"]["by_bug_type"][b]) for b in ds.BUG_TYPE_ORDER],
        ["SVA-Eval"] + [str(counts["eval"]["by_bug_type"][b]) for b in ds.BUG_TYPE_ORDER],
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
