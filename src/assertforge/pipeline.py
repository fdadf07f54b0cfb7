"""Augmentation pipeline: wire the corpus, mutation engine, and toolchain
together to produce the three dataset families plus benchmark cases.

Per unit: syntax check (failures become pretraining records), spec and
assertion generation, deterministic bug injection, mutant compilation and
verification. Each injected bug is one ``dataset.MutantItem`` from then on,
which holds its record and outcomes but no source: ``PipelineItem.mutant_source``
derives the source for the compile call, the verify call and the CoT prompt.
A unit's outcome is decided once, in ``_process_unit``: its item or the one
error that stopped it. Both bug sources work on one lexed copy of the unit,
and the split reads the module names of each item with an assertion failure
from its tokens; a unit that fails to compile is never lexed. Each mutant is
classified Direct or Indirect once, by one rule, against the signals its
unit's assertion references. The split marks each item held out or not, and
CoT generation skips held-out items, so no test item ever receives a CoT. A
mutant's outcome is decided once, in ``dataset.build_records``, which turns it
into a record, a benchmark case, a drop or an error and counts the result.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor

from . import dataset as ds
from . import mutate
from .config import PipelineConfig
from .corpus import SourceUnit
from .dataset import insert_assertion
from .errors import AssertForgeError, NoAlternativeError
from .mutate import MutationRecord
from .textutil import extract_json_object
from .toolchain import LlmRequest, Prompt, Toolchain

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


def _derive_seed(base: int, *parts) -> int:
    rng = random.Random(":".join([str(base)] + [str(p) for p in parts]))
    return rng.getrandbits(63)


def llm_bug_candidates(
    tc: Toolchain, unit: SourceUnit, count: int, base_seed: int
) -> list[MutationRecord]:
    """Optional LLM-generated-bug path; replies must describe a single-line edit.

    Replies are read like solve replies, so a fenced object counts. Those that
    do not parse, whose ``line`` is no JSON integer or ``mutated`` no string,
    or that fall outside the file are dropped, as are repeats of an
    already-proposed edit and the edits ``mutate.edit`` finds no bug: one that
    changes no significant token of its line, or one on a line that a comment
    or string spanning lines overlaps.
    """
    records = []
    seen: set[tuple[int, str]] = set()
    prompt = Prompt(BUGS_PROMPT.format(code=unit.text))
    for i in range(count):
        reply = tc.llm_call(LlmRequest(task="bugs", prompt_text=prompt, nonce=f"{unit.id}:bug{i}"))
        obj = extract_json_object(reply.text) or {}
        line_no, mutated = obj.get("line"), obj.get("mutated")
        if type(line_no) is not int or type(mutated) is not str:  # bool is an int subclass
            continue
        if not (1 <= line_no <= len(unit.lines)) or "\n" in mutated or (line_no, mutated) in seen:
            continue
        seen.add((line_no, mutated))
        if rec := mutate.edit(unit, line_no, mutated, _derive_seed(base_seed, unit.id, "llm", i)):
            records.append(rec)
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
        return item, None

    item.sva_text = tc.llm_call(
        LlmRequest(
            task="sva",
            prompt_text=SVA_PROMPT.format(spec=item.spec, code=unit.text),
        )
    ).text.strip()
    try:
        signals = mutate.extract_referenced_signals(item.sva_text)
    except AssertForgeError as exc:
        return None, {"unit_id": unit.id, "stage": "sva", "error": str(exc)}
    # Lex a copy, freed before the mutants are checked: one stream per worker.
    lexed = SourceUnit(id=unit.id, path=unit.path, text=unit.text)
    item.module_names, item.sva_before = lexed.module_names, lexed.endmodule_line
    baseline = tc.formal_verify(insert_assertion(unit.text, item.sva_text, item.sva_before))
    if baseline.status != "proven":
        return None, {
            "unit_id": unit.id,
            "stage": "sva_validation",
            "error": f"assertion not proven on original design: {baseline.status}",
        }
    if cfg.bug_source == "llm":
        records = llm_bug_candidates(tc, lexed, cfg.mutations_per_unit, cfg.seed)
    else:
        records = engine_bug_candidates(lexed, cfg.mutations_per_unit, cfg.seed)
    del lexed
    for rec in records:
        compiled = tc.compile_check(item.mutant_source(rec, with_sva=False))
        mut = ds.MutantItem(rec, mutate.classify_relation(rec, signals), compiled.status,
                            log=compiled.stderr_text)
        item.mutants.append(mut)
        if mut.compile_status != "ok":
            continue
        verify = tc.formal_verify(item.mutant_source(rec))
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
    test_names = {name for b in split_plan["bins"] for name in b["test"]}
    for item in done:
        item.held_out = bool(item.module_names) and item.module_names[0] in test_names
        for mut in item.mutants:
            if item.held_out or mut.verify_status != "assertion_failed":
                continue
            rec = mut.record
            request = LlmRequest(
                task="cot",
                prompt_text=COT_PROMPT.format(
                    spec=item.spec,
                    code=item.mutant_source(rec),
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
    fam = counts["families"]
    lines = [f"records: pt={fam['pt']} bug={fam['bug']} svabug={fam['svabug']} eval={fam['eval']}"]
    for title, table, keys in (("Length Interval", "by_interval", ds.BIN_LABELS),
                               ("Bug Type", "by_bug_type", ds.BUG_TYPE_ORDER)):
        rows = [[title, *keys]]
        for name, side in (("SVA-Bug", "svabug"), ("SVA-Eval", "eval")):
            rows.append([name] + [str(counts[side][table][k]) for k in keys])
        widths = [max(map(len, column)) for column in zip(*rows)]
        lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
    return "\n".join(lines)
