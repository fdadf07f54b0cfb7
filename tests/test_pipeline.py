import collections
import json
import sys
import weakref

import pytest
from click.testing import CliRunner

from assertforge import corpus
from assertforge import dataset as ds
from assertforge import mutate
from assertforge.cli import main
from assertforge.config import PipelineConfig
from assertforge.corpus import SourceUnit
from assertforge.pipeline import (
    engine_bug_candidates,
    insert_assertion,
    llm_bug_candidates,
    render_counts_table,
    run_augment,
)
from assertforge.toolchain import Toolchain, ToolSettings, VerifyOutcome
from mockbackends import fake_compile, fake_llm, make_fake_verify


def test_insert_assertion_before_endmodule():
    # Only an ``endmodule`` keyword token ends the module: a name or a
    # comment that spells the word does not.
    for head in ("module m;", "module m(input clk, output reg endmodule_seen);",
                 "module m; /* no endmodule here */",
                 "module m;\n/* an old\nendmodule\n   went here */"):
        text = f"{head}\nwire x;\nendmodule\n"
        end = SourceUnit(id="u", path="", text=text).endmodule_line
        out = insert_assertion(text, "assert(x);", end)
        assert out == f"{head}\nwire x;\nassert(x);\nendmodule\n", head
    assert insert_assertion("module m;\n", "assert(x);", None) == "module m;\n\nassert(x);"


def test_render_counts_table_pinned():
    def side(intervals, types):
        return {"by_interval": dict(zip(ds.BIN_LABELS, intervals)),
                "by_bug_type": dict(zip(ds.BUG_TYPE_ORDER, types))}

    # A value wider than its column's header widens the column.
    counts = {"families": {"pt": 2, "bug": 45, "svabug": 27, "eval": 2},
              "svabug": side([12, 0, 3, 1234567890, 0], [20, 7, 5, 10, 4, 3, 5]),
              "eval": side([1, 0, 0, 0, 1], [2, 0, 0, 1, 123, 1, 0])}
    assert render_counts_table(counts).split("\n") == [
        "records: pt=2 bug=45 svabug=27 eval=2",
        "Length Interval  (0,50]  (50,100]  (100,150]  (150,200]   (200,+inf)",
        "SVA-Bug          12      0         3          1234567890  0         ",
        "SVA-Eval         1       0         0          0           1         ",
        "Bug Type  Direct  Indirect  Var  Value  Op   Cond  Non_cond",
        "SVA-Bug   20      7         5    10     4    3     5       ",
        "SVA-Eval  2       0         0    1      123  1     0       ",
    ]


def test_engine_candidates_deterministic(accepted_units):
    u = next(u for u in accepted_units if u.id == "core/counter.v")
    a = engine_bug_candidates(u, 3, base_seed=5)
    b = engine_bug_candidates(u, 3, base_seed=5)
    assert a == b
    assert len(a) == 3
    assert len({(r.line, r.mutated_snippet) for r in a}) == 3


def test_run_augment_families_nonempty(accepted_units, mock_toolchain):
    res = run_augment(accepted_units, mock_toolchain, PipelineConfig(seed=20240817))
    assert res.pt and res.bug and res.svabug
    assert not res.errors
    # step_by_step biconditional over every emitted record
    for rec in res.svabug:
        assert rec["step_by_step"] == (rec["cot"] is not None)
    # logs on svabug records come from failing verification runs
    for rec in res.svabug:
        assert "FAIL" in rec["log"]


def test_run_augment_all_proven_empty_svabug(accepted_units, corpus_units):
    tc = Toolchain(
        ToolSettings(),
        compile_backend=fake_compile,
        verify_backend=lambda s, d: VerifyOutcome("proven", "PASS"),
        llm_backend=fake_llm,
    )
    res = run_augment(accepted_units, tc, PipelineConfig(seed=1))
    assert res.svabug == [] and res.eval_cases == []
    assert res.bug  # bugs that never trip the assertion are retained


def test_run_augment_verifier_down_reports_items(accepted_units):
    tc = Toolchain(
        ToolSettings(),
        compile_backend=fake_compile,
        verify_backend=lambda s, d: VerifyOutcome("tool_error", "no verifier"),
        llm_backend=fake_llm,
    )
    res = run_augment(accepted_units, tc, PipelineConfig(seed=1))
    assert res.svabug == [] and res.bug == []
    assert res.errors
    assert all("stage" in e and "error" in e for e in res.errors)


def test_run_augment_parallel_matches_serial(accepted_units, corpus_units):
    originals = {u.text for u in corpus_units}

    def make_tc():
        return Toolchain(
            ToolSettings(),
            compile_backend=fake_compile,
            verify_backend=make_fake_verify(originals),
            llm_backend=fake_llm,
        )

    serial = run_augment(accepted_units, make_tc(), PipelineConfig(seed=3, parallel=1))
    parallel = run_augment(accepted_units, make_tc(), PipelineConfig(seed=3, parallel=4))
    assert serial.svabug == parallel.svabug
    assert serial.bug == parallel.bug
    assert serial.counts == parallel.counts


def test_run_augment_test_items_never_get_cot(accepted_units, mock_toolchain):
    res = run_augment(accepted_units, mock_toolchain, PipelineConfig(seed=20240817))
    test_names = {n for b in res.split_plan["bins"] for n in b["test"]}
    assert res.eval_cases, "fixture seed should reserve at least one unit"
    for case in res.eval_cases:
        # eval cases stem from test-assigned units only
        unit_id = case.id.split("#")[0]
        unit = next(u for u in accepted_units if u.id == unit_id)
        assert unit.module_names[0] in test_names
    # and svabug rows from units whose first module name is not a test name
    first_names = {u.module_names[0] for u in accepted_units if u.module_names}
    assert res.svabug
    for row in res.svabug:
        name = SourceUnit(id="row", path="", text=row["buggy_sv_code"]).module_names[0]
        assert name in first_names and name not in test_names


def test_llm_bug_path_single_line(mock_toolchain, accepted_units):
    u = next(u for u in accepted_units if u.id == "core/counter.v")
    records = llm_bug_candidates(mock_toolchain, u, 2, base_seed=9)
    assert records
    for rec in records:
        mutated = rec.apply_to(u.text)
        diffs = [
            i
            for i, (a, b) in enumerate(zip(u.text.split("\n"), mutated.split("\n")))
            if a != b
        ]
        assert len(diffs) == 1


def test_llm_bug_path_rejects_bad_replies():
    u = SourceUnit(id="t", path="", text="module m;\nalways @(*) y = x;\nendmodule")
    tc = Toolchain(llm_backend=lambda req: "not json at all")
    assert llm_bug_candidates(tc, u, 2, base_seed=1) == []


# A reply is kept only when "line" is a JSON integer and "mutated" a string.
@pytest.mark.parametrize(
    "reply",
    ["[" * 200_000, '{"line": 1e400, "mutated": "y = 1;"}', '{"line": 2, "mutated": null}',
     '{"line": true, "mutated": "y = 1;"}', '{"line": 2.9, "mutated": "y = 1;"}',
     '{"line": "2", "mutated": "y = 1;"}', '{"line": 2, "mutated": 5}', '{"mutated": "y = 1;"}'],
    ids=["nested-too-deep", "infinite-line", "mutated-null", "line-bool", "line-float",
         "line-string", "mutated-int", "no-line"])
def test_llm_bug_path_skips_a_reply_it_cannot_read(reply):
    u = SourceUnit(id="t", path="", text="module m;\nalways @(*) y = x;\nendmodule")
    tc = Toolchain(llm_backend=lambda req: reply)
    assert llm_bug_candidates(tc, u, 2, base_seed=1) == []


PROBE_TEXT = ("module m(input clk, input en, input d, output reg q);\n"
              "always @(posedge clk)\nif (en)\nq <= d;\nendmodule")
PROBE_SVA = "assert property (@(posedge clk) q == d);"


def _probe_toolchain() -> Toolchain:
    replies = {"spec": "spec", "sva": PROBE_SVA, "cot": "none",
               "bugs": json.dumps({"line": 3, "mutated": "if (!en)"})}

    def verify(source, depth):
        if source == insert_assertion(PROBE_TEXT, PROBE_SVA, 5):
            return VerifyOutcome("proven", "PASS")
        return VerifyOutcome("assertion_failed", "FAIL", failing_step=0)

    return Toolchain(compile_backend=fake_compile, verify_backend=verify,
                     llm_backend=lambda req: replies[req.task])


def test_llm_and_engine_paths_give_a_condition_edit_the_same_targets_and_relation():
    # The edit `if (en)` -> `if (!en)` assigns nothing itself: both paths take
    # the targets of the statement the original condition governs.
    unit = SourceUnit(id="p", path="", text=PROBE_TEXT)
    engine = mutate.apply_mutation(unit, 3, "Cond", 0)
    [llm] = llm_bug_candidates(_probe_toolchain(), unit, 1, base_seed=1)
    assert engine.mutated_snippet == llm.mutated_snippet == "if (!en)"
    assert engine.lhs_targets == llm.lhs_targets == {"q"}
    assert engine.kind == llm.kind == "Cond"
    signals = mutate.extract_referenced_signals(PROBE_SVA)
    assert mutate.classify_relation(engine, signals) == "Direct"
    assert mutate.classify_relation(llm, signals) == "Direct"
    res = run_augment([unit], _probe_toolchain(),
                      PipelineConfig(seed=1, bug_source="llm", mutations_per_unit=1))
    assert not res.errors and len(res.svabug) == 1
    by_type = res.counts["svabug"]["by_bug_type"]
    assert by_type["Direct"] == by_type["Cond"] == 1 and by_type["Non_cond"] == 0


def _llm_bug(text: str, line: int, mutated: str):
    reply = json.dumps({"line": line, "mutated": mutated})
    [rec] = llm_bug_candidates(Toolchain(llm_backend=lambda req: reply),
                               SourceUnit(id="t", path="", text=text), 1, base_seed=1)
    return rec


# The engine keeps a line's layout; a reply often does not.
INDENTED_TEXT = ("module m(input clk, input a, input b, input d, output reg q);\n"
                 "always @(posedge clk)\n  if (a > b)\n    q <= d;\nendmodule")


@pytest.mark.parametrize("text, line, mutated, kind", [
    (PROBE_TEXT, 4, "q <= ~d;", "Non_cond"),  # no engine rewrite, outside any condition
    (PROBE_TEXT, 3, "if (en && d)", "Cond"),  # no engine rewrite, inside a condition
    (PROBE_TEXT, 4, "q <= en;", "Var"),  # the first kind whose engine rewrites include it
    (PROBE_TEXT, 2, "always @(negedge clk)", "Cond"),
    (INDENTED_TEXT, 4, "q <= a;", "Var"),  # the rewrite `    q <= a;`, indentation dropped
    (INDENTED_TEXT, 3, "if(a<b)", "Op"),  # the rewrite `  if (a < b)`, spaces dropped
], ids=["invert-rhs", "widen-condition", "swap-name", "swap-edge",
        "swap-name-unindented", "swap-op-respaced"])
def test_an_llm_bug_takes_the_kind_of_the_engine_rewrite_it_matches(text, line, mutated, kind):
    assert _llm_bug(text, line, mutated).kind == kind


def test_an_edit_in_a_later_statement_is_direct_on_both_paths():
    text = ("module m(input clk, input rst, output reg q, output reg r);\n"
            "always @(posedge clk)\n  if (rst) begin q <= 0; r <= 0; end\nendmodule")
    mutated = "  if (rst) begin q <= 0; r <= 1; end"
    unit = SourceUnit(id="t", path="", text=text)
    [engine] = [rec for rec in (mutate.apply_mutation(unit, 3, "Value", s) for s in range(2))
                if rec.mutated_snippet == mutated]
    llm = _llm_bug(text, 3, mutated)
    assert engine.lhs_targets == llm.lhs_targets == {"r"}
    assert engine.kind == llm.kind == "Value"
    for rec in (engine, llm):
        assert mutate.classify_relation(rec, frozenset({"r"})) == "Direct"


def test_an_sva_reply_with_no_assert_is_an_sva_error_and_is_never_verified(monkeypatch):
    replies = {"spec": "spec", "sva": "q == d"}
    tc = Toolchain(compile_backend=fake_compile, llm_backend=lambda req: replies[req.task])
    verified, real_verify = [], tc.formal_verify
    monkeypatch.setattr(tc, "formal_verify", lambda src: verified.append(src) or real_verify(src))
    res = run_augment([SourceUnit(id="p", path="", text=PROBE_TEXT)], tc, PipelineConfig(seed=1))
    assert res.errors == [{"unit_id": "p", "stage": "sva", "error": "assertion has no assert keyword"}]
    assert verified == []


def test_llm_bug_path_reads_a_fenced_reply_like_a_bare_one():
    u = SourceUnit(id="t", path="", text="module m;\nalways @(*) y = x;\nendmodule")
    bare = '{"line": 2, "mutated": "always @(*) y = ~x;"}'
    fenced = f"Here is the bug:\n```json\n{bare}\n```\n"
    [want] = llm_bug_candidates(Toolchain(llm_backend=lambda req: bare), u, 1, base_seed=1)
    got = llm_bug_candidates(Toolchain(llm_backend=lambda req: fenced), u, 1, base_seed=1)
    assert got == [want]
    assert want.line == 2 and want.mutated_snippet == "always @(*) y = ~x;"


SPANNING_COMMENT_TEXT = ("module m(input clk, input d, output reg q);\n"
             "// keep q in step with d\n"
             "always @(posedge clk) q <= d; /* the comment\n"
             "   spans lines */\n"
             "endmodule")


@pytest.mark.parametrize("line, mutated, kept", [
    (3, "always @(posedge clk) q <= ~d; /* the comment", False),  # a tainted line
    (1, "module m(input clk, input d, output reg  q); // ports", False),
    (1, "module m(input clk, input d, output q);", True),
], ids=["tainted-line", "layout-and-comment", "real-edit"])
def test_llm_bug_path_drops_an_edit_that_cannot_be_a_bug(line, mutated, kept):
    # An edit that changes no significant token leaves the design as it was,
    # and a line a multi-line comment overlaps is one the engine never rewrites.
    u = SourceUnit(id="t", path="", text=SPANNING_COMMENT_TEXT)
    reply = json.dumps({"line": line, "mutated": mutated})
    records = llm_bug_candidates(Toolchain(llm_backend=lambda req: reply), u, 1, base_seed=1)
    assert [r.mutated_snippet for r in records] == ([mutated] if kept else [])


def test_llm_bug_path_drops_the_no_op_replies_of_a_comment_line():
    text = ("module m(input clk, input d, output reg q);\n// keep q in step with d\n"
            "always @(posedge clk) q <= d;\nendmodule")
    u = SourceUnit(id="t", path="", text=text)
    for line, mutated in ((2, "  // keep q out of step with d"), (3, text.split("\n")[2] + " ")):
        reply = json.dumps({"line": line, "mutated": mutated})
        assert llm_bug_candidates(Toolchain(llm_backend=lambda req: reply), u, 2, 1) == []


@pytest.mark.parametrize("parallel", [1, 4])
def test_augment_builds_each_unit_identifier_pool_at_most_once(
    accepted_units, mock_toolchain, monkeypatch, parallel
):
    built = collections.Counter()
    real = mutate._identifier_pool

    def counting(unit):
        built[unit.text] += 1
        return real(unit)

    monkeypatch.setattr(mutate, "_identifier_pool", counting)
    monkeypatch.setattr(mutate, "_POOLS", weakref.WeakKeyDictionary())  # none built yet
    units = [SourceUnit(id=u.id, path=u.path, text=u.text) for u in accepted_units]
    res = run_augment(units, mock_toolchain, PipelineConfig(seed=20240817, parallel=parallel))
    assert res.svabug and not res.errors
    assert built and set(built.values()) == {1}


def test_run_augment_with_llm_bug_source(accepted_units, mock_toolchain):
    cfg = PipelineConfig(seed=5, bug_source="llm", mutations_per_unit=2)
    res = run_augment(accepted_units, mock_toolchain, cfg)
    assert not res.errors
    assert res.bug or res.svabug


def test_augment_lexes_a_unit_once_and_only_when_it_reaches_mutation(
    monkeypatch, accepted_units, mock_toolchain
):
    import assertforge.corpus as c

    lexed = collections.Counter()
    real = c.tokenize

    def counting(text):
        lexed[text] += 1
        return real(text)

    monkeypatch.setattr(c, "tokenize", counting)
    units = [SourceUnit(id=u.id, path=u.path, text=u.text) for u in accepted_units]
    res = run_augment(units, mock_toolchain, PipelineConfig(seed=20240817, parallel=4))
    assert res.svabug and not res.errors
    compiled = {u.text for u in units if fake_compile(u.text).status == "ok"}
    assert len(compiled) < len(units)  # some unit fails its compile check
    assert set(lexed) == compiled
    assert set(lexed.values()) == {1}


def test_augment_lexes_a_unit_that_fails_its_baseline_verify_once(monkeypatch):
    # The assertion goes above the unit's first `endmodule` keyword token, so a
    # unit is lexed when it reaches its baseline verify, even one that fails it.
    lexed = collections.Counter()
    real = corpus.tokenize
    monkeypatch.setattr(corpus, "tokenize", lambda text: lexed.update([text]) or real(text))
    replies = {"spec": "spec", "sva": PROBE_SVA}
    def verify(source, depth):
        return VerifyOutcome("assertion_failed", "FAIL")

    tc = Toolchain(compile_backend=fake_compile, verify_backend=verify,
                   llm_backend=lambda req: replies[req.task])
    res = run_augment([SourceUnit(id="p", path="", text=PROBE_TEXT)], tc, PipelineConfig(seed=1))
    assert [e["stage"] for e in res.errors] == ["sva_validation"]
    assert lexed == {PROBE_TEXT: 1}


@pytest.mark.parametrize("parallel", [1, 4])
def test_augment_leaves_no_unit_holding_its_tokens(accepted_units, mock_toolchain, parallel):
    units = [SourceUnit(id=u.id, path=u.path, text=u.text) for u in accepted_units]
    res = run_augment(units, mock_toolchain, PipelineConfig(seed=20240817, parallel=parallel))
    assert res.svabug and not res.errors
    assert [u.id for u in units if "tokens" in vars(u)] == []


@pytest.mark.parametrize("bug_source", ["engine", "llm"])
def test_run_augment_scans_each_unit_once(accepted_units, mock_toolchain, monkeypatch, bug_source):
    # The split's module names come from the mutation copy's tokens, so a unit
    # on either bug path is lexed once and never fingerprint-scanned, and a
    # unit that fails to compile is neither.
    lexed, scanned = collections.Counter(), collections.Counter()

    def counting(counter, fn):
        def wrapper(text):
            counter[text] += 1
            return fn(text)

        return wrapper

    monkeypatch.setattr(corpus, "tokenize", counting(lexed, corpus.tokenize))
    monkeypatch.setattr(corpus, "_significant_lexemes", counting(scanned, corpus._significant_lexemes))
    # Fresh copies, with nothing cached.
    units = [SourceUnit(id=u.id, path=u.path, text=u.text) for u in accepted_units]
    res = run_augment(units, mock_toolchain, PipelineConfig(seed=5, bug_source=bug_source))
    assert not res.errors and res.pt and res.svabug
    never_compiled = {row["code"] for row in res.pt}
    for u in units:
        if u.text in never_compiled:
            assert lexed[u.text] == 0 and scanned[u.text] == 0, u.id
        else:
            assert lexed[u.text] == 1 and scanned[u.text] == 0, u.id


def test_augment_with_a_compiler_that_writes_non_utf8_writes_every_output(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for name in ("a", "b"):
        (corpus_dir / f"{name}.v").write_text(
            f"module {name} (input clk, input en, input d, output reg q);\n"
            "  always @(posedge clk)\n    if (en) q <= d;\nendmodule\n")
    config = tmp_path / "e9.cfg"
    e9 = f'{sys.executable} -c "import sys; sys.stdout.buffer.write(bytes([233]))"'
    config.write_text(f"compiler.cmd = {e9}\nllm.cmd = {e9}\n")
    out = tmp_path / "out"
    runner = CliRunner()
    res = runner.invoke(main, ["filter", "--corpus-dir", str(corpus_dir), "--out-dir", str(out)],
                        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["augment", "--config", str(config), "--manifest",
                               str(out / "manifest.jsonl"), "--out-dir", str(out)],
                        catch_exceptions=False)
    assert res.exit_code == 1 and "Traceback" not in res.output
    # Compile and both LLM calls read U+FFFD; the reply holds no assertion.
    errors = json.loads(res.stderr)["errors"]
    assert [(e["unit_id"], e["error"]) for e in errors] == [
        ("a.v", "assertion has no assert keyword"), ("b.v", "assertion has no assert keyword")]
    for name in ("pt.jsonl", "bug.jsonl", "svabug.jsonl", "sva_eval_machine.jsonl",
                 "split_plan.json", "augment_report.json"):
        assert (out / name).is_file(), name


def _routed_items(monkeypatch) -> list[ds.PipelineItem]:
    """The items that ``run_augment`` hands to ``build_records``, once it has."""
    items: list[ds.PipelineItem] = []
    real = ds.build_records
    monkeypatch.setattr(ds, "build_records", lambda done: real(items.extend(done) or done))
    return items


@pytest.mark.parametrize("parallel", [1, 4])
def test_a_mutant_holds_no_copy_of_its_unit(accepted_units, mock_toolchain, monkeypatch, parallel):
    items = _routed_items(monkeypatch)
    res = run_augment(accepted_units, mock_toolchain, PipelineConfig(seed=20240817, parallel=parallel))
    assert res.svabug and res.bug and res.eval_cases and not res.errors
    mutants = [(item, mut) for item in items for mut in item.mutants]
    assert mutants
    for item, mut in mutants:
        # The CoT reply is the LLM's own text, and longer than a short unit; it
        # still holds no copy of the unit, whose every copy holds its first line.
        texts = {name: value for name, value in vars(mut).items() if isinstance(value, str)}
        head = item.code.split("\n")[0]
        assert [n for n, v in texts.items() if len(v) >= len(item.code) and n != "cot_reply"
                or head in v] == [], item.unit_id


def test_a_mutants_derived_sources_are_those_it_was_built_from(accepted_units, monkeypatch):
    # Differential against the construction the items once held: the edit
    # applied to the unit's text, then the assertion inserted above the
    # unit's `endmodule` line. The tools and the written rows see exactly those.
    seen = collections.defaultdict(list)
    verify = make_fake_verify({u.text for u in accepted_units})

    def llm(req):
        reply = fake_llm(req)
        seen[req.task].append((req.prompt_text, reply))
        return reply

    tc = Toolchain(compile_backend=lambda s: seen["compile"].append(s) or fake_compile(s),
                   verify_backend=lambda s, d: seen["verify"].append(s) or verify(s, d),
                   llm_backend=llm)
    items = _routed_items(monkeypatch)
    res = run_augment(accepted_units, tc, PipelineConfig(seed=20240817))
    units = {u.id: u for u in accepted_units}
    plain, with_sva = set(), set()
    for item in (i for i in items if i.mutants):  # a unit that failed to compile has none
        unit = units[item.unit_id]
        end = SourceUnit(id=unit.id, path="", text=unit.text).endmodule_line
        sva = next(r for p, r in seen["sva"] if p.endswith(f"\n{unit.text}\n")).strip()
        for mut in item.mutants:
            buggy = mut.record.apply_to(unit.text)
            assert item.mutant_source(mut.record, with_sva=False) == buggy
            assert item.mutant_source(mut.record) == insert_assertion(buggy, sva, end)
            plain.add(buggy)
            if mut.compile_status == "ok":
                with_sva.add(insert_assertion(buggy, sva, end))
    assert plain and with_sva
    assert plain <= set(seen["compile"]) and with_sva <= set(seen["verify"])
    assert {r["buggy_code"] for r in res.bug} <= plain
    written = [r["buggy_sv_code"] for r in res.svabug] + [c.buggy_sv_code for c in res.eval_cases]
    assert written and set(written) <= with_sva
    cot_prompts = [p for p, _ in seen["cot"] if "Buggy SystemVerilog code:" in p]
    assert cot_prompts and all(any(s in p for s in with_sva) for p in cot_prompts)
