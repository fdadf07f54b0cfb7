import collections

import pytest

from assertforge import corpus
from assertforge import dataset as ds
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
    text = "module m;\nwire x;\nendmodule\n"
    out = insert_assertion(text, "assert(x);")
    lines = out.split("\n")
    assert lines[lines.index("endmodule") - 1] == "assert(x);"
    stripped = "\n".join(l for l in out.split("\n") if l != "assert(x);")
    assert stripped == text


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


@pytest.mark.parametrize("reply", ["[" * 200_000, '{"line": 1e400, "mutated": "y = 1;"}'],
                         ids=["nested-too-deep", "infinite-line"])
def test_llm_bug_path_skips_a_reply_it_cannot_read(reply):
    u = SourceUnit(id="t", path="", text="module m;\nalways @(*) y = x;\nendmodule")
    tc = Toolchain(llm_backend=lambda req: reply)
    assert llm_bug_candidates(tc, u, 2, base_seed=1) == []


def test_llm_bug_path_reads_a_fenced_reply_like_a_bare_one():
    u = SourceUnit(id="t", path="", text="module m;\nalways @(*) y = x;\nendmodule")
    bare = '{"line": 2, "mutated": "always @(*) y = ~x;"}'
    fenced = f"Here is the bug:\n```json\n{bare}\n```\n"
    [want] = llm_bug_candidates(Toolchain(llm_backend=lambda req: bare), u, 1, base_seed=1)
    got = llm_bug_candidates(Toolchain(llm_backend=lambda req: fenced), u, 1, base_seed=1)
    assert got == [want]
    assert want.line == 2 and want.mutated_snippet == "always @(*) y = ~x;"


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


@pytest.mark.parametrize("parallel", [1, 4])
def test_augment_leaves_no_unit_holding_its_tokens(accepted_units, mock_toolchain, parallel):
    units = [SourceUnit(id=u.id, path=u.path, text=u.text) for u in accepted_units]
    res = run_augment(units, mock_toolchain, PipelineConfig(seed=20240817, parallel=parallel))
    assert res.svabug and not res.errors
    assert [u.id for u in units if "tokens" in vars(u)] == []


@pytest.mark.parametrize("bug_source", ["engine", "llm"])
def test_run_augment_scans_each_unit_once(accepted_units, mock_toolchain, monkeypatch, bug_source):
    # The split's module names come from the mutation copy's tokens, so a unit
    # on the engine path is lexed once and never fingerprint-scanned; a unit on
    # the LLM bug path is never lexed and scanned once, and a unit that fails
    # to compile is neither.
    lexed, scanned = collections.Counter(), collections.Counter()

    def counting(counter, fn):
        def wrapper(text):
            counter[text] += 1
            return fn(text)

        return wrapper

    monkeypatch.setattr(corpus, "tokenize", counting(lexed, corpus.tokenize))
    monkeypatch.setattr(corpus, "_significant_pairs", counting(scanned, corpus._significant_pairs))
    # Fresh copies, with nothing cached.
    units = [SourceUnit(id=u.id, path=u.path, text=u.text) for u in accepted_units]
    res = run_augment(units, mock_toolchain, PipelineConfig(seed=5, bug_source=bug_source))
    assert not res.errors and res.pt and res.svabug
    never_compiled = {row["code"] for row in res.pt}
    for u in units:
        if u.text in never_compiled:
            assert lexed[u.text] == 0 and scanned[u.text] == 0, u.id
        elif bug_source == "llm":
            assert lexed[u.text] == 0 and scanned[u.text] == 1, u.id
        else:
            assert lexed[u.text] == 1 and scanned[u.text] == 0, u.id
