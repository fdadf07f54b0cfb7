import json
import random

import pytest

from assertforge.corpus import SourceUnit
from assertforge.dataset import (
    MutantItem,
    PipelineItem,
    build_records,
    length_bin,
    read_jsonl,
    split,
    strip_meta_header,
    write_jsonl,
)
from assertforge.errors import DomainError, SchemaError
from assertforge.mutate import MutationRecord
from assertforge.textutil import normalize_line, normalize_line_loose


# -- length_bin ----------------------------------------------------------------


def oracle_bin(n):
    # Independent chain of comparisons.
    if 1 <= n and n <= 50:
        return 0
    elif 50 < n and n <= 100:
        return 1
    elif 100 < n and n <= 150:
        return 2
    elif 150 < n and n <= 200:
        return 3
    else:
        return 4


def test_bin_boundaries():
    assert length_bin(50) == 0
    assert length_bin(51) == 1
    assert length_bin(1000) == 4


def test_bin_oracle_duplication():
    for n in range(1, 500):
        assert length_bin(n) == oracle_bin(n)


def test_bin_rejects_nonpositive():
    with pytest.raises(DomainError):
        length_bin(0)


# -- split -----------------------------------------------------------------------


def synth_unit(name, lines, uid=None):
    body = "\n".join(f"// pad {i}" for i in range(max(0, lines - 3)))
    text = f"module {name};\n{body}\nendmodule\n"
    # line_count is what matters; construct text with exactly `lines` lines
    text = "\n".join([f"module {name};"] + [f"// {i}" for i in range(lines - 2)] + ["endmodule"])
    return SourceUnit(id=uid or name, path="", text=text)


def test_split_ten_modules_nine_one():
    units = [synth_unit(f"m{i:02d}", 10) for i in range(10)]
    plan = split(units, seed=7)
    b0 = plan["bins"][0]
    assert len(b0["train"]) == 9 and len(b0["test"]) == 1
    assert set(b0["train"]) | set(b0["test"]) == {f"m{i:02d}" for i in range(10)}
    assert not (set(b0["train"]) & set(b0["test"]))


def test_split_single_module_goes_to_train():
    plan = split([synth_unit("solo", 10)], seed=1)
    assert plan["bins"][0]["train"] == ["solo"] and plan["bins"][0]["test"] == []


def test_split_deterministic():
    units = [synth_unit(f"m{i}", 10 + i) for i in range(30)]
    assert split(units, seed=42) == split(units, seed=42)
    assert split(units, seed=42) != split(units, seed=43)


def test_split_partition_property_random_corpora():
    rng = random.Random(2024)
    for trial in range(60):
        units = []
        for i in range(rng.randrange(1, 40)):
            lines = rng.randrange(3, 260)
            units.append(synth_unit(f"t{trial}_m{i}", lines))
        plan = split(units, seed=rng.getrandbits(32))
        names_by_bin = {}
        for u in units:
            names_by_bin.setdefault(oracle_bin(u.line_count), set()).add(u.module_names[0])
        for bi, b in enumerate(plan["bins"]):
            names = names_by_bin.get(bi, set())
            train, test = set(b["train"]), set(b["test"])
            assert train | test == names
            assert not (train & test)
            n = len(names)
            assert len(train) == (9 * n + 5) // 10  # round-half-up of 0.9n


def test_split_places_each_module_name_once():
    text = "module alpha;\nendmodule\nmodule beta;\nendmodule\n"
    plan = split([SourceUnit(id="multi", path="", text=text)], seed=3)
    placed = [n for b in plan["bins"] for side in ("train", "test") for n in b[side]]
    assert sorted(placed) == ["alpha", "beta"]


# -- CoT validation ---------------------------------------------------------------

GOLDEN_BUGGY, GOLDEN_CORRECTED = "out <= in + 1;", "out <= in;"


def reply(buggy, fix, cot="because"):
    return json.dumps({"buggy_line": buggy, "fix": fix, "cot": cot})


def cot_outcome(cot_reply):
    """``build_records``' CoT counts and the ``svabug`` row's ``cot`` for one
    assertion failure on the GOLDEN_* lines with the given CoT reply."""
    code = "module m;\nout <= in;\nendmodule"
    mut = MutantItem(
        record=MutationRecord(2, GOLDEN_CORRECTED, GOLDEN_BUGGY, "Op", frozenset(), rng_seed=0),
        relation="Direct",
        compile_status="ok",
        verify_status="assertion_failed",
        log="FAIL",
        cot_reply=cot_reply,
    )
    item = PipelineItem("m", "ok", code=code, spec="s", mutants=[mut],
                        sva_text="assert(out == in);", sva_before=3)
    bundle = build_records([item])
    [row] = bundle.svabug
    assert row["step_by_step"] is (row["cot"] is not None)
    return bundle.cot_stats, row["cot"]


CORRECT = ({"total": 1, "correct": 1, "unparseable": 0}, "because")
INCORRECT = ({"total": 1, "correct": 0, "unparseable": 0}, None)


def test_cot_exact_match_correct():
    assert cot_outcome(reply("out <= in + 1;", "out <= in;")) == CORRECT


def test_cot_wrong_line_incorrect():
    assert cot_outcome(reply("out <= in - 1;", "out <= in;")) == INCORRECT


def test_cot_whitespace_noise_strict():
    # Collapse-only normalization keeps "in+1" distinct from "in + 1".
    assert normalize_line("  out <= in+1 ;") != normalize_line("out <= in + 1;")
    assert cot_outcome(reply("  out <= in+1 ;", "out <= in;")) == INCORRECT
    # Pure run-collapsing and semicolon noise is tolerated.
    assert cot_outcome(reply("  out  <=  in + 1 ;", "out <= in;")) == CORRECT


def test_cot_unparseable_incorrect():
    assert cot_outcome("the bug is on line 3") == (
        {"total": 1, "correct": 0, "unparseable": 1}, None)


def test_normalization_strengths_differ():
    assert normalize_line("out<=in;") != normalize_line("out <= in;")
    assert normalize_line_loose("out<=in;") == normalize_line_loose("out <= in;")


# -- routing ----------------------------------------------------------------------


VERIFY_STATUSES = ("proven", "assertion_failed", "inconclusive", "tool_error", None)
OUTPUTS = ("pt", "bug", "svabug", "eval_cases", "drops", "errors")

# Where one mutant lands, by (compile, verify) status, on a train unit and on a
# held-out unit. None is no output at all: a held-out bug that never trips the
# assertion becomes nothing.
LANDS = {
    ("ok", "assertion_failed"): ("svabug", "eval_cases"),
    ("ok", "proven"): ("bug", None),
    ("ok", "inconclusive"): ("bug", None),
    ("ok", "tool_error"): ("errors", "errors"),
    **{("syntax_error", v): ("drops", "drops") for v in VERIFY_STATUSES},
    **{("tool_error", v): ("errors", "errors") for v in VERIFY_STATUSES},
}


# Unit b's source: its code, its assertion and the line the assertion goes above.
UNIT_B = {"code": "module b;\ny = 0;\nendmodule", "sva_text": "assert(y == 0);", "sva_before": 3}


def _one_mutant_unit(compile_status, verify_status, held_out=False, unit_status="ok"):
    mut = MutantItem(
        record=_bug(2, "y = 0;", "y = 1;"),
        relation="Direct",
        compile_status=compile_status,
        verify_status=verify_status,
        log="tool output",
    )
    return PipelineItem("b", unit_status, spec="s", mutants=[mut], held_out=held_out, **UNIT_B)


def test_build_records_status_table():
    for (c, v), sides in LANDS.items():
        for held_out, expected in zip((False, True), sides):
            bundle = build_records([_one_mutant_unit(c, v, held_out)])
            landed = {name: len(getattr(bundle, name)) for name in OUTPUTS}
            assert landed == {name: int(name == expected) for name in OUTPUTS}, (c, v, held_out)
            where = {"unit_id": "b", "line": 2}
            if expected == "drops":
                assert bundle.drops == [{**where, "outcome": "drop:mutant_syntax_error"}]
            if expected == "errors":
                stage = "compile" if c == "tool_error" else "verify"
                assert bundle.errors == [{**where, "stage": stage, "error": "tool output"}]


def test_build_records_rejects_unknown_statuses():
    for c, v in [("ok", None), ("ok", "bogus"), ("bogus", "proven"), ("bogus", None)]:
        for held_out in (False, True):
            with pytest.raises(DomainError):
                build_records([_one_mutant_unit(c, v, held_out)])


def test_build_records_unit_statuses():
    pt_unit = PipelineItem("a", "syntax_error", code="x", spec="s", analysis="why")
    bundle = build_records([pt_unit])
    assert bundle.pt == [{"code": "x", "spec": "s", "analysis": "why"}]
    assert bundle.counts["families"] == {"pt": 1, "bug": 0, "svabug": 0, "eval": 0}
    # A unit the compiler could not judge is an error of _process_unit and
    # never reaches routing.
    for status in ("tool_error", "bogus"):
        with pytest.raises(DomainError):
            build_records([_one_mutant_unit("ok", "proven", unit_status=status)])


def _bug(line_no, original, mutated):
    return MutationRecord(line_no, original, mutated, "Value", frozenset(), rng_seed=0)


def test_build_records_routing(mock_toolchain):
    items = [
        PipelineItem(unit_id="a", compile_status="syntax_error", code="x", spec="s", analysis="a"),
        PipelineItem(
            unit_id="b",
            compile_status="ok",
            spec="s",
            mutants=[
                MutantItem(
                    record=_bug(2, "y = 0;", "y = 1;"),
                    relation="Direct",
                    compile_status="ok",
                    verify_status="assertion_failed",
                    log="FAIL step 1",
                ),
                MutantItem(
                    record=_bug(2, "y = 0;", "y = 2;"),
                    relation="Direct",
                    compile_status="ok",
                    verify_status="proven",
                ),
                MutantItem(
                    record=_bug(2, "y = 0;", "y = ;"),
                    relation="Direct",
                    compile_status="syntax_error",
                ),
            ],
            **UNIT_B,
        ),
    ]
    bundle = build_records(items)
    assert len(bundle.pt) == 1 and len(bundle.svabug) == 1 and len(bundle.bug) == 1
    assert len(bundle.drops) == 1
    assert bundle.svabug[0]["step_by_step"] is False and bundle.svabug[0]["cot"] is None


def test_build_records_cot_attachment():
    golden_reply = json.dumps(
        {"buggy_line": "y = 1;", "fix": "y = 0;", "cot": "flip it back"}
    )
    item = PipelineItem(
        unit_id="b",
        compile_status="ok",
        spec="s",
        mutants=[
            MutantItem(
                record=_bug(2, "y = 0;", "y = 1;"),
                relation="Direct",
                compile_status="ok",
                verify_status="assertion_failed",
                log="FAIL",
                cot_reply=golden_reply,
            ),
            MutantItem(
                record=_bug(2, "y = 0;", "y = 2;"),
                relation="Direct",
                compile_status="ok",
                verify_status="assertion_failed",
                log="FAIL",
                cot_reply="no json here",
            ),
        ],
        **UNIT_B,
    )
    bundle = build_records([item])
    with_cot = [r for r in bundle.svabug if r["step_by_step"]]
    without = [r for r in bundle.svabug if not r["step_by_step"]]
    assert len(with_cot) == 1 and with_cot[0]["cot"] == "flip it back"
    assert len(without) == 1 and without[0]["cot"] is None
    assert bundle.cot_stats["total"] == 2
    assert bundle.cot_stats["correct"] == 1
    assert bundle.cot_stats["unparseable"] == 1


def test_build_records_routes_a_held_out_unit_to_cases_only():
    def mutant(mutated, compile_status, verify_status=None):
        return MutantItem(
            record=_bug(2, "y = 0;", mutated),
            relation="Direct",
            compile_status=compile_status,
            verify_status=verify_status,
            log="FAIL",
        )

    item = PipelineItem(
        unit_id="b",
        compile_status="ok",
        spec="s",
        mutants=[
            mutant("y = 1;", "ok", "assertion_failed"),
            mutant("y = 2;", "ok", "proven"),
            mutant("y = ;", "syntax_error"),
            mutant("y = 3;", "ok", "assertion_failed"),
            mutant("y = 4;", "ok", "tool_error"),
        ],
        held_out=True,
        **UNIT_B,
    )
    bundle = build_records([item])
    assert [c.id for c in bundle.eval_cases] == ["b#m0", "b#m1"]
    assert all(c.source == "machine" and c.length_bin == 0 for c in bundle.eval_cases)
    assert bundle.bug == [] and bundle.svabug == [] and bundle.pt == []
    assert [d["line"] for d in bundle.drops] == [2]
    assert bundle.errors == [{"unit_id": "b", "line": 2, "stage": "verify", "error": "FAIL"}]
    assert bundle.counts["families"] == {"pt": 0, "bug": 0, "svabug": 0, "eval": 2}
    assert bundle.counts["eval"]["by_interval"]["(0,50]"] == 2
    assert bundle.counts["eval"]["by_bug_type"]["Value"] == 2
    assert bundle.counts["eval"]["by_bug_type"]["Direct"] == 2
    assert sum(bundle.counts["svabug"]["by_interval"].values()) == 0
    assert bundle.cot_stats == {"total": 0, "correct": 0, "unparseable": 0}


# -- jsonl ------------------------------------------------------------------------


def test_jsonl_empty_roundtrip(tmp_path):
    p = tmp_path / "empty.jsonl"
    write_jsonl([], p)
    assert p.read_text() == ""
    assert read_jsonl(p) == []


def test_jsonl_three_records(tmp_path):
    p = tmp_path / "three.jsonl"
    rows = [{"a": 1}, {"a": 2, "extra": "kept"}, {"a": 3}]
    write_jsonl(rows, p)
    assert len(p.read_text().splitlines()) == 3
    back = read_jsonl(p)
    assert back == rows  # field-for-field, unknown fields preserved


def test_jsonl_malformed_line_number(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"ok": 1}\n{oops\n{"ok": 2}\n')
    with pytest.raises(SchemaError, match="^line 2: "):
        read_jsonl(p)


@pytest.mark.parametrize("bad", ['{"a": ' + "1" * 5000 + "}", "[" * 200_000],
                         ids=["integer-over-4300-digits", "nested-too-deep"])
def test_jsonl_value_json_cannot_decode_is_malformed(tmp_path, bad):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"ok": 1}\n' + bad + "\n")
    with pytest.raises(SchemaError, match="^line 2: malformed JSON: "):
        read_jsonl(p)


def test_jsonl_header_strip(tmp_path):
    p = tmp_path / "h.jsonl"
    write_jsonl([{"a": 1}], p, header={"tool_version": "x", "seed": 0, "config_digest": "d"})
    header, rows = strip_meta_header(read_jsonl(p))
    assert header["tool_version"] == "x"
    assert rows == [{"a": 1}]
