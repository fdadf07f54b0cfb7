"""CLI end-to-end: filter -> augment -> eval -> dpo-prep over the fixture
corpus with record/replay mocks. The replay cache is recorded once per test
session through the library with scripted backends; every CLI invocation then
runs hermetically (no network, no EDA tools) and must be byte-identical
across repeated runs.

Frozen goldens (counts, c-vector) were computed once from the fixture corpus
at seed 20240817 and pinned here.
"""

import errno
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import assertforge
from assertforge import dataset as ds
from assertforge import cli
from assertforge import evalharness as ev
from assertforge.cli import main
from assertforge.toolchain import Toolchain, ToolSettings
from conftest import (
    E2E_SEED,
    E2E_GOLDEN_C_VECTOR as GOLDEN_C_VECTOR,
    E2E_GOLDEN_CHALLENGING as GOLDEN_CHALLENGING,
    E2E_GOLDEN_FAMILY_COUNTS as GOLDEN_FAMILY_COUNTS,
    E2E_GOLDEN_TRIPLES as GOLDEN_TRIPLES,
)
from fixture_corpus import CORPUS_FILES, EXPECTED_ACCEPTED, HUMAN_EVAL_CASES
from mockbackends import fake_compile, fake_llm, make_fake_verify


def invoke(*args):
    runner = CliRunner()
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


def read_records(path):
    _, rows = ds.strip_meta_header(ds.read_jsonl(path))
    return rows


# -- filter -------------------------------------------------------------------


def test_filter_cli_counts(cli_env, tmp_path):
    out = tmp_path / "out"
    res = invoke("filter", "--config", cli_env["config"], "--out-dir", out)
    assert res.exit_code == 0, res.output
    report = read_records(out / "filter_report.jsonl")
    manifest = read_records(out / "manifest.jsonl")
    assert len(report) == 34
    assert sum(1 for r in report if r["status"] == "accepted") == len(EXPECTED_ACCEPTED)
    assert [m["id"] for m in manifest] == EXPECTED_ACCEPTED


def test_filter_cli_ten_files_two_bad(tmp_path):
    corpus = tmp_path / "ten"
    corpus.mkdir()
    for i in range(8):
        (corpus / f"good{i}.v").write_text(
            f"module g{i} (input clk, input d, output reg q);\n"
            f"  always @(posedge clk) q <= d ^ {i}'d0;\nendmodule\n"
        )
    (corpus / "bad1.v").write_text("module b1; assign x = 1'b0; endmodule\n")
    (corpus / "bad2.v").write_text("module b2;\n")
    res = invoke("filter", "--corpus-dir", corpus, "--out-dir", tmp_path / "o")
    assert res.exit_code == 0
    assert len(read_records(tmp_path / "o" / "manifest.jsonl")) == 8


def test_filter_cli_empty_dir(tmp_path):
    (tmp_path / "empty").mkdir()
    res = invoke("filter", "--corpus-dir", tmp_path / "empty", "--out-dir", tmp_path / "o")
    assert res.exit_code == 0
    assert read_records(tmp_path / "o" / "filter_report.jsonl") == []


def test_filter_cli_skips_an_unreadable_file(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("a", "b"):
        (corpus / f"{name}.v").write_text(
            f"module {name} (input clk, input d, output reg q);\n"
            "  always @(posedge clk) q <= d;\nendmodule\n"
        )
    read_text = Path.read_text

    def unreadable_a(path, *args, **kwargs):
        if path.name == "a.v":
            raise PermissionError(13, "Permission denied", str(path))
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", unreadable_a)
    res = invoke("filter", "--corpus-dir", corpus, "--out-dir", tmp_path / "o")
    assert res.exit_code == 1
    errors = json.loads(res.output.strip().splitlines()[-1])["errors"]
    assert errors == [{"unit_id": "a.v", "stage": "load",
                       "error": f"[Errno 13] Permission denied: '{corpus / 'a.v'}'"}]
    assert [r["id"] for r in read_records(tmp_path / "o" / "filter_report.jsonl")] == ["b.v"]
    assert [r["id"] for r in read_records(tmp_path / "o" / "manifest.jsonl")] == ["b.v"]


def test_filter_cli_missing_dir(tmp_path):
    res = invoke("filter", "--corpus-dir", tmp_path / "nope", "--out-dir", tmp_path / "o")
    assert res.exit_code != 0
    assert "not found" in res.output


# -- augment ------------------------------------------------------------------


def _run_augment(cli_env, out_dir):
    res_f = invoke("filter", "--config", cli_env["config"], "--out-dir", out_dir)
    assert res_f.exit_code == 0, res_f.output
    res_a = invoke(
        "augment",
        "--config",
        cli_env["config"],
        "--manifest",
        out_dir / "manifest.jsonl",
        "--out-dir",
        out_dir,
    )
    assert res_a.exit_code == 0, res_a.output
    return res_a


AUGMENT_OUTPUTS = (
    "pt.jsonl",
    "bug.jsonl",
    "svabug.jsonl",
    "sva_eval_machine.jsonl",
    "split_plan.json",
    "augment_report.json",
)


def test_augment_cli_golden_counts(cli_env, tmp_path):
    out = tmp_path / "out"
    _run_augment(cli_env, out)
    counts = {
        "pt": len(read_records(out / "pt.jsonl")),
        "bug": len(read_records(out / "bug.jsonl")),
        "svabug": len(read_records(out / "svabug.jsonl")),
        "eval": len(read_records(out / "sva_eval_machine.jsonl")),
    }
    assert counts == GOLDEN_FAMILY_COUNTS
    report = json.loads((out / "augment_report.json").read_text())
    assert report["errors"] == []
    assert report["counts"]["families"] == GOLDEN_FAMILY_COUNTS


def test_augment_cli_byte_identical_runs(cli_env, tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    _run_augment(cli_env, out1)
    _run_augment(cli_env, out2)
    for name in AUGMENT_OUTPUTS:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def _body_digest(path):
    """sha256 of an output file without its metadata header or `meta` block,
    which carry the config digest and so depend on where the config lives.
    A CSV carries neither and is hashed whole."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        body = text
    elif path.suffix == ".jsonl":
        body = "".join(text.splitlines(keepends=True)[1:])
    else:
        doc = json.loads(text)
        del doc["meta"]
        body = json.dumps(doc, indent=2) + "\n"
    return hashlib.sha256(body.encode()).hexdigest()


# Pinned from the fixture corpus at E2E_SEED; any change to a byte of the
# augment data path shows up here even when the family counts stay the same.
AUGMENT_BODY_DIGESTS = {
    "pt.jsonl": "2db475dc26df8c10c4830b506c23f68e75209d2aecf77c424e19caa2f41adb2a",
    "bug.jsonl": "61618b06496cf094b3ad2822666730ba1302591a2599862a73c484882c6ad5ce",
    "svabug.jsonl": "d4ed02789c309b76fa88e253c1f2a62b8e2e5f98b00045e9ed6505430c335aec",
    "sva_eval_machine.jsonl": "5af6e6d4c1fd4debcf2874d4ef2bc949eb86dbcd589c457e850cff1c2bf380ef",
    "split_plan.json": "d852a9bac32d8864f4a69f9864f95ec6b7518d3a8159e12478540dc674b9e7d4",
    "augment_report.json": "7741a489d673e480c55dd440b58e0bb44336f37bd0e187b35175df5b3d078e13",
}
EVAL_BODY_DIGESTS = {
    "report.json": "4d2fba324f1f235d3729fb7b216fdbd1a30f19b232556ce6dc6f0b8a70020177",
    "results.jsonl": "41e08021579425a681c6903adc4002bc15146a5b772162957c9f4adf6258c7f4",
    "report.csv": "57a613de267c5d5d0e4b13a3477d9827f2abeec0dcb26274ae1009a57446bfa4",
}


# A small corpus of duplicates: a byte copy, a comment variant and a
# whitespace variant of one module, a copy of a rejected file (rejected for
# its own reason, not as a duplicate), and a commented copy whose original
# sorts first in a subdirectory.
_DUP_BASE = (
    "module acc (input clk, input [3:0] d, output reg [3:0] q);\n"
    "  always @(posedge clk) q <= q + d;\nendmodule\n"
)
_DUP_TIEOFF = "module tie (output x);\n  assign x = 1'b0;\nendmodule\n"
_DUP_SUB = "module inv (input a, output y);\n  assign y = ~a;\nendmodule\n"
DUP_CORPUS = {
    "a_base.v": _DUP_BASE,
    "b_copy.v": _DUP_BASE,
    "c_commented.sv": "// accumulator\n" + _DUP_BASE.replace("q + d;", "q + d; /* wraps */"),
    "d_respaced.v": _DUP_BASE.replace("  ", "\t").replace(" + ", "+"),
    "e_tieoff.v": _DUP_TIEOFF,
    "f_tieoff_copy.v": _DUP_TIEOFF,
    "g_open.v": "module open (input a);\n",
    "notes.txt": _DUP_BASE,
    "sub/a_first.v": _DUP_SUB,
    "sub/z_copy.v": "/* inverter */\n" + _DUP_SUB.replace("~a;", "~a; // negate"),
}

# Pinned from the fixture corpus and DUP_CORPUS, filtered with a relative
# corpus path so the `path` fields do not depend on the temp directory.
FILTER_BODY_DIGESTS = {
    "fixture": {
        "filter_report.jsonl": "1b6bc5c4d721f22f1e78afd1c2a33d87256a0cc83a76af942a0ae1f8207788d0",
        "manifest.jsonl": "abca4d8ca384d01eb678b5f893cbc18268bce917657e50c29b81f2d9c4b6a2df",
    },
    "dups": {
        "filter_report.jsonl": "2c34bc0b5911ad2e447e087506b6f3f9d9ad52282235990505a7701b593e2d94",
        "manifest.jsonl": "b3472d0404fb03285d060a22c7977a236eaeff165dbd031672cb48d6a2fb17ed",
    },
}


@pytest.mark.parametrize("corpus", sorted(FILTER_BODY_DIGESTS))
def test_filter_cli_pinned_digests(tmp_path, monkeypatch, corpus):
    files = CORPUS_FILES if corpus == "fixture" else DUP_CORPUS
    for rel, text in files.items():
        p = tmp_path / "corpus" / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    res = invoke("filter", "--corpus-dir", "corpus", "--out-dir", "out")
    assert res.exit_code == 0, res.output
    got = {n: _body_digest(tmp_path / "out" / n) for n in FILTER_BODY_DIGESTS[corpus]}
    assert got == FILTER_BODY_DIGESTS[corpus]


@pytest.mark.parametrize("parallel", [1, 4])
def test_augment_cli_pinned_digests(cli_env, tmp_path, parallel):
    out = tmp_path / "out"
    invoke("filter", "--config", cli_env["config"], "--out-dir", out)
    res = invoke("augment", "--config", cli_env["config"], "--manifest",
                 out / "manifest.jsonl", "--out-dir", out, "--parallel", parallel)
    assert res.exit_code == 0, res.output
    assert {n: _body_digest(out / n) for n in AUGMENT_OUTPUTS} == AUGMENT_BODY_DIGESTS


def test_eval_cli_pinned_digests(cli_env, tmp_path):
    report, results = _run_eval(cli_env, tmp_path, "pin")
    got = {"report.json": _body_digest(report), "results.jsonl": _body_digest(results),
           "report.csv": _body_digest(tmp_path / "report_pin.csv")}
    assert got == EVAL_BODY_DIGESTS


def test_augment_cli_schemas(cli_env, tmp_path):
    out = tmp_path / "out"
    _run_augment(cli_env, out)
    for row in read_records(out / "pt.jsonl"):
        assert list(row) == ["code", "spec", "analysis"]
    for row in read_records(out / "bug.jsonl"):
        assert list(row) == ["spec", "buggy_code", "buggy_line", "corrected_line"]
        assert row["buggy_line"] in row["buggy_code"].split("\n")
    for row in read_records(out / "svabug.jsonl"):
        assert list(row) == [
            "spec",
            "buggy_sv_code",
            "log",
            "step_by_step",
            "buggy_line",
            "corrected_line",
            "cot",
        ]
        assert row["step_by_step"] == (row["cot"] is not None)
    plan = json.loads((out / "split_plan.json").read_text())
    assert set(plan) == {"meta", "seed", "bins"}
    assert [b["interval"] for b in plan["bins"]] == list(ds.BIN_LABELS)
    for b in plan["bins"]:
        assert set(b) == {"interval", "train", "test"}
        assert not (set(b["train"]) & set(b["test"]))


def test_augment_cli_no_training_record_from_a_test_module(cli_env, tmp_path):
    out = tmp_path / "out"
    _run_augment(cli_env, out)
    plan = json.loads((out / "split_plan.json").read_text())
    test_modules = {m for b in plan["bins"] for m in b["test"]}
    assert test_modules, "fixture seed should hold out at least one module"
    rows = read_records(out / "bug.jsonl") + read_records(out / "svabug.jsonl")
    modules = [re.search(r"\bmodule\s+(\w+)", r.get("buggy_code") or r["buggy_sv_code"])[1]
               for r in rows]
    assert not test_modules & set(modules)


def test_augment_cli_missing_manifest(cli_env, tmp_path):
    res = invoke("augment", "--config", cli_env["config"], "--out-dir", tmp_path,
                 "--manifest", tmp_path / "none.jsonl")
    assert res.exit_code != 0


# -- eval -----------------------------------------------------------------------


def _run_eval(cli_env, tmp_path, tag):
    report = tmp_path / f"report_{tag}.json"
    results = tmp_path / f"results_{tag}.jsonl"
    res = invoke(
        "eval",
        cli_env["benchmark"],
        "--config",
        cli_env["config"],
        "--out",
        report,
        "--results",
        results,
        "--csv",
        tmp_path / f"report_{tag}.csv",
    )
    assert res.exit_code == 0, res.output
    return report, results


def test_eval_cli_matches_golden_cs(cli_env, tmp_path):
    report_path, results_path = _run_eval(cli_env, tmp_path, "a")
    rows = read_records(results_path)
    assert [r["c"] for r in rows] == GOLDEN_C_VECTOR
    assert all(r["n"] == 20 for r in rows)

    doc = json.loads(report_path.read_text())
    # Oracle: recompute expected rates from the frozen c-vector.
    for k in (1, 5):
        expected = sum(ev.pass_at_k(20, c, k) for c in GOLDEN_C_VECTOR) / len(
            GOLDEN_C_VECTOR
        )
        assert doc["overall"][f"pass@{k}"] == pytest.approx(expected, abs=1e-12)
    assert len(doc["histogram"]) == 21
    assert sum(doc["histogram"]) == len(GOLDEN_C_VECTOR)
    assert set(doc["by_source"]) == {"machine", "human"}


def test_eval_cli_byte_identical(cli_env, tmp_path):
    r1, s1 = _run_eval(cli_env, tmp_path, "b1")
    r2, s2 = _run_eval(cli_env, tmp_path, "b2")
    assert r1.read_bytes() == r2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()


def test_eval_cli_bad_schema(cli_env, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n')
    res = invoke("eval", bad, "--config", cli_env["config"])
    assert res.exit_code != 0


@pytest.mark.parametrize(
    "extra, config_line, message",
    [
        (["--k", "x"], None, "--k must be comma-separated integers"),
        (["--k", "0", "--n", "1"], None, "--k must name one or more ks"),
        (["--k", ""], None, "--k must name one or more ks"),
        ([], "eval.ks = 0", "eval.ks must name one or more ks"),
    ],
    ids=["k-not-an-integer", "k-zero-flag", "k-empty-flag", "k-zero-config"],
)
def test_eval_cli_rejects_bad_ks_before_any_call(cli_env, tmp_path, extra, config_line, message):
    config = cli_env["config"]
    if config_line:
        config = tmp_path / "bad.cfg"
        config.write_text(cli_env["config"].read_text() + config_line + "\n")
    report = tmp_path / "report.json"
    res = invoke("eval", cli_env["benchmark"], "--config", config, "--out", report, *extra)
    assert res.exit_code != 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"Error: {message}")
    assert not report.exists()


def test_eval_cli_parallel_matches_serial(cli_env, tmp_path):
    outputs = {}
    for workers in (1, 4):
        report = tmp_path / f"report_{workers}.json"
        results = tmp_path / f"results_{workers}.jsonl"
        res = invoke("eval", cli_env["benchmark"], "--config", cli_env["config"], "--out", report,
                     "--results", results, "--parallel", workers)
        assert res.exit_code == 0, res.output
        outputs[workers] = (report.read_bytes(), results.read_bytes())
    assert outputs[4] == outputs[1]


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_augment_and_eval_reject_a_parallel_below_one(cli_env, tmp_path, workers):
    for args in (["augment", "--manifest", tmp_path / "none.jsonl"],
                 ["eval", cli_env["benchmark"]]):
        res = invoke(*args, "--config", cli_env["config"], "--parallel", workers)
        assert res.exit_code == 2
        assert "--parallel" in res.output
    config = tmp_path / "bad.cfg"
    config.write_text(cli_env["config"].read_text() + f"parallel = {workers}\n")
    res = invoke("eval", cli_env["benchmark"], "--config", config)
    assert res.exit_code == 1
    assert "parallel must be >= 1" in res.output


def test_augment_cli_rejects_unknown_bug_source(cli_env, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text(cli_env["config"].read_text() + "bugs.source = engin\n")
    res = invoke("augment", "--config", config, "--out-dir", tmp_path,
                 "--manifest", tmp_path / "none.jsonl")
    assert res.exit_code != 0
    assert "bugs.source must be engine or llm" in res.output


@pytest.mark.parametrize(
    "config_line, key",
    [
        ("llm.temperature = 5", "llm.temperature"),
        ("verifier.depth = 0", "verifier.depth"),
        ("mock.mode = replya", "mock.mode"),
        ("mutation.per_unit = 9", "mutation.per_unit"),
        ("keep_temp = on", "keep_temp"),
        ("verifier.pass_re = (", "verifier.pass_re"),
        ("verifier.step_re = step", "verifier.step_re"),
        ("llm.url = example", "llm.url"),
        ("llm.url = http://[::1", "llm.url"),
        ("seed = \udcff", "not UTF-8"),  # the byte 0xff
        ("tool.timeout = 0", "tool.timeout"),
        ("compiler.cmd = 'iverilog {file}", "compiler.cmd"),
        ("mutations.per_unit = 0", "mutations.per_unit must be >= 1, got 0"),
        ("mutations.per_unit = -5", "mutations.per_unit must be >= 1, got -5"),
    ],
    ids=["temperature", "depth", "mock-mode", "unknown-key", "keep-temp", "pass-re", "step-re",
         "llm-url", "llm-url-bracket", "non-utf8", "timeout", "compiler-cmd", "per-unit-zero",
         "per-unit-negative"],
)
def test_unusable_setting_stops_augment_before_any_call(
    cli_env, tmp_path, monkeypatch, config_line, key
):
    out = tmp_path / "out"
    assert invoke("filter", "--config", cli_env["config"], "--out-dir", out).exit_code == 0
    config = tmp_path / "bad.cfg"
    text = cli_env["config"].read_text() + config_line + "\n"
    config.write_bytes(text.encode("utf-8", "surrogateescape"))
    monkeypatch.setattr(cli, "Toolchain", lambda *a, **k: pytest.fail("a Toolchain was built"))
    res = invoke("augment", "--config", config, "--out-dir", out)
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ") and key in lines[0]
    assert not (out / "pt.jsonl").exists()


def _with_bad_line(path, rows, bad):
    ds.write_jsonl(rows, path)
    with open(path, "ab") as fh:
        fh.write(bad + b"\n")
    return path


@pytest.mark.parametrize(
    "command, what",
    [
        ("augment", "manifest"),
        ("dpo-prep-benchmark", "benchmark file"),
        ("dpo-prep-results", "results file"),
        ("losses", "probabilities file"),
        ("eval", "benchmark file"),
    ],
    ids=["augment", "dpo-prep-benchmark", "dpo-prep-results", "losses", "eval"],
)
def test_a_jsonl_input_line_that_is_not_json_is_a_one_line_error(
    cli_env, tmp_path, monkeypatch, command, what
):
    monkeypatch.setattr(cli, "Toolchain", lambda *a, **k: pytest.fail("a Toolchain was built"))
    not_json = b"{bad" if command == "losses" else b"not json"
    # Not JSON; not UTF-8 (the byte 0xff); an integer json refuses; nested too deep.
    for bad in (not_json, b'{"id": "\xff"}', b'{"id": ' + b"1" * 5000 + b"}", b"[" * 200_000):
        if command == "augment":
            manifest = _with_bad_line(tmp_path / "manifest.jsonl", [{"id": "u", "path": "u.v"}],
                                      bad)
            args = ["augment", "--config", cli_env["config"], "--out-dir", tmp_path,
                    "--manifest", manifest]
        elif command == "losses":
            probs = _with_bad_line(tmp_path / "probs.jsonl",
                                   [{"kind": "pt", "token_probs": [0.5]}], bad)
            args = ["losses", probs]
        elif command == "eval":
            benchmark = _with_bad_line(tmp_path / "bad.jsonl", [{"id": "x"}], bad)
            args = ["eval", benchmark, "--out", tmp_path / "report.json"]
        else:
            good = tmp_path / "good.jsonl"
            ds.write_jsonl([{"case_id": "x", "responses": []}], good)
            bad_file = _with_bad_line(tmp_path / "bad.jsonl", [{"id": "x"}], bad)
            if command == "dpo-prep-benchmark":
                args = ["dpo-prep", good, "--benchmark", bad_file]
            else:
                args = ["dpo-prep", bad_file, "--benchmark", cli_env["benchmark"]]
            args += ["--out", tmp_path / "triples.jsonl"]
        res = invoke(*args)
        assert res.exit_code == 1
        lines = res.output.strip().splitlines()
        assert len(lines) == 1, res.output
        assert lines[0].startswith(f"Error: invalid {what}: line 2: "), res.output


def test_a_manifest_path_too_long_for_the_file_system_is_a_load_error(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    ds.write_jsonl([{"id": "long", "path": "x" * 5000}], manifest)
    res = invoke("augment", "--manifest", manifest, "--out-dir", tmp_path / "out")
    assert res.exit_code == 1
    [error] = json.loads(res.stderr)["errors"]
    assert error["unit_id"] == "long" and error["stage"] == "load"
    assert "File name too long" in error["error"]


@pytest.fixture(scope="module")
def manifest(cli_env, tmp_path_factory):
    out = tmp_path_factory.mktemp("manifest")
    assert invoke("filter", "--config", cli_env["config"], "--out-dir", out).exit_code == 0
    return out / "manifest.jsonl"


def _tool_command(command, cli_env, manifest, config, out):
    if command == "augment":
        return ["augment", "--config", config, "--manifest", manifest, "--out-dir", out]
    return ["eval", cli_env["benchmark"], "--config", config, "--out", out / "report.json"]


@pytest.mark.parametrize("mode", ["record", "replay"])
@pytest.mark.parametrize("command", ["augment", "eval"])
def test_a_mock_dir_that_is_a_file_is_a_one_line_error(
    cli_env, manifest, tmp_path, monkeypatch, command, mode
):
    not_a_dir = tmp_path / "mocks"
    not_a_dir.write_text("")
    config = tmp_path / "mock.cfg"
    config.write_text(f"mock.dir = {not_a_dir}\nmock.mode = {mode}\n")

    def no_call(*args):
        pytest.fail("a tool was called")

    monkeypatch.setattr(cli, "Toolchain", functools.partial(
        Toolchain, compile_backend=no_call, verify_backend=no_call, llm_backend=no_call))
    out = tmp_path / "out"
    out.mkdir()
    res = invoke(*_tool_command(command, cli_env, manifest, config, out))
    assert res.exit_code == 1
    assert res.output.splitlines() == [f"Error: mock.dir {not_a_dir} is not a directory"]
    assert list(out.iterdir()) == [] and not_a_dir.read_text() == ""


def test_a_missing_scratch_dir_is_one_tool_error_per_unit(manifest, tmp_path):
    config = tmp_path / "scratch.cfg"
    config.write_text(f"seed = {E2E_SEED}\ncompiler.cmd = no-such-compiler {{file}}\n"
                      f"scratch.dir = {tmp_path / 'missing'}\n")
    out = tmp_path / "out"
    res = invoke("augment", "--config", config, "--manifest", manifest, "--out-dir", out)
    assert res.exit_code == 1
    errors = json.loads(res.stderr)["errors"]
    assert [e["unit_id"] for e in errors] == [r["id"] for r in read_records(manifest)]
    for e in errors:
        assert e["stage"] == "compile" and e["error"].startswith("tool spawn failed: "), e
    assert all((out / name).is_file() for name in AUGMENT_OUTPUTS)


@pytest.mark.parametrize("command", ["augment", "eval"])
def test_a_failed_cache_write_is_one_item_error(cli_env, manifest, tmp_path, monkeypatch, command):
    mocks = tmp_path / "mocks"
    config = tmp_path / "record.cfg"
    config.write_text(f"seed = {E2E_SEED}\nmutations.per_unit = 3\n"
                      f"mock.dir = {mocks}\nmock.mode = record\n")
    units = {r["id"]: Path(r["path"]).read_text() for r in read_records(manifest)}
    monkeypatch.setattr(cli, "Toolchain", functools.partial(
        Toolchain, compile_backend=fake_compile,
        verify_backend=make_fake_verify(set(units.values())), llm_backend=fake_llm))
    real_replace, writes = os.replace, []

    def first_write_fails(src, dst):  # the disk is full for the first entry only
        writes.append(dst)
        if len(writes) == 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", first_write_fails)
    out = tmp_path / "out"
    out.mkdir()
    res = invoke(*_tool_command(command, cli_env, manifest, config, out))
    assert res.exit_code == 1 and "Traceback" not in res.stderr
    [error] = json.loads(res.stderr)["errors"]
    key = Path(writes[0]).stem
    no_space = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert error["error"] == f"replay cache write failed: {key}: {no_space}"
    if command == "augment":
        assert error["unit_id"] == next(iter(units)) and error["stage"] == "unit"
        assert all((out / name).is_file() for name in AUGMENT_OUTPUTS)
    else:
        first = read_records(cli_env["benchmark"])[0]["id"]
        assert error["case_id"] == first and error["stage"] == "collect"
        report = json.loads((out / "report.json").read_text())
        assert report["case_count"] == len(GOLDEN_C_VECTOR) - 1


def _golden_solver(calls):
    """An LLM backend that answers each solve call with its case's golden fix
    (the nonce is ``<case id>:<call>``) and logs the call in ``calls``."""
    goldens = {r["id"]: r for r in HUMAN_EVAL_CASES}

    def solve(req):
        calls.append(req.nonce)
        row = goldens[req.nonce.rsplit(":", 1)[0]]
        return json.dumps({"buggy_line": row["golden_buggy_line"],
                           "fix": row["golden_corrected_line"], "cot": None})

    return solve


@pytest.mark.parametrize("verifier", ["missing-command", "replay-miss"])
def test_a_reverify_tool_error_is_one_case_error(tmp_path, monkeypatch, verifier):
    ds.write_jsonl(HUMAN_EVAL_CASES, tmp_path / "bench.jsonl")
    config = tmp_path / "eval.cfg"
    if verifier == "missing-command":
        monkeypatch.setattr(cli, "Toolchain", functools.partial(
            Toolchain, llm_backend=_golden_solver([])))
        config.write_text("verifier.cmd = /nonexistent/sby {file} {depth}\n")
    else:  # the solve replies are recorded, the verify calls are not
        recorder = Toolchain(ToolSettings(mock_dir=str(tmp_path / "mocks"), mock_mode="record"),
                             llm_backend=_golden_solver([]))
        for row in HUMAN_EVAL_CASES:
            ev.collect_responses(ev.EvalCase.from_json(row), recorder.llm_call, n_target=2)
        config.write_text(f"mock.dir = {tmp_path / 'mocks'}\nmock.mode = replay\n")
    res = invoke("eval", tmp_path / "bench.jsonl", "--config", config, "--mode", "reverify",
                 "--n", 2, "--k", 1, "--out", tmp_path / "report.json")
    assert res.exit_code == 1 and "Traceback" not in res.stderr
    assert "pass@1" not in res.stdout
    errors = json.loads(res.stderr)["errors"]
    assert [e["case_id"] for e in errors] == [r["id"] for r in HUMAN_EVAL_CASES]
    want = "tool spawn failed" if verifier == "missing-command" else "replay cache miss"
    for e in errors:
        assert e["stage"] == "collect" and e["error"].startswith("verifier tool error: "), e
        assert want in e["error"], e
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("where", ["config", "flag"])
def test_reverify_without_a_verifier_is_one_line_before_any_call(tmp_path, monkeypatch, where):
    ds.write_jsonl(HUMAN_EVAL_CASES, tmp_path / "bench.jsonl")
    calls = []
    monkeypatch.setattr(cli, "Toolchain", functools.partial(
        Toolchain, llm_backend=_golden_solver(calls)))
    config = tmp_path / "eval.cfg"
    config.write_text("eval.mode = reverify\n" if where == "config" else "")
    mode = ["--mode", "reverify"] if where == "flag" else []
    res = invoke("eval", tmp_path / "bench.jsonl", "--config", config, *mode,
                 "--out", tmp_path / "report.json")
    assert res.exit_code == 1 and calls == []
    [line] = res.output.splitlines()
    assert line.startswith("Error: eval.mode = reverify needs a verifier")
    assert not (tmp_path / "report.json").exists()


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(("augment", "eval")),
    compiler_cmd=st.sampled_from(("no-such-compiler {file}", "'no-such-compiler {file}")),
    mock_dir=st.sampled_from(("missing", "file", "directory")),
    mock_mode=st.sampled_from(("off", "replay", "record", "replya")),
    scratch_dir=st.sampled_from(("missing", "file")),
    timeout=st.sampled_from(("-1", "0", "0.5", "60", "nan", "inf")),
    depth=st.sampled_from(("-1", "0", "1", "20")),
)
def test_bad_tool_settings_end_in_an_error_not_a_traceback(
    cli_env, manifest, command, compiler_cmd, mock_dir, mock_mode, scratch_dir, timeout, depth
):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "file").write_text("")
        (tmp / "directory").mkdir()
        config = tmp / "tools.cfg"
        config.write_text(
            f"seed = {E2E_SEED}\n"
            f"compiler.cmd = {compiler_cmd}\n"
            f"mock.dir = {tmp / ('no-mocks' if mock_dir == 'missing' else mock_dir)}\n"
            f"mock.mode = {mock_mode}\n"
            f"scratch.dir = {tmp / ('no-scratch' if scratch_dir == 'missing' else scratch_dir)}\n"
            f"tool.timeout = {timeout}\n"
            f"verifier.depth = {depth}\n"
        )
        out = tmp / "out"
        res = invoke(*_tool_command(command, cli_env, manifest, config, out))
    assert res.exit_code in (0, 1, 2)
    assert "Traceback" not in res.stderr
    if res.exit_code == 1:
        lines = res.stderr.strip().splitlines()
        if lines[-1].startswith("Error: "):
            assert len(lines) == 1
        else:
            errors = json.loads(lines[-1])["errors"]
            assert errors and all(isinstance(e, dict) and e["error"] for e in errors)


def test_eval_cli_n_flag_is_checked_against_the_ks(cli_env, tmp_path):
    report = tmp_path / "report.json"
    res = invoke("eval", cli_env["benchmark"], "--config", cli_env["config"], "--out", report,
                 "--n", "0")
    assert res.exit_code == 1
    assert res.output.strip().splitlines() == ["Error: eval.n (0) must be >= every k in [1, 5]"]
    assert not report.exists()


def test_eval_cli_header_digest_names_the_judging_rule(cli_env, tmp_path):
    n10 = tmp_path / "n10.cfg"
    n10.write_text(cli_env["config"].read_text() + "eval.n = 10\n")
    config = cli_env["config"]
    runs = {"default": (config, []), "n10-flag": (config, ["--n", "10"]),
            "n20-flag": (config, ["--n", "20"]), "n10-key": (n10, []),
            "line-only": (config, ["--line-only"])}
    digests = {}
    for name, (config, extra) in runs.items():
        report = tmp_path / f"{name}.json"
        res = invoke("eval", cli_env["benchmark"], "--config", config, "--out", report, *extra)
        assert res.exit_code == 0, res.output
        digests[name] = json.loads(report.read_text())["meta"]["config_digest"]
    assert digests["n10-flag"] == digests["n10-key"] != digests["n20-flag"]
    assert digests["n20-flag"] == digests["default"] != digests["line-only"]


def test_eval_cli_n_flag_replaces_a_smaller_config_n_before_the_check(cli_env, tmp_path):
    config = tmp_path / "n3.cfg"
    config.write_text(cli_env["config"].read_text() + "eval.n = 3\n")
    results = tmp_path / "results.jsonl"
    res = invoke("eval", cli_env["benchmark"], "--config", config, "--out",
                 tmp_path / "report.json", "--results", results, "--n", "20")
    assert res.exit_code == 0, res.output
    assert {r["n"] for r in read_records(results)} == {20}


@pytest.mark.parametrize("bad_bin", ["0", True, 1.0], ids=["string", "bool", "float"])
def test_non_integer_length_bin_is_a_schema_error(cli_env, tmp_path, bad_bin):
    _, results_path = _run_eval(cli_env, tmp_path, "bins")
    bench_rows = read_records(cli_env["benchmark"])
    benchmark = tmp_path / "benchmark.jsonl"
    ds.write_jsonl(bench_rows + [{**bench_rows[0], "id": "bad-bin", "length_bin": bad_bin}],
                   benchmark)
    res = invoke("eval", benchmark, "--config", cli_env["config"], "--out", tmp_path / "r.json")
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: invalid benchmark file: ")
    assert "length_bin" in lines[0]

    triples_path = tmp_path / "triples.jsonl"
    res = invoke("dpo-prep", results_path, "--benchmark", benchmark, "--out", triples_path)
    assert res.exit_code == 1
    errors = json.loads(res.stderr)["errors"]
    assert [e["case_id"] for e in errors] == ["bad-bin"]
    assert "length_bin" in errors[0]["error"]
    assert len(read_records(triples_path)) == GOLDEN_TRIPLES


# -- dpo-prep ----------------------------------------------------------------------


def test_dpo_prep_cli_golden_counts(cli_env, tmp_path):
    _, results_path = _run_eval(cli_env, tmp_path, "dpo")
    triples_path = tmp_path / "triples.jsonl"
    res = invoke(
        "dpo-prep",
        results_path,
        "--benchmark",
        cli_env["benchmark"],
        "--out",
        triples_path,
    )
    assert res.exit_code == 0, res.output
    assert f"{GOLDEN_CHALLENGING} challenging cases" in res.output
    triples = read_records(triples_path)
    assert len(triples) == GOLDEN_TRIPLES
    for t in triples:
        assert set(t) == {"x", "p", "n"}
        assert t["p"] != t["n"]


def test_dpo_prep_all_correct_empty(cli_env, tmp_path):
    rows = [
        {
            "case_id": "human/incr-bug",
            "n": 20,
            "c": 20,
            "responses": [
                {"raw_text": "{}", "valid_json": True, "verdict": "correct"}
            ]
            * 20,
        }
    ]
    results = tmp_path / "allcorrect.jsonl"
    ds.write_jsonl(rows, results)
    out = tmp_path / "triples.jsonl"
    res = invoke("dpo-prep", results, "--benchmark", cli_env["benchmark"], "--out", out)
    assert res.exit_code == 0, res.output
    assert read_records(out) == []


def test_dpo_prep_wrong_count_errors(cli_env, tmp_path):
    rows = [
        {
            "case_id": "human/incr-bug",
            "n": 19,
            "c": 1,
            "responses": [
                {"raw_text": "{}", "valid_json": True, "verdict": "correct"}
            ]
            * 19,
        }
    ]
    results = tmp_path / "short.jsonl"
    ds.write_jsonl(rows, results)
    res = invoke(
        "dpo-prep", results, "--benchmark", cli_env["benchmark"], "--out", tmp_path / "t.jsonl"
    )
    assert res.exit_code == 1
    assert "expected 20" in res.output


def test_dpo_prep_row_without_responses_is_an_error(cli_env, tmp_path):
    _, results_path = _run_eval(cli_env, tmp_path, "dpo_bad")
    rows = read_records(results_path)
    del rows[0]["responses"]
    broken = tmp_path / "broken.jsonl"
    ds.write_jsonl(rows, broken)
    triples_path = tmp_path / "triples.jsonl"
    res = invoke("dpo-prep", broken, "--benchmark", cli_env["benchmark"], "--out", triples_path)
    assert res.exit_code == 1
    errors = json.loads(res.output.strip().splitlines()[-1])["errors"]
    assert errors == [{"case_id": rows[0]["case_id"], "error": "results row has no responses list"}]
    assert triples_path.is_file()


def test_dpo_prep_malformed_benchmark_row_is_an_error(cli_env, tmp_path):
    _, results_path = _run_eval(cli_env, tmp_path, "dpo_badcase")
    bench_rows = read_records(cli_env["benchmark"])
    benchmark = tmp_path / "benchmark.jsonl"
    ds.write_jsonl(bench_rows + [{"id": "x", "source": "machine"}], benchmark)
    triples_path = tmp_path / "triples.jsonl"
    res = invoke("dpo-prep", results_path, "--benchmark", benchmark, "--out", triples_path)
    assert res.exit_code == 1
    assert f"{GOLDEN_CHALLENGING} challenging cases" in res.stdout
    errors = json.loads(res.stderr)["errors"]
    assert [e["case_id"] for e in errors] == ["x"]
    assert "buggy_sv_code" in errors[0]["error"]
    assert len(read_records(triples_path)) == GOLDEN_TRIPLES


def test_dpo_prep_n_defaults_to_eval_n(cli_env, tmp_path):
    config = tmp_path / "n10.cfg"
    config.write_text(cli_env["config"].read_text() + "eval.n = 10\n")
    results = tmp_path / "results.jsonl"
    res = invoke("eval", cli_env["benchmark"], "--config", config, "--out",
                 tmp_path / "report.json", "--results", results)
    assert res.exit_code == 0, res.output
    assert {r["n"] for r in read_records(results)} == {10}
    outputs = []
    for extra in ([], ["--n", "10"]):
        triples = tmp_path / f"triples{len(extra)}.jsonl"
        res = invoke("dpo-prep", results, "--benchmark", cli_env["benchmark"], "--config", config,
                     "--out", triples, *extra)
        assert res.exit_code == 0, res.output
        outputs.append(read_records(triples))
    assert outputs[0] == outputs[1] != []


def test_dpo_prep_n_flag_is_checked_against_the_ks(cli_env, tmp_path):
    config = tmp_path / "k1.cfg"
    config.write_text(cli_env["config"].read_text() + "eval.ks = 1\n")
    results = tmp_path / "results.jsonl"
    res = invoke("eval", cli_env["benchmark"], "--config", config, "--out",
                 tmp_path / "report.json", "--results", results, "--n", "3")
    assert res.exit_code == 0, res.output
    triples = tmp_path / "triples.jsonl"
    args = ["dpo-prep", results, "--benchmark", cli_env["benchmark"], "--out", triples, "--n", "3"]
    res = invoke(*args)
    assert res.exit_code == 1
    assert res.output.strip().splitlines() == ["Error: eval.n (3) must be >= every k in [1, 5]"]
    assert not triples.exists()
    res = invoke(*args, "--config", config)
    assert res.exit_code == 0, res.output
    assert triples.exists()


def test_dpo_prep_n_above_twenty_keeps_every_distinct_negative(cli_env, tmp_path):
    wrong = [
        {"raw_text": json.dumps({"buggy_line": f"out <= in + {i};", "fix": "out <= in;"}),
         "valid_json": True, "verdict": "incorrect"}
        for i in range(25)
    ]
    results = tmp_path / "results.jsonl"
    ds.write_jsonl([{"case_id": "human/incr-bug", "n": 25, "c": 0, "responses": wrong}], results)
    triples_path = tmp_path / "triples.jsonl"
    res = invoke("dpo-prep", results, "--benchmark", cli_env["benchmark"], "--out", triples_path,
                 "--n", "25")
    assert res.exit_code == 0, res.output
    assert [t["n"] for t in read_records(triples_path)] == [r["raw_text"] for r in wrong]


@pytest.fixture(scope="module")
def eval_rows(cli_env, tmp_path_factory):
    """The benchmark rows and the results rows of one eval run over them."""
    _, results_path = _run_eval(cli_env, tmp_path_factory.mktemp("eval_rows"), "rows")
    return read_records(cli_env["benchmark"]), read_records(results_path)


def test_every_results_row_eval_writes_passes_the_results_table(eval_rows):
    _, rows = eval_rows
    assert len(rows) == len(GOLDEN_C_VECTOR)
    assert [ds.row_error(r, ds.RESULTS_ROW, "results row") for r in rows] == [None] * len(rows)


@pytest.mark.parametrize(
    "breakage",
    [
        lambda row: {**row, "responses": ["x"]},
        lambda row: {**row, "responses": [{k: v for k, v in r.items() if k != "raw_text"}
                                          for r in row["responses"]]},
        lambda row: {**row, "responses": [{**r, "valid_json": "yes"} for r in row["responses"]]},
        lambda row: {**row, "case_id": [row["case_id"]]},
    ],
    ids=["response-not-an-object", "response-without-raw-text", "valid-json-not-a-boolean",
         "case-id-a-list"],
)
def test_dpo_prep_malformed_results_row_is_a_row_error(cli_env, eval_rows, tmp_path, breakage):
    _, rows = eval_rows
    assert rows[0]["c"] == GOLDEN_C_VECTOR[0] == 20  # so the other rows give every triple
    bad = breakage(rows[0])
    results = tmp_path / "results.jsonl"
    ds.write_jsonl([bad] + rows[1:], results)
    triples_path = tmp_path / "triples.jsonl"
    res = invoke("dpo-prep", results, "--benchmark", cli_env["benchmark"], "--out", triples_path)
    assert res.exit_code == 1
    errors = json.loads(res.stderr)["errors"]
    assert len(errors) == 1 and errors[0]["case_id"] == bad["case_id"]
    assert len(read_records(triples_path)) == GOLDEN_TRIPLES


@pytest.mark.parametrize(
    "field, value",
    [("buggy_sv_code", 5), ("golden_buggy_line", 7), ("id", ["c1"]), ("bug_relation", None)],
    ids=["code-an-integer", "golden-line-an-integer", "id-a-list", "relation-null"],
)
def test_non_string_case_field_is_a_schema_error(cli_env, eval_rows, tmp_path, field, value):
    bench_rows, results = eval_rows
    bad = {**bench_rows[0], "id": "bad-field", field: value}
    del bad["length_bin"]  # so a non-string code must fail before its lines are counted
    benchmark = tmp_path / "benchmark.jsonl"
    ds.write_jsonl(bench_rows + [bad], benchmark)
    res = invoke("eval", benchmark, "--config", cli_env["config"], "--out", tmp_path / "r.json")
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: invalid benchmark file: ")
    assert field in lines[0]

    results_path = tmp_path / "results.jsonl"
    ds.write_jsonl(results, results_path)
    triples_path = tmp_path / "triples.jsonl"
    res = invoke("dpo-prep", results_path, "--benchmark", benchmark, "--out", triples_path)
    assert res.exit_code == 1
    errors = json.loads(res.stderr)["errors"]
    assert [e["case_id"] for e in errors] == [bad["id"]]
    assert field in errors[0]["error"]
    assert len(read_records(triples_path)) == GOLDEN_TRIPLES


# -- malformed input rows ---------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 30) | st.floats(-1, 1) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=3,
)


@st.composite
def mangled(draw, obj):
    """``obj`` with one key given another JSON value, dropped or added, or a
    JSON value that is not an object in its place."""
    how = draw(st.sampled_from(("retype", "drop", "add", "replace")))
    if how == "replace":
        return draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
    obj = dict(obj)
    if how == "add":
        obj[draw(st.text(max_size=6))] = draw(JSON_VALUES)
        return obj
    key = draw(st.sampled_from(sorted(obj)))
    if how == "drop":
        del obj[key]
    else:
        obj[key] = draw(JSON_VALUES)
    return obj


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_eval_and_dpo_prep_rows_end_in_an_error_not_a_traceback(cli_env, eval_rows,
                                                                          data):
    bench_rows, result_rows = eval_rows
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if data.draw(st.booleans(), label="eval"):
            ds.write_jsonl([data.draw(mangled(bench_rows[0]))], tmp / "benchmark.jsonl")
            args = ["eval", tmp / "benchmark.jsonl", "--config", cli_env["config"],
                    "--out", tmp / "report.json"]
        else:
            row = result_rows[GOLDEN_C_VECTOR.index(11)]
            if data.draw(st.booleans(), label="whole row"):
                row = data.draw(mangled(row))
            else:
                responses = list(row["responses"])
                i = data.draw(st.integers(0, len(responses) - 1))
                responses[i] = data.draw(mangled(responses[i]))
                row = {**row, "responses": responses}
            ds.write_jsonl([row], tmp / "results.jsonl")
            args = ["dpo-prep", tmp / "results.jsonl", "--benchmark", cli_env["benchmark"],
                    "--out", tmp / "triples.jsonl"]
        res = invoke(*args)
    assert_ends_in_an_error_not_a_traceback(res)


def assert_ends_in_an_error_not_a_traceback(res):
    """Exit 0, 1 or 2, no traceback, and exit 1 with one ``Error:`` line or a
    JSON error list."""
    assert res.exit_code in (0, 1, 2)
    assert "Traceback" not in res.stderr
    if res.exit_code == 1:
        lines = res.stderr.strip().splitlines()
        if lines[-1].startswith("Error: "):
            assert len(lines) == 1
        else:
            errors = json.loads(lines[-1])["errors"]
            assert errors and all(isinstance(e, dict) and e["error"] for e in errors)


def wrong_value(kind):
    """JSON values that a table entry of ``kind`` does not admit: another
    type, and for a probability also numbers outside (0, 1]."""
    if isinstance(kind, (list, dict)):
        return JSON_VALUES.filter(lambda v: type(v) is not type(kind))
    if kind == ds.PROB:
        return st.sampled_from((0, -0.5, 1.5, 10**400)) | JSON_VALUES.filter(
            lambda v: type(v) not in (int, float))
    return JSON_VALUES.filter(lambda v: type(v) is not kind)


def corruptions(draw, row, fields, prefix=""):
    """(broken copy of ``row``, name of the broken field) for every field of
    the table ``fields``: dropped, given another type, and for a list one
    entry given another type, or for a list of objects, corrupted in turn."""
    broken = []
    for name, kind in fields.items():
        path = prefix + name
        broken.append(({k: v for k, v in row.items() if k != name}, path))
        broken.append(({**row, name: draw(wrong_value(kind))}, path))
        if isinstance(kind, list):
            entries = row[name]
            i = draw(st.integers(0, len(entries) - 1))
            bad_entries = [(draw(wrong_value(kind[0])), f"{path}[{i}]")]
            if isinstance(kind[0], dict):
                bad_entries += corruptions(draw, entries[i], kind[0], f"{path}[{i}].")
            for bad, bad_path in bad_entries:
                broken.append(({**row, name: entries[:i] + [bad] + entries[i + 1:]}, bad_path))
    return broken


@st.composite
def garbage_jsonl(draw, row):
    """The bytes of a JSONL input whose rows look like ``row``, with its last
    line made into one no table admits: empty file, truncated line, binary,
    or a huge or deeply nested value in one field."""
    how = draw(st.sampled_from(("empty", "truncated", "binary", "huge", "deep")))
    if how == "empty":
        return b""
    good = json.dumps(row).encode()
    if how == "truncated":
        return good + b"\n" + good[:draw(st.integers(0, len(good) - 1))]
    if how == "binary":
        return good + b"\n" + draw(st.binary(min_size=1, max_size=40))
    if how == "huge":
        value = draw(st.sampled_from((b"9" * 4300, b"9" * 4301, b'"' + b"x" * 10**6 + b'"',
                                      b"[" + b"0.5," * 100_000 + b"0.5]")))
    else:
        depth = draw(st.sampled_from((3, 500, 950, 200_000)))
        value = b"[" * depth + b"]" * depth
    slot = b'"\\u0000slot"'
    bad = json.dumps({**row, draw(st.sampled_from(sorted(row))): "\x00slot"}).encode()
    return good + b"\n" + bad.replace(slot, value) + b"\n"


@settings(max_examples=20, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_every_table_field_corrupted_is_an_error_that_names_it(cli_env, eval_rows, data):
    bench_rows, result_rows = eval_rows
    draw = data.draw
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "u.v").write_text("module u (input a, output y);\n  assign y = ~a;\nendmodule\n")

        def has_no(error, path):
            return f" has no {path} " in error

        # losses: every other row still counts.
        bad_rows = [(broken, path) for row in README_LOSS_ROWS
                    for broken, path in corruptions(draw, row, ds.LOSS_ROWS[row["kind"]])]
        for row in README_LOSS_ROWS:  # the key to the tables
            bad_rows.append(({k: v for k, v in row.items() if k != "kind"}, "kind"))
            other_kind = draw(JSON_VALUES.filter(lambda v: v not in tuple(ds.LOSS_ROWS)))
            bad_rows.append(({**row, "kind": other_kind}, "kind"))
        ds.write_jsonl(README_LOSS_ROWS + [row for row, _ in bad_rows], tmp / "probs.jsonl")
        res = invoke("losses", tmp / "probs.jsonl")
        assert res.exit_code == 1
        assert json.loads(res.stdout)["counts"] == {"pt": 1, "sft": 1, "dpo": 1}
        errors = json.loads(res.stderr)["errors"]
        assert [e["row"] for e in errors] == list(range(4, 4 + len(bad_rows)))
        for e, (_, path) in zip(errors, bad_rows):
            assert (path == "kind" and "unknown kind" in e["error"]) or has_no(e["error"], path)

        # dpo-prep: per-row errors for benchmark and results rows alike.
        bad_cases = corruptions(draw, bench_rows[0], ds.CASE_ROW)
        bad_results = corruptions(draw, result_rows[GOLDEN_C_VECTOR.index(11)], ds.RESULTS_ROW)
        ds.write_jsonl(bench_rows + [row for row, _ in bad_cases], tmp / "benchmark.jsonl")
        ds.write_jsonl(result_rows + [row for row, _ in bad_results], tmp / "results.jsonl")
        res = invoke("dpo-prep", tmp / "results.jsonl", "--benchmark", tmp / "benchmark.jsonl",
                     "--out", tmp / "triples.jsonl")
        assert res.exit_code == 1
        assert f"{GOLDEN_CHALLENGING} challenging cases" in res.stdout
        assert len(read_records(tmp / "triples.jsonl")) == GOLDEN_TRIPLES
        errors = json.loads(res.stderr)["errors"]
        assert len(errors) == len(bad_cases) + len(bad_results)
        for e, (_, path) in zip(errors, bad_cases + bad_results):
            assert has_no(e["error"], path), (e, path)

        # eval: one line for the first bad case row.
        for row, path in bad_cases:
            ds.write_jsonl([row], tmp / "case.jsonl")
            res = invoke("eval", tmp / "case.jsonl", "--out", tmp / "report.json")
            assert res.exit_code == 1
            [line] = res.output.strip().splitlines()
            assert line.startswith("Error: invalid benchmark file: ") and has_no(line, path)

        # augment: a load error per bad manifest row.
        bad_units = corruptions(draw, {"id": "u", "path": str(tmp / "u.v")}, ds.MANIFEST_ROW)
        ds.write_jsonl([row for row, _ in bad_units], tmp / "manifest.jsonl")
        res = invoke("augment", "--manifest", tmp / "manifest.jsonl", "--out-dir", tmp / "out")
        assert res.exit_code == 1
        errors = json.loads(res.stderr)["errors"]
        assert len(errors) == len(bad_units)
        for e, (_, path) in zip(errors, bad_units):
            assert e["stage"] == "load" and has_no(e["error"], path)

        # Any input: empty, truncated, binary, huge or deeply nested.
        command = draw(st.sampled_from(("augment", "dpo-prep-benchmark", "dpo-prep-results",
                                        "losses", "eval")))
        row = {"augment": {"id": "u", "path": str(tmp / "u.v")},
               "dpo-prep-benchmark": bench_rows[0], "dpo-prep-results": result_rows[0],
               "losses": README_LOSS_ROWS[draw(st.integers(0, 2))], "eval": bench_rows[0]}
        garbage = tmp / "garbage.jsonl"
        garbage.write_bytes(draw(garbage_jsonl(row[command])))
        args = {"augment": ["augment", "--manifest", garbage, "--out-dir", tmp / "out"],
                "dpo-prep-benchmark": ["dpo-prep", tmp / "results.jsonl", "--benchmark", garbage],
                "dpo-prep-results": ["dpo-prep", garbage, "--benchmark", cli_env["benchmark"]],
                "losses": ["losses", garbage],
                "eval": ["eval", garbage, "--config", cli_env["config"]]}[command]
        if command.startswith(("dpo-prep", "eval")):
            args += ["--out", tmp / "out.json"]
        assert_ends_in_an_error_not_a_traceback(invoke(*args))

        # filter: binary, non-UTF-8 and empty sources beside a good one.
        corpus = tmp / "corpus"
        corpus.mkdir()
        good = (tmp / "u.v").read_bytes()
        at = draw(st.integers(0, len(good)))
        (corpus / "good.v").write_bytes(good)
        (corpus / "binary.v").write_bytes(draw(st.binary(max_size=200)))
        (corpus / "latin.sv").write_bytes(good[:at] + bytes([draw(st.integers(0x80, 0xff))])
                                          + good[at:])
        (corpus / "empty.v").write_bytes(b"")
        res = invoke("filter", "--corpus-dir", corpus, "--out-dir", tmp / "filtered")
        assert res.exit_code == 0 and "Traceback" not in res.stderr
        report = read_records(tmp / "filtered" / "filter_report.jsonl")
        assert [r["id"] for r in report] == ["binary.v", "empty.v", "good.v", "latin.sv"]
        assert "good.v" in {r["id"] for r in read_records(tmp / "filtered" / "manifest.jsonl")}


# -- losses -------------------------------------------------------------------------


def test_losses_cli_worked_examples(tmp_path):
    probs = tmp_path / "probs.jsonl"
    ds.write_jsonl(
        [
            {"kind": "pt", "token_probs": [0.5, 0.25]},
            {"kind": "sft", "token_probs": [0.5]},
            {"kind": "dpo", "policy_p": 0.8, "ref_p": 0.5, "policy_n": 0.1, "ref_n": 0.4},
        ],
        probs,
    )
    res = invoke("losses", probs)
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["pt_loss"] == pytest.approx(2.0794415416798357, abs=1e-10)
    assert doc["sft_loss"] == pytest.approx(0.6931471805599453, abs=1e-10)
    assert doc["dpo_loss"] == pytest.approx(0.60459, abs=1e-4)


# The README's three example rows; outputs pinned exactly, taken from the
# provider-table implementation the CLI used before it computed from the
# probability lists directly.
README_LOSS_ROWS = [
    {"kind": "pt", "token_probs": [0.5, 0.25]},
    {"kind": "sft", "token_probs": [0.5]},
    {"kind": "dpo", "policy_p": 0.8, "ref_p": 0.5, "policy_n": 0.1, "ref_n": 0.4},
]


@pytest.mark.parametrize(
    "extra, losses",
    [
        ([], (2.0794415416798357, 0.6931471805599453, 0.6046334137118602)),
        (["--reduction", "mean", "--beta", "0.5"],
         (1.0397207708399179, 0.6931471805599453, 0.333098485862447)),
    ],
    ids=["defaults", "mean-beta-0.5"],
)
def test_losses_cli_pinned_readme_rows(tmp_path, extra, losses):
    probs = tmp_path / "probs.jsonl"
    ds.write_jsonl(README_LOSS_ROWS, probs)
    res = invoke("losses", probs, *extra)
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    del doc["meta"]
    assert doc == {
        "counts": {"pt": 1, "sft": 1, "dpo": 1},
        **dict(zip(("pt_loss", "sft_loss", "dpo_loss"), losses)),
    }


@pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
def test_losses_cli_rejects_a_beta_that_is_not_finite(tmp_path, beta):
    probs = tmp_path / "probs.jsonl"
    probs.write_text("not a JSON row\n")  # the check comes before any row is read
    res = invoke("losses", probs, "--beta", beta)
    assert res.exit_code == 1
    assert res.output.strip().splitlines() == [
        f"Error: --beta must be a finite number, got {float(beta)}"
    ]


def test_losses_cli_unknown_kind(tmp_path):
    probs = tmp_path / "probs.jsonl"
    ds.write_jsonl([{"kind": "mystery"}], probs)
    res = invoke("losses", probs)
    assert res.exit_code != 0


def test_losses_cli_malformed_rows_are_errors(tmp_path):
    probs = tmp_path / "probs.jsonl"
    ds.write_jsonl(
        [
            {"kind": "pt"},
            {"kind": "pt", "token_probs": [0.5, 0.25]},
            {"kind": "sft", "token_probs": [0.5, "x"]},
            {"kind": "mystery"},
            {"kind": "dpo", "policy_p": 0.8, "ref_p": 0.5, "policy_n": 0.1},
            {"kind": "dpo", "policy_p": 0.8, "ref_p": 0.5, "policy_n": 0.1, "ref_n": 0.0},
            {"kind": "dpo", "policy_p": 0.8, "ref_p": 0.5, "policy_n": 0.1, "ref_n": 0.4},
        ],
        probs,
    )
    res = invoke("losses", probs)
    assert res.exit_code == 1
    doc = json.loads(res.stdout)
    assert doc["counts"] == {"pt": 1, "sft": 0, "dpo": 1}
    assert doc["pt_loss"] == pytest.approx(2.0794415416798357, abs=1e-10)
    assert "sft_loss" not in doc
    assert doc["dpo_loss"] == pytest.approx(0.60459, abs=1e-4)
    errors = json.loads(res.stderr)["errors"]
    assert [e["row"] for e in errors] == [1, 3, 4, 5, 6]
    assert "ref_n" in errors[3]["error"] and "ref_n" in errors[4]["error"]


# -- imports ------------------------------------------------------------------


def test_cli_import_does_not_load_numpy():
    src = str(Path(assertforge.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, assertforge.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "False"
