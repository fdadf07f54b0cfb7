"""Fault injection through the CLI. In `augment`, one unit's `sva` call and
one CoT call fail in transport, two manifest rows cannot be loaded, or the
compiler or verifier reports a tool error; in `eval`, every draw of two
chosen cases fails in transport. Each run must report exactly the injected
items as errors, once each, write every output, and exit 1.
The oracle is a clean run without the failing items: the faulty run must
match it record for record, except that a failed CoT's mutant is an SVA-Bug
record without a CoT.
"""

import functools
import json

from click.testing import CliRunner

from assertforge import cli
from assertforge import dataset as ds
from assertforge.corpus import SourceUnit
from assertforge.errors import TransportFailure
from assertforge.pipeline import engine_bug_candidates
from assertforge.toolchain import CompileOutcome, Toolchain, VerifyOutcome
from conftest import E2E_SEED
from fixture_corpus import CORPUS_FILES
from mockbackends import fake_compile, fake_llm, make_fake_verify, strip_assert_lines

SVA_FAILING_UNIT = "core/counter.v"


def _augment(monkeypatch, tmp_path, manifest_rows, llm_backend, tag,
             compile_backend=fake_compile, verify_backend=None):
    out = tmp_path / tag
    out.mkdir()
    manifest = out / "manifest.jsonl"
    ds.write_jsonl(manifest_rows, manifest)
    config = tmp_path / "faults.cfg"
    config.write_text(f"seed = {E2E_SEED}\nmutations.per_unit = 3\n", encoding="utf-8")
    monkeypatch.setattr(
        cli,
        "Toolchain",
        functools.partial(
            Toolchain,
            compile_backend=compile_backend,
            verify_backend=verify_backend or make_fake_verify(set(CORPUS_FILES.values())),
            llm_backend=llm_backend,
        ),
    )
    res = CliRunner().invoke(
        cli.main,
        ["augment", "--config", str(config), "--manifest", str(manifest), "--out-dir", str(out)],
        catch_exceptions=False,
    )
    return res, out


def _rows(path):
    return ds.strip_meta_header(ds.read_jsonl(path))[1]


def test_augment_isolates_a_failing_unit_and_a_failing_cot(cli_env, monkeypatch, tmp_path):
    res_f = CliRunner().invoke(
        cli.main, ["filter", "--corpus-dir", str(cli_env["corpus"]), "--out-dir", str(tmp_path)]
    )
    assert res_f.exit_code == 0, res_f.output
    manifest = _rows(tmp_path / "manifest.jsonl")
    assert SVA_FAILING_UNIT in {r["id"] for r in manifest}

    cot_prompts = {}

    def recording_llm(req):
        if req.task == "cot" and req.nonce:
            cot_prompts[req.nonce] = req.prompt_text
        return fake_llm(req)

    without_unit = [r for r in manifest if r["id"] != SVA_FAILING_UNIT]
    clean, clean_out = _augment(monkeypatch, tmp_path, without_unit, recording_llm, "clean")
    assert clean.exit_code == 0, clean.output
    clean_svabug = _rows(clean_out / "svabug.jsonl")
    # Fail the CoT of a mutant whose clean CoT was kept, so the loss shows.
    failing_nonce, failing_code = next(
        (nonce, row["buggy_sv_code"])
        for row in clean_svabug
        if row["cot"] is not None
        for nonce, prompt in cot_prompts.items()
        if row["buggy_sv_code"] in prompt
    )
    failing_text = CORPUS_FILES[SVA_FAILING_UNIT]

    def flaky_llm(req):
        if req.task == "sva" and failing_text in req.prompt_text:
            raise TransportFailure("injected sva failure")
        if req.task == "cot" and req.nonce == failing_nonce:
            raise TransportFailure("injected cot failure")
        return fake_llm(req)

    faulty, faulty_out = _augment(monkeypatch, tmp_path, manifest, flaky_llm, "faulty")
    assert faulty.exit_code == 1
    errors = json.loads(faulty.stderr)["errors"]
    cot_unit, cot_line, _ = failing_nonce.split(":")
    assert [{k: v for k, v in e.items() if k != "error"} for e in errors] == [
        {"unit_id": SVA_FAILING_UNIT, "stage": "unit"},
        {"unit_id": cot_unit, "line": int(cot_line), "stage": "cot"},
    ]
    assert "task=sva" in errors[0]["error"] and "injected sva failure" in errors[0]["error"]
    assert "task=cot" in errors[1]["error"] and "injected cot failure" in errors[1]["error"]
    report = json.loads((faulty_out / "augment_report.json").read_text())
    assert report["errors"] == errors

    for name in ("pt.jsonl", "bug.jsonl", "sva_eval_machine.jsonl"):
        assert _rows(faulty_out / name) == _rows(clean_out / name), name
    assert _split_bins(faulty_out) == _split_bins(clean_out)
    expected_svabug = [
        {**row, "step_by_step": False, "cot": None} if row["buggy_sv_code"] == failing_code
        else row
        for row in clean_svabug
    ]
    assert _rows(faulty_out / "svabug.jsonl") == expected_svabug
    clean_report = json.loads((clean_out / "augment_report.json").read_text())
    assert report["counts"] == clean_report["counts"]
    assert report["cot"]["total"] == clean_report["cot"]["total"] - 1


def _split_bins(out):
    return json.loads((out / "split_plan.json").read_text())["bins"]



def test_augment_reports_a_manifest_row_without_path_or_id(cli_env, monkeypatch, tmp_path):
    res_f = CliRunner().invoke(
        cli.main, ["filter", "--corpus-dir", str(cli_env["corpus"]), "--out-dir", str(tmp_path)]
    )
    assert res_f.exit_code == 0, res_f.output
    manifest = _rows(tmp_path / "manifest.jsonl")
    clean, clean_out = _augment(monkeypatch, tmp_path, manifest, fake_llm, "clean")
    assert clean.exit_code == 0, clean.output

    broken = manifest[:2] + [{"id": "no-path"}, {"path": manifest[0]["path"]}] + manifest[2:]
    faulty, faulty_out = _augment(monkeypatch, tmp_path, broken, fake_llm, "faulty")
    assert faulty.exit_code == 1
    errors = json.loads(faulty.stderr)["errors"]
    assert [(e["unit_id"], e["stage"]) for e in errors] == [("no-path", "load"), (None, "load")]
    for name in ("pt.jsonl", "bug.jsonl", "svabug.jsonl", "sva_eval_machine.jsonl"):
        assert _rows(faulty_out / name) == _rows(clean_out / name), name


def test_augment_reports_each_tool_error_once(cli_env, monkeypatch, tmp_path):
    res_f = CliRunner().invoke(
        cli.main, ["filter", "--corpus-dir", str(cli_env["corpus"]), "--out-dir", str(tmp_path)]
    )
    assert res_f.exit_code == 0, res_f.output
    manifest = _rows(tmp_path / "manifest.jsonl")
    text = CORPUS_FILES[SVA_FAILING_UNIT]

    # Case 1: the compiler fails on the unit's own source.
    def broken_compile(source):
        if source == text:
            return CompileOutcome("tool_error", "compiler crashed")
        return fake_compile(source)

    res, out = _augment(monkeypatch, tmp_path, manifest, fake_llm, "compile",
                        compile_backend=broken_compile)
    assert res.exit_code == 1
    errors = json.loads(res.stderr)["errors"]
    assert errors == [{"unit_id": SVA_FAILING_UNIT, "stage": "compile", "error": "compiler crashed"}]
    assert json.loads((out / "augment_report.json").read_text())["errors"] == errors

    # Case 2: the verifier fails on every mutant of the unit that compiles.
    unit = SourceUnit.from_text(SVA_FAILING_UNIT, text)
    compiled = [
        rec for rec in engine_bug_candidates(unit, 3, E2E_SEED)
        if fake_compile(rec.apply_to(text)).status == "ok"
    ]
    assert compiled
    failing = {strip_assert_lines(rec.apply_to(text)) for rec in compiled}
    fake_verify = make_fake_verify(set(CORPUS_FILES.values()))

    def broken_verify(source, depth):
        if strip_assert_lines(source) in failing:
            return VerifyOutcome("tool_error", "verifier crashed")
        return fake_verify(source, depth)

    res, _ = _augment(monkeypatch, tmp_path, manifest, fake_llm, "verify",
                      verify_backend=broken_verify)
    assert res.exit_code == 1
    assert json.loads(res.stderr)["errors"] == [
        {"unit_id": SVA_FAILING_UNIT, "line": rec.line, "stage": "verify",
         "error": "verifier crashed"}
        for rec in compiled
    ]


def _eval(monkeypatch, tmp_path, benchmark, llm_backend, tag):
    config = tmp_path / "eval.cfg"
    config.write_text("eval.n = 20\neval.ks = 1,5\n", encoding="utf-8")
    monkeypatch.setattr(cli, "Toolchain", functools.partial(Toolchain, llm_backend=llm_backend))
    report, results = tmp_path / f"{tag}.json", tmp_path / f"{tag}.jsonl"
    res = CliRunner().invoke(
        cli.main,
        ["eval", str(benchmark), "--config", str(config), "--out", str(report),
         "--results", str(results)],
        catch_exceptions=False,
    )
    return res, report, results


def test_eval_isolates_failing_cases(cli_env, monkeypatch, tmp_path):
    case_ids = [r["id"] for r in _rows(cli_env["benchmark"])]
    failing = [case_ids[0], case_ids[-1]]

    def flaky_llm(req):
        if req.nonce.rpartition(":")[0] in failing:
            raise TransportFailure("injected solve failure")
        return fake_llm(req)

    clean, _, clean_results = _eval(monkeypatch, tmp_path, cli_env["benchmark"], fake_llm, "clean")
    assert clean.exit_code == 0, clean.output
    faulty, report, results = _eval(monkeypatch, tmp_path, cli_env["benchmark"], flaky_llm, "bad")
    assert faulty.exit_code == 1
    errors = json.loads(faulty.stderr)["errors"]
    assert [(e["case_id"], e["stage"]) for e in errors] == [(i, "collect") for i in failing]
    assert all("injected solve failure" in e["error"] for e in errors)
    assert _rows(results) == [r for r in _rows(clean_results) if r["case_id"] not in failing]
    doc = json.loads(report.read_text())
    assert doc["case_count"] == sum(doc["histogram"]) == len(case_ids) - 2
