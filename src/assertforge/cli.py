"""Command-line entry point: filter | augment | eval | dpo-prep | losses.

Every output file starts with one metadata header object
{"tool_version", "seed", "config_digest"} so provenance survives copies.
``config_digest`` hashes every effective setting, flags included, except the
paths, ``llm.credential_env``, ``parallel`` and ``keep_temp``, which cannot
change an output byte.
Exit code is 0 only when no per-item error occurred; otherwise the errors are
written as JSON to stderr and the exit code is 1.
"""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import click

from . import __version__
from . import dataset as ds
from . import evalharness as ev
from . import trainmath as tm
from .config import PipelineConfig, parse_config_file, parse_ks
from .corpus import SourceUnit, filter_units, load_corpus_dir
from .errors import AssertForgeError, DomainError, SchemaError
from .pipeline import render_counts_table, run_augment
from .toolchain import Toolchain


def _load_config(path: str | None, **flags) -> PipelineConfig:
    """The config file with the given flags (those not None) in place of their
    fields; flag and file values pass the same checks."""
    try:
        return PipelineConfig.from_mapping({} if path is None else parse_config_file(path), **flags)
    except (FileNotFoundError, DomainError) as exc:
        raise click.ClickException(str(exc))


def _toolchain(cfg: PipelineConfig) -> Toolchain:
    """The configured toolchain; an unusable ``mock.dir`` is a one-line error."""
    try:
        return Toolchain(cfg.tools)
    except DomainError as exc:
        raise click.ClickException(str(exc))


def _header(cfg: PipelineConfig) -> dict:
    return {
        "tool_version": __version__,
        "seed": cfg.seed,
        "config_digest": cfg.config_digest,
    }


def _read_rows(path, what: str) -> list[dict]:
    """The rows of a JSONL input after its metadata header; a line that is not
    a JSON object is a one-line error naming ``what``."""
    try:
        return ds.strip_meta_header(ds.read_jsonl(path))[1]
    except SchemaError as exc:
        raise click.ClickException(f"invalid {what}: {exc}")


def _finish(errors: list[dict]) -> None:
    if errors:
        click.echo(json.dumps({"errors": errors}), err=True)
        sys.exit(1)


@click.group()
@click.version_option(version=__version__)
def main():
    """Verilog bug-injection datasets and assertion-failure benchmarking."""


@main.command("filter")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--corpus-dir", type=click.Path(), default=None, help="Overrides corpus.dir.")
@click.option("--out-dir", type=click.Path(), default=None, help="Overrides out.dir.")
def filter_cmd(config_path, corpus_dir, out_dir):
    """Apply the stage-1 filter rules and write the report plus manifest."""
    cfg = _load_config(config_path, corpus_dir=corpus_dir, out_dir=out_dir)
    out = Path(cfg.out_dir)
    errors: list[dict] = []
    try:
        units = load_corpus_dir(cfg.corpus_dir, errors)
    except FileNotFoundError as exc:
        raise click.ClickException(str(exc))
    rows = filter_units(units)
    accepted = [{"id": r["id"], "path": r["path"]} for r in rows if r["status"] == "accepted"]
    header = _header(cfg)
    ds.write_jsonl(rows, out / "filter_report.jsonl", header=header)
    ds.write_jsonl(accepted, out / "manifest.jsonl", header=header)
    click.echo(f"{len(accepted)} of {len(rows)} files accepted -> {out / 'manifest.jsonl'}")
    _finish(errors)


def _load_manifest_units(manifest: Path) -> tuple[list[SourceUnit], list[dict]]:
    units, errors = [], []
    for row in _read_rows(manifest, "manifest"):
        error = ds.row_error(row, ds.MANIFEST_ROW, "manifest row")
        if error is not None:
            errors.append({"unit_id": row.get("id"), "stage": "load", "error": error})
            continue
        p = Path(row["path"])
        try:
            if not p.is_file():
                raise FileNotFoundError(f"missing file: {p}")
            text = p.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:  # also a name too long for the file system
            errors.append({"unit_id": row["id"], "stage": "load", "error": str(exc)})
            continue
        units.append(SourceUnit(id=row["id"], path=str(p), text=text))
    return units, errors


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--manifest", type=click.Path(), default=None, help="Defaults to out.dir/manifest.jsonl.")
@click.option("--out-dir", type=click.Path(), default=None)
@click.option("--parallel", type=click.IntRange(min=1), default=None)
@click.option("--keep-temp", is_flag=True, default=None)
def augment(config_path, manifest, out_dir, parallel, keep_temp):
    """Generate the pt/bug/svabug datasets, split plan, and benchmark cases."""
    cfg = _load_config(config_path, keep_temp=keep_temp, out_dir=out_dir, parallel=parallel)
    out = Path(cfg.out_dir)
    manifest = Path(manifest or (out / "manifest.jsonl"))
    if not manifest.is_file():
        raise click.ClickException(f"manifest not found: {manifest}")
    units, load_errors = _load_manifest_units(manifest)
    result = run_augment(units, _toolchain(cfg), cfg)
    result.errors = load_errors + result.errors

    header = _header(cfg)
    ds.write_jsonl(result.pt, out / "pt.jsonl", header=header)
    ds.write_jsonl(result.bug, out / "bug.jsonl", header=header)
    ds.write_jsonl(result.svabug, out / "svabug.jsonl", header=header)
    ds.write_jsonl(map(asdict, result.eval_cases), out / "sva_eval_machine.jsonl", header=header)
    split_doc = {"meta": header, **result.split_plan}
    (out / "split_plan.json").write_text(json.dumps(split_doc, indent=2) + "\n", encoding="utf-8")
    report = {
        "meta": header,
        "counts": result.counts,
        "cot": result.cot_stats,
        "drops": result.drops,
        "errors": result.errors,
    }
    (out / "augment_report.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    click.echo(render_counts_table(result.counts))
    _finish(result.errors)


@main.command("eval")
@click.argument("benchmark", type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_path", type=click.Path(), default="report.json")
@click.option("--results", "results_path", type=click.Path(), default=None,
              help="Per-case results JSONL (input for dpo-prep).")
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("--n", "n_target", type=int, default=None)
@click.option("--k", "ks_text", type=str, default=None, help="Comma-separated ks, e.g. 1,5.")
@click.option("--mode", type=click.Choice(["textual", "reverify"]), default=None)
@click.option("--line-only", is_flag=True, default=None,
              help="Overrides eval.line_only: judge on the buggy line alone (paper-literal).")
@click.option("--parallel", type=click.IntRange(min=1), default=None)
def eval_cmd(benchmark, config_path, out_path, results_path, csv_path, n_target,
             ks_text, mode, line_only, parallel):
    """Benchmark the configured solver over an EvalCase JSONL file."""
    try:
        ks = None if ks_text is None else parse_ks(ks_text, "--k")
    except DomainError as exc:
        raise click.ClickException(str(exc))
    cfg = _load_config(config_path, eval_n=n_target, eval_ks=ks, eval_mode=mode,
                       eval_line_only=line_only, parallel=parallel)
    try:
        cases = [ev.EvalCase.from_json(r) for r in _read_rows(benchmark, "benchmark file")]
    except (SchemaError, ValueError) as exc:
        raise click.ClickException(f"invalid benchmark file: {exc}")
    if not cases:
        raise click.ClickException("benchmark file holds no cases")
    tc = _toolchain(cfg)
    if cfg.eval_mode == "reverify" and not tc.has_verifier:
        raise click.ClickException(
            "eval.mode = reverify needs a verifier: set verifier.cmd or mock.dir")

    errors: list[dict] = []

    def run_case(case: ev.EvalCase):
        def judge_fn(resp):
            return ev.judge(resp, case, cfg.eval_mode, line_only=cfg.eval_line_only, toolchain=tc)

        return ev.collect_responses(
            case, tc.llm_call, n_target=cfg.eval_n, judge_fn=judge_fn
        )

    # Leaving the pool waits for every case, so this thread wakes once, not
    # once per case: at one worker, waking per case added 15-20% to eval's
    # wall time on a 2-core VM.
    with ThreadPoolExecutor(max_workers=cfg.parallel) as pool:
        futures = [(c, pool.submit(run_case, c)) for c in cases]
    results = []
    for case, fut in futures:
        try:
            results.append(fut.result())
        except AssertForgeError as exc:
            errors.append({"case_id": case.id, "stage": "collect", "error": str(exc)})
    del futures  # each holds a lock and a condition; free them before the report

    header = _header(cfg)
    if results:
        report = ev.aggregate(results, cases, ks=cfg.eval_ks, n_target=cfg.eval_n)
        doc = {"meta": header, **report}
        Path(out_path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        if csv_path:
            Path(csv_path).write_text(ev.report_csv(report), encoding="utf-8")
        if results_path:
            ds.write_jsonl(
                ({"case_id": r.case_id, "n": r.n, "c": r.c,
                  "responses": [j._asdict() for j in r.responses]} for r in results),
                results_path,
                header=header,
            )
        for k in cfg.eval_ks:
            click.echo(f"pass@{k} = {report['overall'][f'pass@{k}']:.4f}")
    _finish(errors)


@main.command("dpo-prep")
@click.argument("results_file", type=click.Path(exists=True))
@click.option("--benchmark", type=click.Path(exists=True), required=True,
              help="The EvalCase JSONL the results were produced from.")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_path", type=click.Path(), default="triples.jsonl")
@click.option("--n", "n_expected", type=int, default=None, help="Overrides eval.n.")
def dpo_prep(results_file, benchmark, config_path, out_path, n_expected):
    """Select challenging cases from eval results and emit preference triples."""
    cfg = _load_config(config_path, eval_n=n_expected)
    case_rows = _read_rows(benchmark, "benchmark file")
    result_rows = _read_rows(results_file, "results file")

    errors: list[dict] = []
    cases = {}
    for r in case_rows:
        try:
            case = ev.EvalCase.from_json(r)
        except (SchemaError, ValueError) as exc:
            errors.append({"case_id": r.get("id"), "error": f"benchmark row: {exc}"})
            continue
        cases[case.id] = case
    triples: list[dict] = []
    challenging = 0
    for row in result_rows:
        case_id = row.get("case_id")
        error = ds.row_error(row, ds.RESULTS_ROW, "results row")
        if error is None and case_id not in cases:
            error = "unknown case id"
        if error is not None:
            errors.append({"case_id": case_id, "error": error})
            continue
        case = cases[case_id]
        valid = [r for r in row["responses"] if r["valid_json"]]
        if len(valid) != cfg.eval_n:
            errors.append(
                {
                    "case_id": case_id,
                    "error": f"expected {cfg.eval_n} valid responses, got {len(valid)}",
                }
            )
            continue
        question = ev.solve_prompt(case)
        answer = json.dumps(
            {
                "buggy_line": case.golden_buggy_line,
                "fix": case.golden_corrected_line,
                "cot": None,
            }
        )
        pairs = ((r["raw_text"], r["verdict"]) for r in valid)
        rows = tm.preference_triples(question, answer, pairs)
        challenging += bool(rows)
        triples.extend(rows)

    ds.write_jsonl(triples, out_path, header=_header(cfg))
    click.echo(f"{challenging} challenging cases -> {len(triples)} triples -> {out_path}")
    _finish(errors)


@main.command()
@click.argument("probs_file", type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--beta", type=float, default=0.1)
@click.option("--reduction", type=click.Choice(["sum", "mean"]), default="sum")
def losses(probs_file, config_path, beta, reduction):
    """Compute the three training losses from explicit probability records.

    Input rows: {"kind":"pt","token_probs":[...]} for one pretraining sample,
    {"kind":"sft","token_probs":[...]} for one answer's teacher-forced probs,
    {"kind":"dpo","policy_p":..,"ref_p":..,"policy_n":..,"ref_n":..} for one
    preference triple's sequence probabilities. A row of another kind, or
    one whose probabilities are missing or outside (0, 1], is a per-row error
    and the losses come from the other rows.
    """
    if not math.isfinite(beta):
        raise click.ClickException(f"--beta must be a finite number, got {beta}")
    cfg = _load_config(config_path)
    rows = _read_rows(probs_file, "probabilities file")
    pt_samples, sft_pairs, dpo_rows = [], [], []
    errors: list[dict] = []
    for i, row in enumerate(rows, start=1):
        kind = row.get("kind")
        fields = ds.LOSS_ROWS.get(kind) if isinstance(kind, str) else None
        error = ds.row_error(row, fields, f"{kind} row") if fields else f"unknown kind {kind!r}"
        if error is not None:
            errors.append({"row": i, "error": error})
            continue
        if kind == "pt":
            pt_samples.append(row["token_probs"])
        elif kind == "sft":
            sft_pairs.append(row["token_probs"])
        else:
            dpo_rows.append(row)

    out: dict = {"meta": _header(cfg), "counts": {"pt": len(pt_samples), "sft": len(sft_pairs), "dpo": len(dpo_rows)}}
    if pt_samples:
        out["pt_loss"] = tm.nll(pt_samples, reduction)
    if sft_pairs:
        out["sft_loss"] = tm.nll(sft_pairs, reduction)
    if dpo_rows:
        terms = [tm.dpo_term(*map(math.log, map(row.get, ds.LOSS_ROWS["dpo"])), beta)
                 for row in dpo_rows]
        out["dpo_loss"] = sum(terms, 0.0) / len(terms)
    click.echo(json.dumps(out, indent=2))
    _finish(errors)


if __name__ == "__main__":
    main()
