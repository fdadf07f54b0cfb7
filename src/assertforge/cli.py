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

import collections
import contextlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Iterator

import click

from . import __version__
from . import dataset as ds
from . import evalharness as ev
from . import trainmath as tm
from .config import PipelineConfig, parse_config_file, parse_ks
from .corpus import SourceUnit, filter_units, load_corpus_dir, read_unit
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


def _out_dir(cfg: PipelineConfig) -> Path:
    """``out.dir``, made with its parents; one that cannot be made is a one-line error."""
    try:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.ClickException(f"cannot create out.dir: {exc}")
    return Path(cfg.out_dir)


def _out_file(path: str, option: str) -> None:
    """Make the parents of an output file; a target that cannot be written (a
    directory, or a path under a regular file) is a one-line error."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        if Path(path).is_dir():
            raise IsADirectoryError(f"is a directory: {path}")
    except OSError as exc:
        raise click.ClickException(f"cannot write {option} {path}: {exc}")


@contextlib.contextmanager
def _writing():
    """An output file that cannot be written whole is a one-line error naming it."""
    try:
        yield
    except OSError as exc:
        raise click.ClickException(f"cannot write {exc.filename}: {exc.strerror}")


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


def _by_id(cases: Iterable[ev.EvalCase]) -> dict[str, ev.EvalCase]:
    """The benchmark's cases by id; a case id that repeats is a one-line error,
    since results and triples are matched to their case by id."""
    by_id: dict[str, ev.EvalCase] = {}
    for case in cases:
        if case.id in by_id:
            raise click.ClickException(f"invalid benchmark file: case id {case.id!r} repeats")
        by_id[case.id] = case
    return by_id


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
    errors: list[dict] = []
    try:
        units = load_corpus_dir(cfg.corpus_dir, errors)
    except FileNotFoundError as exc:
        raise click.ClickException(str(exc))
    out = _out_dir(cfg)  # before the first file is read
    rows = filter_units(units)
    accepted = [{"id": r["id"], "path": r["path"]} for r in rows if r["status"] == "accepted"]
    header = _header(cfg)
    with _writing():
        ds.write_jsonl(rows, out / "filter_report.jsonl", header=header)
        ds.write_jsonl(accepted, out / "manifest.jsonl", header=header)
    click.echo(f"{len(accepted)} of {len(rows)} files accepted -> {out / 'manifest.jsonl'}")
    _finish(errors)


def _load_manifest_units(manifest: Path) -> tuple[list[SourceUnit], list[dict]]:
    """The manifest's units; a bad row, a later row under an id already read,
    or a file ``read_unit`` cannot read is a ``load`` error."""
    units, errors, ids = [], [], set()
    for row in _read_rows(manifest, "manifest"):
        error = ds.row_error(row, ds.MANIFEST_ROW, "manifest row")
        if error is None and row["id"] in ids:
            error = f"manifest id {row['id']!r} repeats"
        if error is not None:
            errors.append({"unit_id": row.get("id"), "stage": "load", "error": error})
            continue
        ids.add(row["id"])
        unit = read_unit(row["id"], Path(row["path"]), errors)
        if unit is not None:
            units.append(unit)
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
    manifest = Path(manifest or (Path(cfg.out_dir) / "manifest.jsonl"))
    if not manifest.is_file():
        raise click.ClickException(f"manifest not found: {manifest}")
    out = _out_dir(cfg)
    units, load_errors = _load_manifest_units(manifest)
    result = run_augment(units, _toolchain(cfg), cfg)
    result.errors = load_errors + result.errors

    header = _header(cfg)
    split_doc = {"meta": header, **result.split_plan}
    report = {"meta": header, "counts": result.counts, "cot": result.cot_stats,
              "drops": result.drops, "errors": result.errors}
    with _writing():
        ds.write_jsonl(result.pt, out / "pt.jsonl", header=header)
        ds.write_jsonl(result.bug, out / "bug.jsonl", header=header)
        ds.write_jsonl(result.svabug, out / "svabug.jsonl", header=header)
        ds.write_jsonl(map(asdict, result.eval_cases), out / "sva_eval_machine.jsonl",
                       header=header)
        ds.write_whole(out / "split_plan.json", [json.dumps(split_doc, indent=2) + "\n"])
        ds.write_whole(out / "augment_report.json", [json.dumps(report, indent=2) + "\n"])
    click.echo(render_counts_table(result.counts))
    _finish(result.errors)


class _NoCaseJudged(Exception):
    """Ends ``eval``'s cases when every one failed, so that ``write_whole``
    drops the staged results file instead of moving it into place."""


def _in_order(fn, items, parallel: int) -> Iterator:
    """``fn(item)`` for each item, in item order. At one worker each call runs
    inline when its value is taken. Above one, at most ``2 * parallel`` calls
    are submitted and not yet taken, so no more values than that are held."""
    if parallel == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=parallel) as pool:
        window: collections.deque = collections.deque()
        for item in items:
            if len(window) == 2 * parallel:
                yield window.popleft().result()
            window.append(pool.submit(fn, item))
        while window:
            yield window.popleft().result()


def _results_row(r: ev.CaseResult) -> dict:
    return {"case_id": r.case_id, "n": r.n, "c": r.c,
            "responses": [j._asdict() for j in r.responses]}


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
    if cfg.eval_n < max(cfg.eval_ks):  # the one command that reads the ks
        raise click.ClickException(
            f"eval.n ({cfg.eval_n}) must be >= every k in {list(cfg.eval_ks)}")
    try:
        cases = _by_id(ev.EvalCase.from_json(r) for r in _read_rows(benchmark, "benchmark file"))
    except (SchemaError, ValueError) as exc:
        raise click.ClickException(f"invalid benchmark file: {exc}")
    if not cases:
        raise click.ClickException("benchmark file holds no cases")
    for path, option in ((out_path, "--out"), (csv_path, "--csv"), (results_path, "--results")):
        if path:  # before the first solver call
            _out_file(path, option)
    tc = _toolchain(cfg)
    if cfg.eval_mode == "reverify" and not tc.has_verifier:
        raise click.ClickException(
            "eval.mode = reverify needs a verifier: set verifier.cmd or mock.mode = replay")

    errors: list[dict] = []

    def run_case(case: ev.EvalCase):
        """The case's result, or its error row when it fails."""
        def judge_fn(resp):
            return ev.judge(resp, case, cfg.eval_mode, line_only=cfg.eval_line_only, toolchain=tc)

        try:
            return ev.collect_responses(case, tc.llm_call, n_target=cfg.eval_n, judge_fn=judge_fn)
        except AssertForgeError as exc:
            return {"case_id": case.id, "stage": "collect", "error": str(exc)}

    results: list[ev.CaseResult] = []  # (case_id, n, c) of each judged case, no replies

    def judged():
        """Each judged case's result in case order, a failed case's error put
        in its place; when no case was judged it raises _NoCaseJudged."""
        for r in _in_order(run_case, cases.values(), cfg.parallel):
            if isinstance(r, dict):
                errors.append(r)
            else:
                results.append(ev.CaseResult(r.case_id, r.n, r.c, ()))
                yield r
            del r  # the case's replies go before the next case is taken
        if not results:
            raise _NoCaseJudged

    header = _header(cfg)
    cases_left, write_failed = judged(), None
    with contextlib.suppress(_NoCaseJudged):
        if results_path:
            try:
                with _writing():
                    ds.write_jsonl(map(_results_row, cases_left), results_path, header=header)
            except click.ClickException as exc:
                write_failed = exc  # the report still covers every case
        collections.deque(cases_left, maxlen=0)  # the cases not yet run
    if results:
        report = ev.aggregate(results, cases.values(), ks=cfg.eval_ks, n_target=cfg.eval_n)
        doc = {"meta": header, **report}
        with _writing():
            ds.write_whole(out_path, [json.dumps(doc, indent=2) + "\n"])
            if csv_path:
                ds.write_whole(csv_path, [ev.report_csv(report)])
        if write_failed is not None:
            raise write_failed
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
    if cfg.eval_n < 1:  # no ks to check it against here
        raise click.ClickException(f"eval.n ({cfg.eval_n}) must be >= 1")
    _out_file(out_path, "--out")  # before the first row is read
    case_rows = _read_rows(benchmark, "benchmark file")
    result_rows = _read_rows(results_file, "results file")

    errors: list[dict] = []
    parsed = []
    for r in case_rows:
        try:
            parsed.append(ev.EvalCase.from_json(r))
        except (SchemaError, ValueError) as exc:
            errors.append({"case_id": r.get("id"), "error": f"benchmark row: {exc}"})
    cases = _by_id(parsed)
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

    with _writing():
        ds.write_jsonl(triples, out_path, header=_header(cfg))
    click.echo(f"{challenging} challenging cases -> {len(triples)} triples -> {out_path}")
    _finish(errors)


@main.command()
@click.argument("probs_file", type=click.Path(exists=True))
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--beta", type=float, default=None, help="Overrides losses.beta.")
@click.option("--reduction", type=click.Choice(["sum", "mean"]), default=None,
              help="Overrides losses.reduction.")
def losses(probs_file, config_path, beta, reduction):
    """Compute the three training losses from explicit probability records.

    Input rows: {"kind":"pt","token_probs":[...]} for one pretraining sample,
    {"kind":"sft","token_probs":[...]} for one answer's teacher-forced probs,
    {"kind":"dpo","policy_p":..,"ref_p":..,"policy_n":..,"ref_n":..} for one
    preference triple's sequence probabilities. A row of another kind, one
    whose probabilities are missing or outside (0, 1], a pt or sft row with no
    token probability, or a dpo row whose term overflows at ``losses.beta`` is
    a per-row error, and the losses come from the other rows.
    """
    cfg = _load_config(config_path, losses_beta=beta, losses_reduction=reduction)
    token_probs: dict[str, list] = {"pt": [], "sft": []}
    dpo_terms: list[float] = []
    errors: list[dict] = []
    for i, row in enumerate(_read_rows(probs_file, "probabilities file"), start=1):
        kind = row.get("kind")
        fields = ds.LOSS_ROWS.get(kind) if isinstance(kind, str) else None
        error = ds.row_error(row, fields, f"{kind} row") if fields else f"unknown kind {kind!r}"
        if error is None and kind == "dpo":
            term = tm.dpo_term(*map(math.log, map(row.get, fields)), cfg.losses_beta)
            if not math.isfinite(term):
                error = f"dpo term is not finite at losses.beta = {cfg.losses_beta}"
        elif error is None and not row["token_probs"]:
            error = f"{kind} row has an empty token_probs list"
        if error is not None:
            errors.append({"row": i, "error": error})
        elif kind == "dpo":
            dpo_terms.append(term)
        else:
            token_probs[kind].append(row["token_probs"])

    counts = {kind: len(probs) for kind, probs in token_probs.items()}
    out: dict = {"meta": _header(cfg), "counts": {**counts, "dpo": len(dpo_terms)}}
    for kind, probs in token_probs.items():
        if probs:
            out[f"{kind}_loss"] = tm.nll(probs, cfg.losses_reduction)
    if dpo_terms:
        mean = sum(dpo_terms, 0.0) / len(dpo_terms)
        if math.isinf(mean):  # the sum of finite terms overflowed
            mean = sum(t / len(dpo_terms) for t in dpo_terms)
        out["dpo_loss"] = mean
    click.echo(json.dumps(out, indent=2))
    _finish(errors)


if __name__ == "__main__":
    main()
