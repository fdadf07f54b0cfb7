"""The three benchmark workloads: inputs, entry point and output checks.

Each workload generates its inputs in ``setup``, runs the program once per
call of ``run`` (the timed part, which ends when every output is written),
and reads, checks and digests those outputs in ``collect``. All paths are
relative to the repository root, which is the working directory, so output
digests do not depend on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import re
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import click

import fakes
import gen
from assertforge import cli
from assertforge import dataset as ds
from assertforge import evalharness as ev
from assertforge.toolchain import Toolchain, ToolSettings

N_TARGET = 20
KS = (1, 5)
# From this many generated units up, the 90/10 split holds out at least one
# unit for every seed tried, so the augment checks on the test side are not
# vacuous; the self-test's tiny size stays below it.
HOLDOUT_MIN_UNITS = 40


@dataclass
class Outcome:
    """What one repetition produced, read back after the timed part."""

    attempted: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def _read_rows(path: Path) -> list[dict]:
    _, rows = ds.strip_meta_header(ds.read_jsonl(path))
    return rows


def _invoke_cli(args: list[str]) -> tuple[int, str]:
    """Run the click entry point in-process; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            err.write(exc.format_message())
            code = 1
    return code, err.getvalue()


def _cli_errors(stderr: str) -> list[dict]:
    for line in stderr.splitlines():
        if line.startswith('{"errors"'):
            return json.loads(line)["errors"]
    return []


def _single_line_problem(original: str, mutant: str, buggy: str, fixed: str) -> str | None:
    """None when ``mutant`` differs from ``original`` on exactly one line,
    which reads ``buggy`` in the mutant and ``fixed`` in the original."""
    a, b = original.split("\n"), mutant.split("\n")
    if len(a) != len(b):
        return "line count differs"
    diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    if len(diff) != 1:
        return f"{len(diff)} lines differ"
    i = diff[0]
    if b[i] != buggy or a[i] != fixed:
        return "changed line does not match the recorded buggy/corrected line"
    return None


def _strip_assertion(code: str) -> str:
    return "\n".join(l for l in code.split("\n") if not l.strip().startswith("assert property"))


_MODULE_RE = re.compile(r"^module\s+(\w+)", re.MULTILINE)


def _module_name(text: str) -> str:
    """Name of the first module declared at the start of a line of ``text``."""
    return _MODULE_RE.search(text).group(1)


class FilterCorpus:
    name = "filter-corpus"
    # Lexing, loading and dedup in corpus do almost all the work, while
    # mutate, toolchain and evalharness do none: a tokenizer change shows
    # here, and the other workloads bypass it.
    why = ("assertforge filter over 400 generated files, 12-400 lines, with planted "
           "duplicates and rejects; corpus lexing, loading and dedup do the work")
    item = "files"
    sizes = {"full": 400, "tiny": 60}

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.n_files = self.items = self.sizes[size]

    def setup(self, work: Path) -> dict:
        corpus = gen.corpus(self.seed, self.n_files)
        for rel, text in corpus.files.items():
            p = work / "corpus" / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text, encoding="utf-8")
        self.work, self.labels = work, corpus.labels
        return {"files": len(corpus.files), "bytes": corpus.bytes}

    def run(self, tracer) -> None:
        self.code, self.stderr = _invoke_cli(
            ["filter", "--corpus-dir", str(self.work / "corpus"),
             "--out-dir", str(self.work / "out")]
        )

    def collect(self) -> Outcome:
        out = self.work / "out"
        files = [out / "filter_report.jsonl", out / "manifest.jsonl"]
        if self.code != 0 or not all(f.is_file() for f in files):
            return Outcome(self.n_files, self.n_files, "", [f"filter failed: {self.stderr}"])
        rows = _read_rows(files[0])
        got = {r["id"]: r["status"] for r in rows}
        problems = [f"{p}: status {got.get(p)}, planted {want}"
                    for p, want in self.labels.items() if got.get(p) != want]
        if len(got) != len(self.labels):
            problems.append(f"report has {len(got)} rows for {len(self.labels)} files")
        manifest = [r["id"] for r in _read_rows(files[1])]
        if manifest != [r["id"] for r in rows if r["status"] == "accepted"]:
            problems.append("manifest differs from the accepted rows of the report")
        return Outcome(self.n_files, 0, _digest_files(files), problems[:10])

    def reset(self) -> None:
        shutil.rmtree(self.work / "out", ignore_errors=True)


class AugmentRecord:
    name = "augment-record"
    # mutate.enumerate_sites grows faster than linearly with unit length and
    # dominates; toolchain does its cache writes and digests, and dataset
    # runs split and build_records. Short units alone would hide the
    # mutation cost, hence the long tail.
    why = ("assertforge augment over 40 generated units in all 5 length bins, tail to "
           "420 lines, fake tools, cache in record mode; mutation-site enumeration dominates")
    item = "units"
    sizes = {"full": 40, "tiny": 8}

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.n_units = self.items = self.sizes[size]

    def setup(self, work: Path) -> dict:
        generated = gen.units(self.seed, self.n_units)
        (work / "units").mkdir(parents=True, exist_ok=True)
        manifest = []
        for uid, text in generated.texts.items():
            path = work / "units" / uid
            path.write_text(text, encoding="utf-8")
            manifest.append({"id": uid, "path": str(path)})
        gen.write_jsonl(manifest, work / "manifest.jsonl")
        (work / "augment.cfg").write_text(
            f"seed = {self.seed}\nmutations.per_unit = 3\n"
            f"mock.dir = {work / 'cache'}\nmock.mode = record\n",
            encoding="utf-8",
        )
        self.originals = {_module_name(t): t for t in generated.texts.values()}
        self.planted_syntax_errors = len(generated.syntax_errors)
        self.work = work
        return {"units": len(manifest),
                "lines": sum(t.count("\n") for t in generated.texts.values())}

    def run(self, tracer) -> None:
        backends = {
            "compile_backend": fakes.fake_compile,
            "verify_backend": fakes.make_fake_verify(set(self.originals.values())),
            "llm_backend": fakes.fake_llm,
        }
        if tracer is not None:
            backends = {k: tracer.wrap(fn, "toolchain.backend") for k, fn in backends.items()}
        # The CLI builds its Toolchain from the config alone; the fakes are
        # injected by rebinding the name it calls, for this call only.
        real = cli.Toolchain
        cli.Toolchain = functools.partial(real, **backends)
        try:
            w = self.work
            self.code, self.stderr = _invoke_cli(
                ["augment", "--config", str(w / "augment.cfg"),
                 "--manifest", str(w / "manifest.jsonl"), "--out-dir", str(w / "out")]
            )
        finally:
            cli.Toolchain = real

    def collect(self) -> Outcome:
        out = self.work / "out"
        names = ("pt.jsonl", "bug.jsonl", "svabug.jsonl", "sva_eval_machine.jsonl",
                 "split_plan.json", "augment_report.json")
        if not all((out / n).is_file() for n in names):
            return Outcome(self.n_units, self.n_units, "", [f"augment failed: {self.stderr}"])
        errors = _cli_errors(self.stderr)
        problems = [f"augment error: {e}" for e in errors]
        if self.code != 0 and not errors:
            problems.append(f"augment exited {self.code}: {self.stderr}")
        failed = len({e.get("unit_id") for e in errors})
        test_modules = {
            m for b in json.loads((out / "split_plan.json").read_text())["bins"] for m in b["test"]
        }
        pt = len(_read_rows(out / "pt.jsonl"))
        if pt != self.planted_syntax_errors:
            problems.append(f"{pt} pt records for {self.planted_syntax_errors} planted syntax errors")
        checked = [
            ("bug", "buggy_code", "buggy_line", "corrected_line"),
            ("svabug", "buggy_sv_code", "buggy_line", "corrected_line"),
            ("sva_eval_machine", "buggy_sv_code", "golden_buggy_line", "golden_corrected_line"),
        ]
        for family, code_key, buggy_key, fixed_key in checked:
            for row in _read_rows(out / f"{family}.jsonl"):
                code = _strip_assertion(row[code_key])
                module = _module_name(code)
                issue = _single_line_problem(
                    self.originals[module], code, row[buggy_key], row[fixed_key]
                )
                if issue:
                    problems.append(f"{family} mutant of {module}: {issue}")
                in_test = module in test_modules
                if family == "svabug" and in_test:
                    problems.append(f"test-assigned {module} has an svabug record"
                                    + (" with a CoT" if row["cot"] is not None else ""))
                if family == "sva_eval_machine" and not in_test:
                    problems.append(f"benchmark case from train-assigned {module}")
        if not test_modules and self.n_units >= HOLDOUT_MIN_UNITS:
            problems.append("the split held out no unit, so the test-side checks saw nothing")
        entries = sorted((self.work / "cache").iterdir())
        for entry in entries:
            request = json.loads(entry.read_text())["request"]
            if request["kind"] == "llm" and request["task"] == "cot" and "The bug is on line" in (
                request["prompt_text"]
            ):
                module = _module_name(request["prompt_text"])
                if module in test_modules:
                    problems.append(f"test-assigned {module} was sent for a CoT")
        listing = "\n".join(p.name for p in entries)
        digest = hashlib.sha256(
            (_digest_files(out / n for n in names) + listing).encode()
        ).hexdigest()
        return Outcome(self.n_units, failed, digest, problems[:10])

    def reset(self) -> None:
        for sub in ("out", "cache"):
            shutil.rmtree(self.work / sub, ignore_errors=True)


def _pass_at_k(n: int, c: int, k: int) -> float:
    return float(1 - Fraction(math.comb(n - c, k), math.comb(n, k)))


class EvalReplay:
    name = "eval-replay"
    # Toolchain cache reads and digests, JSON parsing in evalharness and
    # textutil, judge, aggregate and JSONL IO do the work; corpus and mutate
    # do nothing. These cache reads sit beside augment-record's writes.
    why = ("assertforge eval, n=20, k=1,5, textual, over 100 generated cases served from "
           "a replay cache recorded in set-up; cache reads, reply parsing and judging")
    item = "responses"
    sizes = {"full": 100, "tiny": 40}

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.n_cases = self.sizes[size]
        self.items = self.n_cases * N_TARGET

    def setup(self, work: Path) -> dict:
        rows = gen.eval_cases(self.seed, self.n_cases)
        work.mkdir(parents=True, exist_ok=True)
        gen.write_jsonl(rows, work / "cases.jsonl")
        recorder = Toolchain(
            ToolSettings(mock_dir=str(work / "mocks"), mock_mode="record"),
            llm_backend=fakes.fake_llm,
        )
        for row in rows:
            ev.collect_responses(ev.EvalCase.from_json(row), recorder.llm_call, n_target=N_TARGET)
        (work / "replay.cfg").write_text(
            f"mock.dir = {work / 'mocks'}\nmock.mode = replay\n", encoding="utf-8"
        )
        self.work = work
        return {"cases": len(rows), "cache_entries": sum(1 for _ in (work / "mocks").iterdir())}

    def run(self, tracer) -> None:
        w = self.work
        self.code, self.stderr = _invoke_cli(
            ["eval", str(w / "cases.jsonl"), "--config", str(w / "replay.cfg"),
             "--out", str(w / "out" / "report.json"), "--results", str(w / "out" / "results.jsonl"),
             "--n", str(N_TARGET), "--k", ",".join(map(str, KS)), "--mode", "textual"]
        )

    def collect(self) -> Outcome:
        out = self.work / "out"
        floor = self.n_cases * N_TARGET
        files = [out / "report.json", out / "results.jsonl"]
        if not all(f.is_file() for f in files):
            return Outcome(floor, floor, "", [f"eval wrote no report: {self.stderr}"])
        errors = _cli_errors(self.stderr)
        problems = [f"eval error: {e}" for e in errors[:5]]
        if self.code != 0 and not errors:
            problems.append(f"eval exited {self.code}: {self.stderr}")
        results = _read_rows(files[1])
        report = json.loads(files[0].read_text())
        if len(results) != self.n_cases or report["case_count"] != self.n_cases:
            problems.append(f"{len(results)} results for {self.n_cases} cases")
        for k in KS:
            want = sum(_pass_at_k(r["n"], r["c"], k) for r in results) / max(1, len(results))
            if abs(report["overall"][f"pass@{k}"] - want) > 1e-12:
                problems.append(f"pass@{k} {report['overall'][f'pass@{k}']} != recomputed {want}")
        hist = report["histogram"]
        if sum(hist) != self.n_cases:
            problems.append(f"histogram sums to {sum(hist)}, not {self.n_cases}")
        if hist[0] == sum(hist):
            problems.append("no case has a correct response")
        responses = sum(len(r["responses"]) for r in results)
        failed = len(errors) * N_TARGET
        return Outcome(responses + failed, failed, _digest_files(files), problems[:10])

    def reset(self) -> None:
        shutil.rmtree(self.work / "out", ignore_errors=True)
        (self.work / "out").mkdir()


WORKLOADS = {w.name: w for w in (FilterCorpus, AugmentRecord, EvalReplay)}
