"""Fast self-test of the benchmark harness at tiny input sizes.

    python3 -m pytest bench/tests -q

Checks that BENCHMARK.json agrees with the harness, that every workload
passes its output checks and emits every metric BENCHMARK.json names in both
modes, that the generator is deterministic, and that the benchmark refuses
to run without the package sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (cls.name, cls.why) for cls in workloads.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in tracing.LAYER_METRICS
    ]


def _results(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted(trace, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    results = _results(trace)
    assert set(results) == set(workloads.WORKLOADS)
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, name
        assert result["correct"] is True and result["failed"] == 0, name
        assert result["attempted"] >= 1, name
        got = result["metrics"]
        assert {k: v["unit"] for k, v in got.items()} == want, name
        for metric, entry in got.items():
            assert math.isfinite(entry["value"]), (name, metric)


def test_generator_is_seeded():
    assert gen.corpus(7, 40).files == gen.corpus(7, 40).files
    assert gen.corpus(7, 40).files != gen.corpus(8, 40).files
    assert gen.units(7, 6).texts == gen.units(7, 6).texts
    assert gen.eval_cases(7, 5) == gen.eval_cases(7, 5)


def test_corpus_labels_cover_every_verdict():
    labels = set(gen.corpus(7, 40).labels.values())
    assert labels == {"accepted", "duplicate", "no_functional_logic", "missing_module_boundary"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "filter-corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
