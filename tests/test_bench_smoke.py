"""Smoke test of the benchmark harness against the package as it stands.

Every workload of ``bench/workloads.py`` sets up, runs and checks its outputs
at the tiny size, and one traced repetition of each workload that goes
through the replay cache runs the tracing hooks on ``ReplayCache.get`` and
``put``. A package change that breaks a benchmark run fails here, in the
tier-1 suite. ``bench/`` is imported read-only: no bytecode is written there.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("workloads"), importlib.import_module("tracing")


def _clean(outcome) -> None:
    assert outcome.problems == [] and outcome.failed == 0, outcome.problems
    assert outcome.attempted >= 1 and outcome.digest


@pytest.mark.parametrize("name", ["filter-corpus", "augment-record", "eval-replay"])
def test_workload_runs_clean_at_tiny_size(bench, tmp_path, name):
    workloads, _ = bench
    wl = workloads.WORKLOADS[name](5, "tiny")
    wl.setup(tmp_path / "in")
    wl.reset()
    wl.run(None)
    _clean(wl.collect())


def _traced(bench, tmp_path, name):
    workloads, tracing = bench
    wl = workloads.WORKLOADS[name](5, "tiny")
    wl.setup(tmp_path / "in")
    wl.reset()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.run(tracer)
    finally:
        tracer.uninstall()
    _clean(wl.collect())
    assert all(math.isfinite(v) for v in tracing.layer_readings(tracer, 1.0).values())
    tool_calls = sum(tracer.calls(span) for span in tracing.TOOL_CALLS)
    assert tracer.calls("toolchain.request_digest") == tool_calls > 0
    return tracer


def test_traced_augment_record_counts_every_byte_it_puts(bench, tmp_path):
    tracer = _traced(bench, tmp_path, "augment-record")
    entries = list((tmp_path / "in" / "cache").iterdir())
    assert tracer.calls("toolchain.cache.put") == len(entries) > 0
    assert tracer.counter("toolchain.cache.put.bytes") == sum(e.stat().st_size for e in entries)
    assert tracer.calls("toolchain.cache.get") == 0


def test_traced_eval_replay_counts_every_read_as_a_hit(bench, tmp_path):
    tracer = _traced(bench, tmp_path, "eval-replay")
    reads = tracer.calls("toolchain.cache.get")
    assert reads == tracer.calls("toolchain.llm_call") > 0
    assert tracer.counter("toolchain.cache.get.hits") == reads
    assert tracer.calls("toolchain.cache.put") == 0
