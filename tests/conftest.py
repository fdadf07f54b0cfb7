from __future__ import annotations

import sys
from dataclasses import asdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fixture_corpus import write_corpus  # noqa: E402
from mockbackends import fake_compile, fake_llm, make_fake_verify  # noqa: E402

from assertforge.corpus import filter_units, load_corpus_dir  # noqa: E402
from assertforge.toolchain import Toolchain, ToolSettings  # noqa: E402


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory) -> Path:
    return write_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="session")
def corpus_units(corpus_dir):
    return list(load_corpus_dir(corpus_dir))


def select_accepted(units, rows):
    """The units whose filter report row says accepted, in order."""
    accepted = {r["id"] for r in rows if r["status"] == "accepted"}
    return [u for u in units if u.id in accepted]


@pytest.fixture(scope="session")
def accepted_units(corpus_units):
    return select_accepted(corpus_units, filter_units(corpus_units))


@pytest.fixture()
def mock_toolchain(corpus_units):
    """Toolchain whose three backends are deterministic in-process fakes."""
    originals = {u.text for u in corpus_units}
    return Toolchain(
        ToolSettings(),
        compile_backend=fake_compile,
        verify_backend=make_fake_verify(originals),
        llm_backend=fake_llm,
    )


# Seed and frozen goldens for the hermetic CLI end-to-end runs.
E2E_SEED = 20240817
E2E_GOLDEN_FAMILY_COUNTS = {"pt": 2, "bug": 45, "svabug": 27, "eval": 2}
E2E_GOLDEN_C_VECTOR = [20, 0, 20, 20, 20, 11, 0]
E2E_GOLDEN_CHALLENGING = 3
E2E_GOLDEN_TRIPLES = 6


@pytest.fixture(scope="session")
def cli_env(tmp_path_factory):
    """Record the replay cache once; hand tests a ready config + benchmark."""
    import assertforge.dataset as ds
    import assertforge.evalharness as ev
    from assertforge.config import PipelineConfig
    from assertforge.pipeline import run_augment
    from fixture_corpus import HUMAN_EVAL_CASES

    base = tmp_path_factory.mktemp("cli_env")
    corpus = write_corpus(base / "corpus")
    mock_dir = base / "mocks"

    units = list(load_corpus_dir(corpus))
    accepted = select_accepted(units, filter_units(units))
    recorder = Toolchain(
        ToolSettings(mock_dir=str(mock_dir), mock_mode="record"),
        compile_backend=fake_compile,
        verify_backend=make_fake_verify({u.text for u in units}),
        llm_backend=fake_llm,
    )
    result = run_augment(
        accepted, recorder, PipelineConfig(seed=E2E_SEED, mutations_per_unit=3)
    )
    assert not result.errors

    bench_rows = [asdict(c) for c in result.eval_cases] + HUMAN_EVAL_CASES
    cases = [ev.EvalCase.from_json(r) for r in bench_rows]
    for case in cases:
        ev.collect_responses(case, recorder.llm_call, n_target=20)

    benchmark = base / "benchmark.jsonl"
    ds.write_jsonl(bench_rows, benchmark)

    config = base / "assertforge.cfg"
    config.write_text(
        "\n".join(
            [
                f"corpus.dir = {corpus}",
                f"seed = {E2E_SEED}",
                "mutations.per_unit = 3",
                "eval.n = 20",
                "eval.ks = 1,5",
                f"mock.dir = {mock_dir}",
                "mock.mode = replay",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return {"base": base, "corpus": corpus, "config": config, "benchmark": benchmark}
