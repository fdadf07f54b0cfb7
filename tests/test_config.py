"""PipelineConfig: one construction from file keys and flag overrides, and a
config_digest over the effective settings."""

import re
from pathlib import Path

import pytest

from assertforge.config import _KEYS, _NOT_DIGESTED, PipelineConfig
from assertforge.errors import DomainError

# A value for every key, and a different one for each.
BASE = {
    "corpus.dir": "corpus",
    "out.dir": "out",
    "seed": "42",
    "split.fraction": "0.9",
    "mutations.per_unit": "3",
    "bugs.source": "engine",
    "eval.n": "20",
    "eval.ks": "1,5",
    "eval.mode": "textual",
    "eval.line_only": "false",
    "parallel": "1",
    "compiler.cmd": "iverilog -g2012 -o /dev/null {file}",
    "verifier.cmd": "./run_bmc.sh {file} {depth}",
    "verifier.depth": "20",
    "verifier.pass_re": r"\bPASS(?:ED)?\b",
    "verifier.fail_re": r"\bFAIL(?:ED)?\b",
    "verifier.unknown_re": r"\bUNKNOWN\b",
    "verifier.step_re": r"[Ss]tep\s+(\d+)",
    "llm.url": "https://example.invalid/v1/complete",
    "llm.cmd": "./my_llm_shim.py",
    "llm.credential_env": "LLM_API_KEY",
    "llm.temperature": "0.2",
    "mock.dir": "mocks",
    "mock.mode": "replay",
    "keep_temp": "false",
    "scratch.dir": "scratch",
    "tool.timeout": "60",
}
OTHER = {
    "corpus.dir": "corpus2",
    "out.dir": "out2",
    "seed": "43",
    "split.fraction": "0.8",
    "mutations.per_unit": "4",
    "bugs.source": "llm",
    "eval.n": "21",
    "eval.ks": "1,3",
    "eval.mode": "reverify",
    "eval.line_only": "true",
    "parallel": "4",
    "compiler.cmd": "iverilog {file}",
    "verifier.cmd": "./run_bmc.sh {file}",
    "verifier.depth": "30",
    "verifier.pass_re": "PASS",
    "verifier.fail_re": "FAIL",
    "verifier.unknown_re": "UNKNOWN",
    "verifier.step_re": r"step (\d+)",
    "llm.url": "https://example.invalid/v2/complete",
    "llm.cmd": "./other_shim.py",
    "llm.credential_env": "OTHER_KEY",
    "llm.temperature": "0.5",
    "mock.dir": "mocks2",
    "mock.mode": "record",
    "keep_temp": "true",
    "scratch.dir": "scratch2",
    "tool.timeout": "30",
}


def test_the_tables_name_every_key():
    assert BASE.keys() == OTHER.keys() == _KEYS.keys()
    assert _NOT_DIGESTED < _KEYS.keys()


@pytest.mark.parametrize("key", sorted(_KEYS))
def test_a_key_changes_the_digest_unless_it_cannot_change_an_output(key):
    base = PipelineConfig.from_mapping(BASE)
    changed = PipelineConfig.from_mapping({**BASE, key: OTHER[key]})
    if key in _NOT_DIGESTED:
        assert changed.config_digest == base.config_digest
    else:
        assert changed.config_digest != base.config_digest


# Each flag of the CLI, as a config key and as the override it passes.
FLAGS = [
    ("corpus.dir", "elsewhere", {"corpus_dir": "elsewhere"}),
    ("out.dir", "elsewhere", {"out_dir": "elsewhere"}),
    ("eval.n", "10", {"eval_n": 10}),
    ("eval.ks", "1,3", {"eval_ks": (1, 3)}),
    ("eval.mode", "reverify", {"eval_mode": "reverify"}),
    ("eval.line_only", "true", {"eval_line_only": True}),
    ("parallel", "4", {"parallel": 4}),
    ("keep_temp", "true", {"keep_temp": True}),
]


@pytest.mark.parametrize("key, text, override", FLAGS, ids=[f[0] for f in FLAGS])
def test_a_key_and_its_flag_give_the_same_config(key, text, override):
    from_key = PipelineConfig.from_mapping({key: text})
    from_flag = PipelineConfig.from_mapping({}, **override)
    assert from_key == from_flag
    assert from_key.config_digest == from_flag.config_digest


def test_flags_are_laid_over_the_file_before_the_checks():
    assert PipelineConfig.from_mapping({"eval.n": "3"}, eval_n=20).eval_n == 20
    assert PipelineConfig.from_mapping({"eval.ks": "1"}, eval_n=3).eval_n == 3
    with pytest.raises(DomainError, match=r"eval.n \(3\) must be >= every k in \[1, 5\]"):
        PipelineConfig.from_mapping({}, eval_n=3)
    with pytest.raises(DomainError, match="parallel must be >= 1"):
        PipelineConfig.from_mapping({"parallel": "2"}, parallel=0)


@pytest.mark.parametrize("text", ["-5", "0"])
def test_mutations_per_unit_below_one_is_rejected(text):
    with pytest.raises(DomainError, match=f"^mutations.per_unit must be >= 1, got {text}$"):
        PipelineConfig.from_mapping({"mutations.per_unit": text})
    assert PipelineConfig.from_mapping({"mutations.per_unit": "1"}).mutations_per_unit == 1


def test_the_default_digest_is_pinned():
    # Changes only when a digested key is added or a default changes.
    assert PipelineConfig.from_mapping({}).config_digest == "7a9ff141024843ff"
    assert PipelineConfig().config_digest == "7a9ff141024843ff"


def test_the_readme_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```", 2)[1]
    assert "These are all the keys there are." in section.split("```", 3)[2]
    # A commented-out key, such as the alternative `# llm.cmd = ...`, counts.
    keys = {m[1] for m in re.finditer(r"^#?\s*([\w.]+) = ", block, re.M)}
    assert keys == _KEYS.keys()
