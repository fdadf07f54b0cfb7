"""Flat dotted key-value configuration shared by all subcommands.

Format: one `key = value` per line, `#` comments, later keys win.

    corpus.dir = ./corpus
    out.dir = ./out
    seed = 42
    eval.n = 20
    eval.ks = 1,5
    compiler.cmd = iverilog -g2012 -o /dev/null {file}
    verifier.cmd = sby-wrapper {file} {depth}
    mock.dir = ./mocks
    mock.mode = replay
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DomainError
from .toolchain import ToolSettings


def parse_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def _get_int(m: dict, key: str, default: int) -> int:
    try:
        return int(m.get(key, default))
    except ValueError as exc:
        raise DomainError(f"config {key} must be an integer") from exc


def _get_float(m: dict, key: str, default: float) -> float:
    try:
        return float(m.get(key, default))
    except ValueError as exc:
        raise DomainError(f"config {key} must be a number") from exc


def parse_ks(text: str, source: str = "eval.ks") -> tuple[int, ...]:
    """Sorted distinct ks from a comma-separated list; each k must be >= 1."""
    try:
        ks = tuple(sorted({int(k) for k in text.split(",") if k.strip()}))
    except ValueError as exc:
        raise DomainError(f"{source} must be comma-separated integers, got {text!r}") from exc
    if not ks or ks[0] < 1:
        raise DomainError(f"{source} must name one or more ks, each >= 1, got {text!r}")
    return ks


@dataclass
class PipelineConfig:
    corpus_dir: str = "."
    out_dir: str = "out"
    seed: int = 0
    split_fraction: float = 0.9
    mutations_per_unit: int = 3
    bug_source: str = "engine"
    eval_n: int = 20
    eval_ks: tuple[int, ...] = (1, 5)
    eval_mode: str = "textual"
    parallel: int = 1
    tools: ToolSettings = field(default_factory=ToolSettings)
    raw: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 < self.split_fraction < 1.0):
            raise DomainError("split.fraction must lie in (0, 1)")
        if self.eval_n < max(self.eval_ks):
            raise DomainError("eval.n must be >= every k")
        if self.eval_mode not in ("textual", "reverify"):
            raise DomainError(f"unknown eval mode: {self.eval_mode!r}")
        if self.parallel < 1:
            raise DomainError(f"parallel must be >= 1, got {self.parallel}")
        if self.bug_source not in ("engine", "llm"):
            raise DomainError(f"bugs.source must be engine or llm, got {self.bug_source!r}")

    @property
    def config_digest(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @classmethod
    def from_mapping(cls, m: dict[str, str]) -> "PipelineConfig":
        tools = ToolSettings(
            compiler_cmd=m.get("compiler.cmd"),
            verifier_cmd=m.get("verifier.cmd"),
            verifier_depth=_get_int(m, "verifier.depth", 20),
            llm_url=m.get("llm.url"),
            llm_cmd=m.get("llm.cmd"),
            llm_credential_env=m.get("llm.credential_env"),
            llm_temperature=_get_float(m, "llm.temperature", 0.2),
            mock_dir=m.get("mock.dir"),
            mock_mode=m.get("mock.mode", "replay" if m.get("mock.dir") else "off"),
            keep_temp=m.get("keep_temp", "false").lower() in ("1", "true", "yes"),
            scratch_dir=m.get("scratch.dir"),
            timeout_s=_get_float(m, "tool.timeout", 60.0),
            pass_re=m.get("verifier.pass_re", ToolSettings.pass_re),
            fail_re=m.get("verifier.fail_re", ToolSettings.fail_re),
            unknown_re=m.get("verifier.unknown_re", ToolSettings.unknown_re),
            step_re=m.get("verifier.step_re", ToolSettings.step_re),
        )
        return cls(
            corpus_dir=m.get("corpus.dir", "."),
            out_dir=m.get("out.dir", "out"),
            seed=_get_int(m, "seed", 0),
            split_fraction=_get_float(m, "split.fraction", 0.9),
            mutations_per_unit=_get_int(m, "mutations.per_unit", 3),
            bug_source=m.get("bugs.source", "engine"),
            eval_n=_get_int(m, "eval.n", 20),
            eval_ks=parse_ks(m.get("eval.ks", "1,5")),
            eval_mode=m.get("eval.mode", "textual"),
            parallel=_get_int(m, "parallel", 1),
            tools=tools,
            raw=dict(m),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_mapping(parse_config_file(path))
