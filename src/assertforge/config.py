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
from dataclasses import dataclass, field, fields
from pathlib import Path
from urllib.parse import urlsplit

from .errors import DomainError
from .toolchain import ToolSettings


def parse_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 at byte {exc.start}") from exc
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def _int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise DomainError(f"config {key} must be an integer, got {text!r}") from exc


def _float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise DomainError(f"config {key} must be a number, got {text!r}") from exc


def _bool(text: str, key: str) -> bool:
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise DomainError(f"config {key} must be 1, true, yes, 0, false or no, got {text!r}")
    return text.lower() in ("1", "true", "yes")


def _text(text: str, key: str) -> str:
    return text


def _url(text: str, key: str) -> str:
    try:
        parts = urlsplit(text)
        if parts.scheme in ("http", "https") and parts.hostname:
            return text
    except ValueError:  # e.g. an unclosed IPv6 bracket
        pass
    raise DomainError(f"config {key} must be an http or https URL with a host, got {text!r}")


def parse_ks(text: str, source: str = "eval.ks") -> tuple[int, ...]:
    """Sorted distinct ks from a comma-separated list; each k must be >= 1."""
    try:
        ks = tuple(sorted({int(k) for k in text.split(",") if k.strip()}))
    except ValueError as exc:
        raise DomainError(f"{source} must be comma-separated integers, got {text!r}") from exc
    if not ks or ks[0] < 1:
        raise DomainError(f"{source} must name one or more ks, each >= 1, got {text!r}")
    return ks


# Every config key, the field it sets and how its text is read. A key that is
# not listed is an error; a listed key left out keeps its field's default.
_KEYS = {
    "corpus.dir": ("corpus_dir", _text),
    "out.dir": ("out_dir", _text),
    "seed": ("seed", _int),
    "split.fraction": ("split_fraction", _float),
    "mutations.per_unit": ("mutations_per_unit", _int),
    "bugs.source": ("bug_source", _text),
    "eval.n": ("eval_n", _int),
    "eval.ks": ("eval_ks", parse_ks),
    "eval.mode": ("eval_mode", _text),
    "eval.line_only": ("eval_line_only", _bool),
    "parallel": ("parallel", _int),
    # ToolSettings fields
    "compiler.cmd": ("compiler_cmd", _text),
    "verifier.cmd": ("verifier_cmd", _text),
    "verifier.depth": ("verifier_depth", _int),
    "verifier.pass_re": ("pass_re", _text),
    "verifier.fail_re": ("fail_re", _text),
    "verifier.unknown_re": ("unknown_re", _text),
    "verifier.step_re": ("step_re", _text),
    "llm.url": ("llm_url", _url),
    "llm.cmd": ("llm_cmd", _text),
    "llm.credential_env": ("llm_credential_env", _text),
    "llm.temperature": ("llm_temperature", _float),
    "mock.dir": ("mock_dir", _text),
    "mock.mode": ("mock_mode", _text),
    "keep_temp": ("keep_temp", _bool),
    "scratch.dir": ("scratch_dir", _text),
    "tool.timeout": ("timeout_s", _float),
}
_TOOL_FIELDS = {f.name for f in fields(ToolSettings)}
# Keys that cannot change an output byte: where files are read and written,
# the name of the credential's variable, and how the work is scheduled.
_NOT_DIGESTED = frozenset({"corpus.dir", "out.dir", "mock.dir", "scratch.dir",
                           "llm.credential_env", "parallel", "keep_temp"})


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
    eval_line_only: bool = False
    parallel: int = 1
    tools: ToolSettings = field(default_factory=ToolSettings)

    def __post_init__(self):
        if not (0.0 < self.split_fraction < 1.0):
            raise DomainError("split.fraction must lie in (0, 1)")
        if self.eval_n < max(self.eval_ks):
            raise DomainError(f"eval.n ({self.eval_n}) must be >= every k in {list(self.eval_ks)}")
        if self.eval_mode not in ("textual", "reverify"):
            raise DomainError(f"unknown eval mode: {self.eval_mode!r}")
        if self.parallel < 1:
            raise DomainError(f"parallel must be >= 1, got {self.parallel}")
        if self.mutations_per_unit < 1:
            raise DomainError(f"mutations.per_unit must be >= 1, got {self.mutations_per_unit}")
        if self.bug_source not in ("engine", "llm"):
            raise DomainError(f"bugs.source must be engine or llm, got {self.bug_source!r}")

    @property
    def config_digest(self) -> str:
        """Hash of the effective value of every key outside ``_NOT_DIGESTED``."""
        values = {key: getattr(self.tools if name in _TOOL_FIELDS else self, name)
                  for key, (name, _) in _KEYS.items() if key not in _NOT_DIGESTED}
        canon = json.dumps(values, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @classmethod
    def from_mapping(cls, m: dict[str, str], **overrides) -> "PipelineConfig":
        """The config of a key-value mapping, each override that is not None in
        place of its field; both pass the same checks. A DomainError names a bad key."""
        unknown = sorted(m.keys() - _KEYS.keys())
        if unknown:
            raise DomainError(f"unknown config key: {', '.join(unknown)}")
        values = {name: parse(m[key], key) for key, (name, parse) in _KEYS.items() if key in m}
        values.update((name, v) for name, v in overrides.items() if v is not None)
        tools = {name: values.pop(name) for name in _TOOL_FIELDS & values.keys()}
        if tools.get("mock_dir"):
            tools.setdefault("mock_mode", "replay")  # a cache directory alone means replay
        return cls(**values, tools=ToolSettings(**tools))
