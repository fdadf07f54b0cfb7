"""Benchmark harness: drive a solver over assertion-failure cases, judge the
responses, compute pass@k exactly, and aggregate the report breakdowns.

pass@k follows the unbiased estimator 1 - C(n-c, k)/C(n, k), evaluated with
exact integer arithmetic; C(m, k) is zero when m < k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .dataset import BIN_LABELS, BUG_TYPE_ORDER, EvalCase, GoldenSolution
from .errors import (
    DomainError,
    InsufficientValidResponses,
    ReverifyUnavailable,
)
from .textutil import extract_json_object, normalize_line_loose, solution_from_object
from .toolchain import LlmRequest, Toolchain

SOLVE_PROMPT = """You are debugging a SystemVerilog design whose assertion fails.

Specification:
{spec}

Buggy SystemVerilog code:
{code}

Verification log:
{log}

Identify the single buggy line and propose a fix. Respond with one JSON object
with exactly these keys: "buggy_line", "fix", "cot".
"""

# Appended after repeated non-JSON replies; index = number of invalid replies
# so far, clamped to the last entry.
RETRY_SUFFIXES = (
    "",
    "\nYour previous reply was not a valid JSON object. Reply with JSON only.",
    "\nReply with ONLY the JSON object: no prose, no code fences.",
)


@dataclass(frozen=True)
class ModelResponse:
    raw_text: str
    parsed: dict | None  # {"buggy_line","fix","cot"} when the contract held
    valid_json: bool

    @classmethod
    def from_raw(cls, raw_text: str) -> "ModelResponse":
        obj = extract_json_object(raw_text)
        return cls(raw_text=raw_text, parsed=solution_from_object(obj), valid_json=obj is not None)


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    n: int  # valid responses collected
    c: int  # valid responses judged correct
    responses: tuple[tuple[ModelResponse, str], ...]

    def __post_init__(self):
        if not (0 <= self.c <= self.n):
            raise ValueError("need 0 <= c <= n")


def pass_at_k(n: int, c: int, k: int) -> float:
    """Exact unbiased pass@k for one problem: 1 - C(n-c, k)/C(n, k)."""
    if n < 1 or not (0 <= c <= n) or not (1 <= k <= n):
        raise DomainError(f"invalid pass@k arguments: n={n}, c={c}, k={k}")
    return float(1 - Fraction(math.comb(n - c, k), math.comb(n, k)))


def solve_prompt(case: EvalCase, invalid_so_far: int = 0) -> str:
    base = SOLVE_PROMPT.format(spec=case.spec, code=case.buggy_sv_code, log=case.log)
    return base + RETRY_SUFFIXES[min(invalid_so_far, len(RETRY_SUFFIXES) - 1)]


def judge(
    response: ModelResponse,
    golden: GoldenSolution,
    mode: str = "textual",
    *,
    line_only: bool = False,
    toolchain: Toolchain | None = None,
    buggy_code: str | None = None,
) -> str:
    """Judge one parsed response against the golden solution.

    Textual mode compares whitespace-insensitively; both the buggy line and
    the fix must match (buggy line alone with ``line_only``). Reverify mode
    additionally applies the fix and requires the verifier to prove the
    patched design.
    """
    if response.parsed is None:
        raise DomainError("judge requires a parsed response")
    if mode not in ("textual", "reverify"):
        raise DomainError(f"unknown judge mode: {mode!r}")
    line_ok = normalize_line_loose(response.parsed["buggy_line"]) == normalize_line_loose(
        golden.buggy_line
    )
    fix_ok = normalize_line_loose(response.parsed["fix"]) == normalize_line_loose(
        golden.corrected_line
    )
    textual = line_ok and (line_only or fix_ok)
    if mode == "textual":
        return "correct" if textual else "incorrect"
    if toolchain is None or not toolchain.has_verifier:
        raise ReverifyUnavailable("reverify mode needs a configured verifier")
    if buggy_code is None:
        raise DomainError("reverify mode needs the buggy code")
    if not textual:
        return "incorrect"
    patched = _apply_fix(buggy_code, response.parsed["buggy_line"], response.parsed["fix"])
    if patched is None:
        return "incorrect"
    outcome = toolchain.formal_verify(patched)
    return "correct" if outcome.status == "proven" else "incorrect"


def _apply_fix(code: str, buggy_line: str, fix: str) -> str | None:
    """Replace the (whitespace-insensitively) matching line with the fix."""
    want = normalize_line_loose(buggy_line)
    lines = code.split("\n")
    for i, line in enumerate(lines):
        if normalize_line_loose(line) == want:
            indent = line[: len(line) - len(line.lstrip())]
            lines[i] = indent + fix.strip()
            return "\n".join(lines)
    return None


def collect_responses(
    case: EvalCase,
    solver: Callable[[LlmRequest], object],
    n_target: int = 20,
    max_rounds: int | None = None,
    judge_fn: Callable[[ModelResponse], str] | None = None,
) -> CaseResult:
    """Query the solver until ``n_target`` valid-JSON responses are collected.

    Invalid responses are kept in the result (verdict "invalid") but do not
    count toward n. Each call carries a distinct nonce so record/replay mocks
    key repeated draws separately. Raises InsufficientValidResponses when
    ``max_rounds`` solver calls (default 3 * n_target) were not enough.
    """
    if n_target < 1:
        raise DomainError("n_target must be positive")
    if max_rounds is None:
        max_rounds = 3 * n_target
    if judge_fn is None:
        judge_fn = lambda resp: judge(resp, case.golden)  # noqa: E731
    responses: list[tuple[ModelResponse, str]] = []
    valid = correct = invalid = 0
    calls = 0
    while valid < n_target and calls < max_rounds:
        req = LlmRequest(
            task="solve",
            prompt_text=solve_prompt(case, invalid),
            nonce=f"{case.id}:{calls}",
        )
        reply = solver(req)
        calls += 1
        resp = ModelResponse.from_raw(reply.text)
        if resp.valid_json:
            valid += 1
            verdict = judge_fn(resp) if resp.parsed is not None else "incorrect"
            if verdict == "correct":
                correct += 1
            responses.append((resp, verdict))
        else:
            invalid += 1
            responses.append((resp, "invalid"))
    result = CaseResult(case.id, n=valid, c=correct, responses=tuple(responses))
    if valid < n_target:
        raise InsufficientValidResponses(case.id, valid, n_target, result)
    return result


@dataclass(frozen=True)
class PassAtKReport:
    case_count: int
    ks: tuple[int, ...]
    overall: dict[int, float]
    by_source: dict[str, dict[int, float]]
    by_bug_type: dict[str, dict[int, float]]
    by_length_bin: dict[str, dict[int, float]]
    histogram: tuple[int, ...]

    def to_json(self) -> dict:
        def rates(m: Mapping[int, float]) -> dict:
            return {f"pass@{k}": m[k] for k in self.ks}

        return {
            "case_count": self.case_count,
            "ks": list(self.ks),
            "overall": rates(self.overall),
            "by_source": {s: rates(v) for s, v in self.by_source.items()},
            "by_bug_type": {b: rates(v) for b, v in self.by_bug_type.items()},
            "by_length_bin": {b: rates(v) for b, v in self.by_length_bin.items()},
            "histogram": list(self.histogram),
        }

    def to_csv(self) -> str:
        header = "table,key," + ",".join(f"pass@{k}" for k in self.ks)
        lines = [header]

        def emit(table: str, key: str, m: Mapping[int, float]):
            lines.append(f"{table},{key}," + ",".join(f"{m[k]:.6f}" for k in self.ks))

        emit("overall", "all", self.overall)
        for s, v in self.by_source.items():
            emit("source", s, v)
        for b, v in self.by_bug_type.items():
            emit("bug_type", b, v)
        for b, v in self.by_length_bin.items():
            emit("length_bin", b, v)
        return "\n".join(lines) + "\n"


def _mean_rates(results: Sequence[CaseResult], ks: Sequence[int]) -> dict[int, float]:
    return {
        k: sum(pass_at_k(r.n, r.c, k) for r in results) / len(results) for k in ks
    }


def aggregate(
    results: Sequence[CaseResult],
    cases: Iterable[EvalCase],
    ks: Sequence[int] = (1, 5),
    n_target: int = 20,
) -> PassAtKReport:
    """Fold per-case results into the report: overall and per-category rates
    plus the histogram of c values (n_target + 1 buckets)."""
    results = list(results)
    if not results:
        raise DomainError("cannot aggregate an empty result list")
    ks = tuple(sorted(set(int(k) for k in ks)))
    kmax = max(ks)
    by_id = {c.id: c for c in cases}
    for r in results:
        if r.case_id not in by_id:
            raise DomainError(f"result references unknown case: {r.case_id}")
        if r.n < kmax:
            raise DomainError(f"case {r.case_id}: n={r.n} < max k={kmax}")
        if r.c > n_target:
            raise DomainError(f"case {r.case_id}: c={r.c} exceeds histogram range")

    groups_source: dict[str, list[CaseResult]] = {}
    groups_bug: dict[str, list[CaseResult]] = {}
    groups_bin: dict[str, list[CaseResult]] = {}
    histogram = [0] * (n_target + 1)
    for r in results:
        case = by_id[r.case_id]
        groups_source.setdefault(case.source, []).append(r)
        groups_bug.setdefault(case.bug_type.relation, []).append(r)
        groups_bug.setdefault(case.bug_type.syntactic, []).append(r)
        groups_bin.setdefault(BIN_LABELS[case.length_bin], []).append(r)
        histogram[r.c] += 1

    by_source = {s: _mean_rates(groups_source[s], ks) for s in sorted(groups_source)}
    by_bug_type = {
        b: _mean_rates(groups_bug[b], ks) for b in BUG_TYPE_ORDER if b in groups_bug
    }
    by_length_bin = {
        b: _mean_rates(groups_bin[b], ks) for b in BIN_LABELS if b in groups_bin
    }
    return PassAtKReport(
        case_count=len(results),
        ks=ks,
        overall=_mean_rates(results, ks),
        by_source=by_source,
        by_bug_type=by_bug_type,
        by_length_bin=by_length_bin,
        histogram=tuple(histogram),
    )
