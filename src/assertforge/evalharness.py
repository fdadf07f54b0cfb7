"""Benchmark harness: drive a solver over assertion-failure cases, judge the
responses, compute pass@k exactly, and aggregate the report breakdowns.

Each judged reply is kept as one ``Judged(raw_text, valid_json, verdict)``,
which is also the response row of ``results.jsonl``; the parsed reply lives
only until it is judged.

pass@k follows the unbiased estimator 1 - C(n-c, k)/C(n, k), evaluated with
exact integer arithmetic as (C(n, k) - C(n-c, k))/C(n, k), whose one true
division rounds correctly; C(m, k) is zero when m < k.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .dataset import BIN_LABELS, BUG_TYPE_ORDER, SOURCES, EvalCase
from .errors import AssertForgeError, DomainError
from .textutil import extract_json_object, normalize_line_loose, solution_from_object
from .toolchain import LlmRequest, Prompt, Toolchain

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


class Judged(NamedTuple):
    """One judged reply; the fields are the results row's response keys."""

    raw_text: str
    valid_json: bool
    verdict: str  # "correct", "incorrect" or "invalid"


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    n: int  # valid responses collected
    c: int  # valid responses judged correct
    responses: tuple[Judged, ...]

    def __post_init__(self):
        if not (0 <= self.c <= self.n):
            raise ValueError("need 0 <= c <= n")


def pass_at_k(n: int, c: int, k: int) -> float:
    """Exact unbiased pass@k for one problem: 1 - C(n-c, k)/C(n, k)."""
    if n < 1 or not (0 <= c <= n) or not (1 <= k <= n):
        raise DomainError(f"invalid pass@k arguments: n={n}, c={c}, k={k}")
    total = math.comb(n, k)
    return (total - math.comb(n - c, k)) / total


def solve_prompt(case: EvalCase) -> str:
    return SOLVE_PROMPT.format(spec=case.spec, code=case.buggy_sv_code, log=case.log)


def judge(
    response: ModelResponse,
    case: EvalCase,
    mode: str = "textual",
    *,
    line_only: bool = False,
    toolchain: Toolchain | None = None,
) -> str:
    """Judge one parsed response against the case's golden lines.

    Textual mode compares whitespace-insensitively; both the buggy line and
    the fix must match (buggy line alone with ``line_only``). Reverify mode
    additionally applies the fix to the case's ``buggy_sv_code`` and requires
    the verifier to prove the patched design. It raises DomainError when
    ``toolchain`` has no verifier, and AssertForgeError with the log on a
    verifier ``tool_error``, since that says nothing about the reply.
    """
    if response.parsed is None:
        raise DomainError("judge requires a parsed response")
    if mode not in ("textual", "reverify"):
        raise DomainError(f"unknown judge mode: {mode!r}")
    golden_line, golden_fix = case.loose_golden
    line_ok = normalize_line_loose(response.parsed["buggy_line"]) == golden_line
    textual = line_ok and (line_only or normalize_line_loose(response.parsed["fix"]) == golden_fix)
    if mode == "textual":
        return "correct" if textual else "incorrect"
    if toolchain is None or not toolchain.has_verifier:
        raise DomainError("reverify mode needs a configured verifier")
    if not textual:
        return "incorrect"
    patched = _apply_fix(case.buggy_sv_code, response.parsed["buggy_line"], response.parsed["fix"])
    if patched is None:
        return "incorrect"
    outcome = toolchain.formal_verify(patched)
    if outcome.status == "tool_error":
        raise AssertForgeError(f"verifier tool error: {outcome.log_text}")
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
    judge_fn: Callable[[ModelResponse], str] | None = None,
) -> CaseResult:
    """Query the solver until ``n_target`` valid-JSON responses are collected.

    Each reply is kept as its ``Judged`` triple; invalid ones (verdict
    "invalid") do not count toward n. Each call carries a distinct nonce so
    record/replay mocks key repeated draws separately. Raises
    AssertForgeError, naming the case and the valid count, when 3 * n_target
    solver calls were not enough.
    """
    if n_target < 1:
        raise DomainError("n_target must be positive")
    if judge_fn is None:
        judge_fn = lambda resp: judge(resp, case)  # noqa: E731
    base = solve_prompt(case)
    prompts = [Prompt(base + suffix) for suffix in RETRY_SUFFIXES]  # by invalid replies so far
    responses: list[Judged] = []
    valid = correct = invalid = 0
    calls = 0
    while valid < n_target and calls < 3 * n_target:
        req = LlmRequest(
            task="solve",
            prompt_text=prompts[min(invalid, len(prompts) - 1)],
            nonce=f"{case.id}:{calls}",
        )
        reply = solver(req)
        calls += 1
        resp = ModelResponse.from_raw(reply.text)
        if resp.valid_json:
            valid += 1
            verdict = judge_fn(resp) if resp.parsed is not None else "incorrect"
            correct += verdict == "correct"
        else:
            invalid += 1
            verdict = "invalid"
        responses.append(Judged(resp.raw_text, resp.valid_json, verdict))
    if valid < n_target:
        raise AssertForgeError(f"case {case.id}: collected {valid} of {n_target} valid responses")
    return CaseResult(case.id, n=valid, c=correct, responses=tuple(responses))


def aggregate(
    results: Sequence[CaseResult],
    cases: Iterable[EvalCase],
    ks: Sequence[int] = (1, 5),
    n_target: int = 20,
) -> dict:
    """Fold per-case results into the report document: overall and
    per-category pass@k rates plus the histogram of c values (n_target + 1
    buckets)."""
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

    def rates(group: Sequence[CaseResult]) -> dict[str, float]:
        return {f"pass@{k}": sum(pass_at_k(r.n, r.c, k) for r in group) / len(group) for k in ks}

    groups: dict[tuple[str, str], list[CaseResult]] = {}
    histogram = [0] * (n_target + 1)
    for r in results:
        case = by_id[r.case_id]
        for key in (("by_source", case.source), ("by_bug_type", case.bug_relation),
                    ("by_bug_type", case.bug_syntactic),
                    ("by_length_bin", BIN_LABELS[case.length_bin])):
            groups.setdefault(key, []).append(r)
        histogram[r.c] += 1

    report = {"case_count": len(results), "ks": list(ks), "overall": rates(results)}
    for table, keys in (("by_source", sorted(SOURCES)), ("by_bug_type", BUG_TYPE_ORDER),
                        ("by_length_bin", BIN_LABELS)):
        report[table] = {key: rates(groups[table, key]) for key in keys if (table, key) in groups}
    report["histogram"] = histogram
    return report


def report_csv(report: dict) -> str:
    """The report's rates as CSV rows ``table,key,pass@k...``, overall first."""
    names = [f"pass@{k}" for k in report["ks"]]
    tables = {"overall": {"all": report["overall"]}, "source": report["by_source"],
              "bug_type": report["by_bug_type"], "length_bin": report["by_length_bin"]}
    rows = [[table, key, *(f"{rates[name]:.6f}" for name in names)]
            for table, group in tables.items() for key, rates in group.items()]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([["table", "key", *names], *rows])
    return out.getvalue()
