"""Line normalization and structured-reply parsing shared by dataset and harness.

Two normalization strengths exist on purpose. Golden-solution matching for
CoT validation collapses whitespace runs but never deletes whitespace, so
``out <= in+1`` and ``out <= in + 1`` stay distinct. Response judging uses the
whitespace-insensitive form, so ``out<=in;`` matches the golden ``out <= in;``.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator

_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


def normalize_line(s: str) -> str:
    """Trim, collapse internal whitespace runs to one space, drop one trailing ';'."""
    s = " ".join(s.split())
    if s.endswith(";"):
        s = s[:-1].rstrip()
    return s


def normalize_line_loose(s: str) -> str:
    """Like normalize_line but additionally removes all remaining whitespace."""
    return normalize_line(s).replace(" ", "")


def extract_json_object(text: str) -> dict | None:
    """Best-effort extraction of one JSON object from a model reply.

    Tries, in order and each only if those before fail: the whole text, the
    first fenced code block, and the span from the first '{' to the last '}'.
    Returns None when nothing parses to a dict.
    """
    for cand in _json_candidates(text):
        try:
            obj = json.loads(cand)
        except (ValueError, RecursionError):
            continue
        if isinstance(obj, dict):
            return obj
    return None


def _json_candidates(text: str) -> Iterator[str]:
    yield text
    if fence := _FENCE_RE.search(text):
        yield fence.group(1)
    start, end = text.find("{"), text.rfind("}")
    if 0 <= start < end:
        yield text[start : end + 1]


def parse_solution_reply(text: str) -> dict | None:
    """Parse the structured solve/CoT reply contract.

    The contract is a JSON object carrying the keys "buggy_line", "fix" and
    "cot". Returns {"buggy_line": str, "fix": str, "cot": str | None} or None
    when the reply does not honor the contract.
    """
    return solution_from_object(extract_json_object(text))


def solution_from_object(obj: dict | None) -> dict | None:
    """The solution contract of an already-extracted reply object, or None."""
    if obj is None or not {"buggy_line", "fix", "cot"} <= obj.keys():
        return None
    buggy, fix, cot = obj["buggy_line"], obj["fix"], obj["cot"]
    if not isinstance(buggy, str) or not isinstance(fix, str):
        return None
    if cot is not None and not isinstance(cot, str):
        return None
    return {"buggy_line": buggy, "fix": fix, "cot": cot}
