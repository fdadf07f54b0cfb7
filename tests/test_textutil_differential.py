"""Differential test: ``extract_json_object`` against a frozen copy of the
version that built every candidate before it tried the whole text.

The candidates, their order and the first-dict-wins rule must be unchanged,
so the two return equal objects for every reply; a reply that is one JSON
object must not reach the fence search.
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assertforge import textutil

_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


def reference_extract_json_object(text: str) -> dict | None:
    """Frozen copy of the eager version. Do not edit it to follow textutil."""
    candidates = [text]
    fence = _FENCE_RE.search(text)
    if fence:
        candidates.append(fence.group(1))
    start, end = text.find("{"), text.rfind("}")
    if 0 <= start < end:
        candidates.append(text[start : end + 1])
    for cand in candidates:
        try:
            obj = json.loads(cand)
        except (ValueError, RecursionError):
            continue
        if isinstance(obj, dict):
            return obj
    return None


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
PROSE = st.text(st.sampled_from("ab {}[]`\n:,\"json"), max_size=10)


@st.composite
def replies(draw):
    body = json.dumps(draw(JSON_VALUES | st.dictionaries(st.text(max_size=4), JSON_VALUES)))
    shape = draw(st.sampled_from(["bare", "fenced", "braced", "two", "nested", "cut"]))
    before, after = draw(PROSE), draw(PROSE)
    if shape == "fenced":
        return f"{before}```{draw(st.sampled_from(['json', '']))}\n{body}\n```{after}"
    if shape == "braced":
        return f"{before}{body}{after}"
    if shape == "two":
        other = json.dumps(draw(JSON_VALUES))
        return f"{before}```json\n{other}\n```{after}{body}"
    if shape == "nested":
        depth = draw(st.sampled_from([1, 50, 5_000]))
        return before + '{"a":' * depth + body + "}" * depth + after
    if shape == "cut":
        return body[: draw(st.integers(0, len(body)))]
    return body


@settings(max_examples=400, derandomize=True, deadline=None)
@given(replies() | st.text(max_size=40))
@example('{"buggy_line": "x", "fix": "y", "cot": null}')
@example("[1, 2]")
@example('```json\n[1]\n``` then {"a": 1}')
@example('{"a": ' + "[" * 200_000 + "} trailing")
@example("Here: ```\n{\"a\": 1}\n``` and {\"b\": 2}")
def test_extract_json_object_matches_the_eager_version(text):
    assert json.dumps(textutil.extract_json_object(text)) == json.dumps(
        reference_extract_json_object(text)
    )


def test_a_reply_that_is_one_object_skips_the_fence_search(monkeypatch):
    class NoSearch:
        def search(self, text):
            raise AssertionError("fence search ran")

    monkeypatch.setattr(textutil, "_FENCE_RE", NoSearch())
    assert textutil.extract_json_object('{"fix": "```x```"}') == {"fix": "```x```"}
    with pytest.raises(AssertionError, match="fence search ran"):
        textutil.extract_json_object('[{"fix": "x"}]')
