"""Differential test: the replay cache against its pre-rework copy.

``_cache_reference`` is the cache as it was before its digest shared one
encoder, ``get`` became one binary read and ``put`` wrote compact entries.
Keys must match it exactly, a cache directory it recorded must replay the
same outcomes, and each entry the new ``put`` writes must read back as the
dict the old ``get`` returned for the same ``put``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import _cache_reference as ref
from assertforge import toolchain
from assertforge.errors import TransportFailure
from assertforge.toolchain import (
    CompileOutcome,
    LlmReply,
    LlmRequest,
    ReplayCache,
    Toolchain,
    ToolSettings,
    VerifyOutcome,
    request_digest,
)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(alphabet=st.characters(codec="utf-8")),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
PAYLOADS = st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=6)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(PAYLOADS)
def test_keys_match_reference(payload):
    assert request_digest(payload) == ref.request_digest(payload)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(PAYLOADS, PAYLOADS)
def test_entries_read_back_as_reference_entries(request, response):
    with tempfile.TemporaryDirectory() as new_dir, tempfile.TemporaryDirectory() as old_dir:
        new, old = ReplayCache(new_dir, "record"), ref.ReplayCache(old_dir, "record")
        new.put("k", request, response)
        old.put("k", request, response)
        expected = old.get("k")
        assert new.get("k") == expected
        assert ref.ReplayCache(new_dir).get("k") == expected
        assert ReplayCache(old_dir).get("k") == expected
        raw = (Path(new_dir) / "k.json").read_bytes()
        compact = json.dumps(expected, sort_keys=True, separators=(",", ":"))
        assert raw == compact.encode()


def test_reference_recorded_cache_replays_the_same_outcomes(tmp_path, monkeypatch):
    attempts = []

    def flaky_llm(req):
        attempts.append(req)
        if len(attempts) == 1:
            raise TransportFailure("dropped")
        return "fix: q <= d; — naïve ✓\nsecond line"

    monkeypatch.setattr(toolchain, "request_digest", ref.request_digest)
    recorder = Toolchain(
        ToolSettings(verifier_depth=7),
        cache=ref.ReplayCache(tmp_path, "record"),
        compile_backend=lambda s: CompileOutcome("syntax_error", "línea 3: unexpected ‘;’"),
        verify_backend=lambda s, d: VerifyOutcome("assertion_failed", "FAIL at step 4 ✗", 4),
        llm_backend=flaky_llm,
    )
    src, sva = "module m; endmodule", "assert property (a |-> b);"
    req = LlmRequest(task="solve", prompt_text="répare", nonce="c1:0")
    recorded = (recorder.compile_check(src), recorder.formal_verify(sva), recorder.llm_call(req))
    monkeypatch.undo()
    assert recorded[2] == LlmReply("fix: q <= d; — naïve ✓\nsecond line", 2)
    entries = list(tmp_path.iterdir())
    assert len(entries) == 3
    assert all(e.read_text().startswith('{\n  "request"') for e in entries)

    replayer = Toolchain(
        ToolSettings(mock_dir=str(tmp_path), mock_mode="replay", verifier_depth=7)
    )
    assert (replayer.compile_check(src), replayer.formal_verify(sva), replayer.llm_call(req)) == (
        recorded
    )
