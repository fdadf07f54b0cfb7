"""Differential test: the replay cache against its pre-rework copy, and its
response-only read against parsing the whole entry.

``_cache_reference`` is the cache as it was before its digest shared one
encoder, ``get`` became one binary read and ``put`` wrote compact entries.
Keys must match it exactly, a cache directory it recorded must replay the
same outcomes, and each entry the new ``put`` writes must parse as the dict
the old ``get`` returned for the same ``put``.

``get(key, request)`` decodes only the response when the entry holds exactly
that request. Whatever the entry holds, it must return what
``json.loads(entry)["response"]`` gives, or raise what that raises.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
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
    key, data = request_digest(payload)
    assert key == ref.request_digest(payload)
    assert data == json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(PAYLOADS, PAYLOADS)
def test_entries_read_back_as_reference_entries(request, response):
    with tempfile.TemporaryDirectory() as new_dir, tempfile.TemporaryDirectory() as old_dir:
        new, old = ReplayCache(new_dir, "record"), ref.ReplayCache(old_dir, "record")
        _, request_bytes = request_digest(request)
        new.put("k", request_bytes, response)
        old.put("k", request, response)
        expected = old.get("k")
        raw = (Path(new_dir) / "k.json").read_bytes()
        assert json.loads(raw) == expected
        assert new.get("k", request_bytes) == expected["response"]
        assert ref.ReplayCache(new_dir).get("k") == expected
        assert ReplayCache(old_dir).get("k", request_bytes) == expected["response"]
        compact = json.dumps(expected, sort_keys=True, separators=(",", ":"))
        assert raw == compact.encode()


def test_reference_recorded_cache_replays_the_same_outcomes(tmp_path, monkeypatch):
    attempts = []

    def flaky_llm(req):
        attempts.append(req)
        if len(attempts) == 1:
            raise TransportFailure("dropped")
        return "fix: q <= d; — naïve ✓\nsecond line"

    # Record under the reference key; the reference cache takes the request as a dict.
    monkeypatch.setattr(toolchain, "request_digest", lambda p: (ref.request_digest(p), p))
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


def _same_json(a, b) -> bool:
    """Equal values of equal JSON types: 1, 1.0 and True stay apart."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _reads_as_whole_parse(directory: Path, entry: bytes, request: bytes) -> None:
    (directory / "k.json").write_bytes(entry)
    try:
        want = json.loads(entry.decode("utf-8"))["response"]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        with pytest.raises(type(exc)) as err:
            ReplayCache(directory).get("k", request)
        assert type(err.value) is type(exc), entry
    else:
        assert _same_json(ReplayCache(directory).get("k", request), want), entry


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(PAYLOADS, JSON_VALUES, PAYLOADS, JSON_VALUES)
def test_get_returns_the_response_of_the_whole_parse(request, response, other, other_response):
    _, asked = request_digest(request)
    resp, other_req = _canonical(response), _canonical(other)
    doc = {"request": request, "response": response}
    canonical = b'{"request":' + asked + b',"response":' + resp + b"}"
    entries = [
        canonical,
        canonical + b"\n",
        b'{"request":' + asked + b',"response": ' + resp + b" }",
        json.dumps(doc, indent=2, sort_keys=True).encode(),
        json.dumps({"response": response, "request": request}).encode(),
        canonical[:-1] + b',"extra":1}',
        canonical[:-1] + b',"response":' + _canonical(other_response) + b"}",
        b'{"request":' + other_req + b',"response":' + resp + b"}",
        b'{"request":' + asked + b"}",
        b'{"request":' + asked + b',"response":' + resp + b"}}",
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for entry in entries:
            _reads_as_whole_parse(Path(tmp), entry, asked)
        ref.ReplayCache(tmp, "record").put("k", request, response)
        assert _same_json(ReplayCache(tmp).get("k", asked), response)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(PAYLOADS, PAYLOADS)
def test_every_truncation_of_an_entry_reads_as_the_whole_parse(request, response):
    _, asked = request_digest(request)
    with tempfile.TemporaryDirectory() as tmp:
        ReplayCache(tmp, "record").put("k", asked, response)
        entry = (Path(tmp) / "k.json").read_bytes()
        for end in range(len(entry) + 1):
            _reads_as_whole_parse(Path(tmp), entry[:end], asked)
