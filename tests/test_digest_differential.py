"""Differential test: ``request_digest`` builds its bytes field by field, and
a ``Prompt`` keeps its own encoding; they must equal the whole payload's
compact sorted-key JSON. A guard checks that the draws of one eval case
encode each distinct prompt once, and another that ``eval`` encodes each
prompt once at one worker and at four.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import Counter

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assertforge import cli, toolchain
from assertforge import dataset as ds
from assertforge.dataset import EvalCase
from assertforge.evalharness import RETRY_SUFFIXES, collect_responses, solve_prompt
from assertforge.toolchain import LlmRequest, Prompt, Toolchain, ToolSettings, request_digest

# Every code point: non-ASCII, control characters and lone surrogates.
CHARS = st.characters(exclude_categories=())
SHORT = st.text(CHARS, max_size=12)
# Prompt-sized strings.
LONG = st.text(CHARS, min_size=250, max_size=262) | st.text(
    st.sampled_from('a"\\\x1fé\ud800\U0001f600'), min_size=250, max_size=262
)
STRINGS = SHORT | LONG
KEYS = st.text(st.sampled_from('kn"\\\x00\x1f\x7fé 𐏿'), max_size=3) | SHORT
FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 0.2, 1e-7, 1e22])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | STRINGS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=8,
)
PAYLOADS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("compile"), "source": STRINGS}),
    st.fixed_dictionaries({"kind": st.just("verify"), "source": STRINGS, "depth": st.integers()}),
    st.fixed_dictionaries(
        {
            "kind": st.just("llm"),
            "task": st.sampled_from(["spec", "bugs", "sva", "cot", "solve"]),
            "prompt_text": STRINGS | STRINGS.map(Prompt),
            "temperature": FLOATS,
            "nonce": SHORT,
        }
    ),
    st.dictionaries(KEYS, JSON_VALUES, max_size=5),
)


def _whole(payload: dict) -> tuple[str, bytes]:
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest(), data


@settings(max_examples=300, derandomize=True, deadline=None)
@given(PAYLOADS)
@example({"\x1f": None})
@example({'"': "x" * 300, "\\": "\ud800" * 256, "a": float("nan"), "b": float("-inf")})
def test_digest_is_the_whole_payloads_encoding(payload):
    assert request_digest(payload) == _whole(payload)
    assert request_digest(payload) == _whole(payload)  # a Prompt's from its own encoding


@settings(max_examples=100, derandomize=True, deadline=None)
@given(LONG, SHORT, PAYLOADS)
def test_a_shared_or_copied_long_string_encodes_alike(text, nonce, other):
    copy, prompt = "".join(list(text)), Prompt(text)
    assert copy == text and copy is not text
    payload = {"prompt_text": prompt, "again": prompt, "copy": copy, "text": text, "nonce": nonce}
    assert request_digest(payload) == _whole(payload)
    request_digest(other)
    assert request_digest({**payload, "copy": prompt, "prompt_text": copy}) == _whole(payload)


def test_one_cases_draws_encode_each_distinct_prompt_once(tmp_path, monkeypatch):
    case = EvalCase(
        id="case-1",
        source="machine",
        spec="spec",
        buggy_sv_code="module m;\nout = a & b;\nassert(out == c);\nendmodule",
        log="FAIL step 1",
        golden_buggy_line="out = a & b;",
        golden_corrected_line="out = a | b;",
        bug_syntactic="Op",
        bug_relation="Direct",
        length_bin=0,
    )
    prompts = [solve_prompt(case) + suffix for suffix in RETRY_SUFFIXES]
    assert min(map(len, prompts)) >= 256
    replies = iter(["not json", "still not json"] + ['{"buggy_line": "x", "fix": "y", "cot": null}'] * 20)
    requests: list[LlmRequest] = []
    tc = Toolchain(
        ToolSettings(mock_dir=str(tmp_path), mock_mode="record"),
        llm_backend=lambda req: requests.append(req) or next(replies),
    )
    encoded, json_str = Counter(), Counter()
    real = json.encoder.encode_basestring_ascii

    def counting(text):  # how a JSONEncoder encodes each string, nested ones too
        encoded[text] += 1
        return real(text)

    def counting_json_str(text):  # how request_digest encodes each string
        json_str[text] += 1
        return real(text)

    monkeypatch.setattr(json.encoder, "encode_basestring_ascii", counting)
    monkeypatch.setattr(toolchain, "_json_str", counting_json_str)
    result = collect_responses(case, tc.llm_call, n_target=20, judge_fn=lambda resp: "correct")
    monkeypatch.undo()
    assert result.n == 20 and len(requests) == 22
    assert Counter(r.prompt_text for r in requests) == {prompts[0]: 1, prompts[1]: 1, prompts[2]: 20}
    assert [encoded[p] for p in prompts] == [0, 0, 0]  # no whole-payload encoding
    assert [json_str[p] for p in prompts] == [1, 1, 1]  # each prompt encoded once, then reused
    assert sorted(p.stem for p in tmp_path.iterdir()) == sorted(
        _whole({"kind": "llm", "task": "solve", "prompt_text": r.prompt_text,
                "temperature": 0.2, "nonce": r.nonce})[0]
        for r in requests
    )



def test_eval_at_parallel_4_encodes_each_prompt_no_more_often_than_at_parallel_1(
    cli_env, tmp_path, monkeypatch
):
    # Every case uses all three prompts, and four cases are in flight: twelve
    # prompts. Each is encoded once, by its own Prompt, whatever thread asks.
    def solver(req):
        time.sleep(0.001 * (len(req.nonce) % 3))  # cases run at different speeds
        if req.prompt_text.endswith(RETRY_SUFFIXES[-1]):
            return '{"buggy_line": "x", "fix": "y", "cot": null}'
        return "not json"

    monkeypatch.setattr(cli, "Toolchain", lambda settings: Toolchain(settings, llm_backend=solver))
    real, lock = toolchain._json_str, threading.Lock()
    encoded = {}
    for workers in (1, 4):
        counts = encoded[workers] = Counter()

        def counting(text, counts=counts):
            if len(text) >= 256:  # a prompt; the task and nonce are short
                with lock:
                    counts[text] += 1
            return real(text)

        monkeypatch.setattr(toolchain, "_json_str", counting)
        config = tmp_path / f"record{workers}.cfg"
        config.write_text(f"mock.dir = {tmp_path / f'mocks{workers}'}\nmock.mode = record\n"
                          "eval.n = 4\neval.ks = 1\n")
        res = CliRunner().invoke(cli.main, ["eval", str(cli_env["benchmark"]), "--config",
                                            str(config), "--out", str(tmp_path / "report.json"),
                                            "--parallel", str(workers)], catch_exceptions=False)
        assert res.exit_code == 0, res.output
    assert len(encoded[1]) == 3 * len(ds.read_jsonl(cli_env["benchmark"]))
    assert set(encoded[1].values()) == {1}
    assert encoded[4] == encoded[1]
