import json
import sys

import pytest

from assertforge.errors import (
    AttemptsExhausted,
    DomainError,
    EndpointUnreachable,
    TransportFailure,
)
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

PY = sys.executable


def test_compile_mock_ok():
    tc = Toolchain(compile_backend=lambda src: CompileOutcome("ok", ""))
    assert tc.compile_check("module m; endmodule").status == "ok"


def test_compile_unconfigured_tool_error():
    tc = Toolchain()
    out = tc.compile_check("module m; endmodule")
    assert out.status == "tool_error"


def test_compile_subprocess_exit_codes(tmp_path):
    ok_tool = f'{PY} -c "import sys; sys.exit(0)"'
    bad_tool = f'{PY} -c "import sys; sys.stderr.write(chr(101)); sys.exit(1)"'
    tc = Toolchain(ToolSettings(compiler_cmd=ok_tool, scratch_dir=str(tmp_path)))
    assert tc.compile_check("module m; endmodule").status == "ok"
    tc = Toolchain(ToolSettings(compiler_cmd=bad_tool, scratch_dir=str(tmp_path)))
    out = tc.compile_check("module m; assign ; endmodule")
    assert out.status == "syntax_error" and out.stderr_text


def test_compile_spawn_failure_tool_error(tmp_path):
    tc = Toolchain(ToolSettings(compiler_cmd="/no/such/tool {file}", scratch_dir=str(tmp_path)))
    assert tc.compile_check("module m; endmodule").status == "tool_error"


def test_compile_scratch_cleanup(tmp_path):
    tc = Toolchain(
        ToolSettings(compiler_cmd=f'{PY} -c "pass"', scratch_dir=str(tmp_path))
    )
    tc.compile_check("module m; endmodule")
    assert list(tmp_path.iterdir()) == []
    tc.settings.keep_temp = True
    tc.compile_check("module m; endmodule")
    assert len(list(tmp_path.iterdir())) == 1


def test_verify_requires_assertion():
    tc = Toolchain(verify_backend=lambda s, d: VerifyOutcome("proven", "PASS"))
    with pytest.raises(DomainError):
        tc.formal_verify("module m; endmodule")


def test_verify_mock_statuses():
    tc = Toolchain(verify_backend=lambda s, d: VerifyOutcome("proven", "PASS"))
    assert tc.formal_verify("assert(x);").status == "proven"


def test_verify_log_classification_defaults():
    tc = Toolchain()
    fail = tc.classify_verifier_log("BMC: FAIL\nassert violated at step 7\n")
    assert fail.status == "assertion_failed" and fail.failing_step == 7
    assert tc.classify_verifier_log("DONE (PASS, rc=0)").status == "proven"
    assert tc.classify_verifier_log("DONE (UNKNOWN, rc=4)").status == "inconclusive"
    assert tc.classify_verifier_log("", returncode=0).status == "proven"
    assert tc.classify_verifier_log("", returncode=3).status == "inconclusive"


def test_verify_fail_beats_pass():
    tc = Toolchain()
    out = tc.classify_verifier_log("engine PASS\nfinal: FAIL at step 3")
    assert out.status == "assertion_failed"


def test_verify_outcome_invariant():
    with pytest.raises(ValueError):
        VerifyOutcome("proven", "ok", failing_step=3)


def test_verify_subprocess_with_depth(tmp_path):
    script = tmp_path / "verifier.py"
    script.write_text(
        "import sys\n"
        "depth = sys.argv[2]\n"
        "print(f'BMC depth {depth}: FAIL')\n"
        "print(f'violated at step 3')\n"
    )
    tc = Toolchain(
        ToolSettings(verifier_cmd=f"{PY} {script} {{file}} {{depth}}", scratch_dir=str(tmp_path))
    )
    out = tc.formal_verify("assert(x);", depth=17)
    assert out.status == "assertion_failed"
    assert "depth 17" in out.log_text
    assert out.failing_step == 3


def test_llm_request_validation():
    with pytest.raises(ValueError):
        LlmRequest(task="unknown", prompt_text="p")
    with pytest.raises(ValueError):
        LlmRequest(task="solve", prompt_text="p", temperature=3.0)


def test_llm_call_mock_reply():
    tc = Toolchain(llm_backend=lambda req: f"reply to {req.task}")
    reply = tc.llm_call(LlmRequest(task="cot", prompt_text="p"))
    assert reply == LlmReply("reply to cot", 1)


def test_llm_temperature_default_applied():
    seen = {}

    def backend(req):
        seen["temperature"] = req.temperature
        return "ok"

    tc = Toolchain(llm_backend=backend)
    tc.llm_call(LlmRequest(task="solve", prompt_text="p"))
    assert seen["temperature"] == 0.2
    tc.llm_call(LlmRequest(task="solve", prompt_text="p", temperature=0.9))
    assert seen["temperature"] == 0.9


def test_llm_retries_then_succeeds():
    calls = {"n": 0}

    def flaky(req):
        calls["n"] += 1
        if calls["n"] < 3:
            raise TransportFailure("boom")
        return "finally"

    tc = Toolchain(llm_backend=flaky)
    reply = tc.llm_call(LlmRequest(task="spec", prompt_text="p", max_attempts=3))
    assert reply.text == "finally" and reply.attempt_index == 3


def test_llm_attempts_exhausted():
    def always_fail(req):
        raise TransportFailure("down")

    tc = Toolchain(llm_backend=always_fail)
    with pytest.raises(AttemptsExhausted):
        tc.llm_call(LlmRequest(task="spec", prompt_text="p", max_attempts=3))


def test_llm_unconfigured_raises():
    tc = Toolchain()
    with pytest.raises(EndpointUnreachable):
        tc.llm_call(LlmRequest(task="spec", prompt_text="p"))


def test_llm_cmd_backend(tmp_path):
    echo = f"{PY} -c \"import sys,json; d=json.load(sys.stdin); print('got:'+d['task'])\""
    tc = Toolchain(ToolSettings(llm_cmd=echo))
    reply = tc.llm_call(LlmRequest(task="sva", prompt_text="p"))
    assert reply.text == "got:sva"


def test_verify_direct_mutant_fixture_classification():
    # The worked taxonomy pair on a 5-line design. A live verifier is not
    # available here, so SymbiYosys-shaped logs stand in: the mutant's run
    # must classify as assertion_failed, the original's as proven.
    buggy = (
        "module follow (input clk, input in, output reg out);\n"
        "  always @(posedge clk)\n"
        "    out <= in + 1;\n"
        "assert property (out == in);\n"
        "endmodule\n"
    )
    logs = {
        buggy: "SBY engine_0: ## Assert failed in follow: step 2\nSBY DONE (FAIL, rc=2)",
        buggy.replace("in + 1;", "in;"): "SBY engine_0: ## DONE (PASS, rc=0)",
    }
    tc = Toolchain(verify_backend=lambda s, d: Toolchain().classify_verifier_log(logs[s]))
    assert tc.formal_verify(buggy).status == "assertion_failed"
    assert tc.formal_verify(buggy).failing_step == 2
    assert tc.formal_verify(buggy.replace("in + 1;", "in;")).status == "proven"


# -- record / replay ----------------------------------------------------------


def test_record_then_replay_identical(tmp_path):
    settings = ToolSettings(mock_dir=str(tmp_path / "cache"))
    recorder = Toolchain(
        ToolSettings(**{**settings.__dict__, "mock_mode": "record"}),
        compile_backend=lambda s: CompileOutcome("syntax_error", "diag"),
        verify_backend=lambda s, d: VerifyOutcome("assertion_failed", "FAIL step 2", 2),
        llm_backend=lambda r: "recorded text",
    )
    src = "module m; endmodule"
    sva = "assert(a);"
    c1 = recorder.compile_check(src)
    v1 = recorder.formal_verify(sva, depth=5)
    l1 = recorder.llm_call(LlmRequest(task="cot", prompt_text="p", nonce="n1"))

    replayer = Toolchain(ToolSettings(**{**settings.__dict__, "mock_mode": "replay"}))
    assert replayer.compile_check(src) == c1
    assert replayer.formal_verify(sva, depth=5) == v1
    assert replayer.llm_call(LlmRequest(task="cot", prompt_text="p", nonce="n1")) == l1


def test_replay_miss_behaviour(tmp_path):
    cache = ReplayCache(tmp_path / "cache", mode="record")
    tc = Toolchain(ToolSettings(mock_dir=str(tmp_path / "cache"), mock_mode="replay"))
    assert tc.compile_check("nothing recorded").status == "tool_error"
    assert tc.formal_verify("assert(x);", depth=3).status == "tool_error"
    with pytest.raises(EndpointUnreachable):
        tc.llm_call(LlmRequest(task="spec", prompt_text="missing"))


def test_replay_malformed_entry_is_a_miss(tmp_path):
    recorder = Toolchain(
        ToolSettings(mock_dir=str(tmp_path / "cache"), mock_mode="record"),
        compile_backend=lambda s: CompileOutcome("ok", ""),
        verify_backend=lambda s, d: VerifyOutcome("proven", "PASS"),
        llm_backend=lambda r: "recorded text",
    )
    req = LlmRequest(task="spec", prompt_text="p")
    recorder.compile_check("module m; endmodule")
    recorder.formal_verify("assert(x);", depth=3)
    recorder.llm_call(req)
    entries = sorted((tmp_path / "cache").iterdir())
    assert len(entries) == 3
    for entry in entries:  # truncate every entry mid-object
        entry.write_text(entry.read_text()[:20])
    cache = ReplayCache(tmp_path / "cache")
    with pytest.raises(ValueError):
        cache.get(entries[0].stem)
    assert cache.get("0" * 64) is None

    tc = Toolchain(ToolSettings(mock_dir=str(tmp_path / "cache"), mock_mode="replay"))
    compiled = tc.compile_check("module m; endmodule")
    verified = tc.formal_verify("assert(x);", depth=3)
    assert compiled.status == verified.status == "tool_error"
    keys = {e.stem for e in entries}
    for text in (compiled.stderr_text, verified.log_text):
        assert "malformed replay cache entry" in text
        assert any(key in text for key in keys)
    with pytest.raises(EndpointUnreachable, match="malformed replay cache entry"):
        tc.llm_call(req)


def test_has_verifier_truth_table(tmp_path):
    assert not Toolchain().has_verifier
    assert Toolchain(ToolSettings(verifier_cmd="sby {file}")).has_verifier
    assert Toolchain(verify_backend=lambda s, d: VerifyOutcome("proven")).has_verifier
    assert Toolchain(cache=ReplayCache(tmp_path, mode="replay")).has_verifier


def test_replay_nonce_distinguishes_draws(tmp_path):
    counter = {"n": 0}

    def numbered(req):
        counter["n"] += 1
        return f"draw {counter['n']}"

    rec = Toolchain(
        ToolSettings(mock_dir=str(tmp_path / "c"), mock_mode="record"), llm_backend=numbered
    )
    texts = [
        rec.llm_call(LlmRequest(task="solve", prompt_text="same", nonce=f"k:{i}")).text
        for i in range(3)
    ]
    assert texts == ["draw 1", "draw 2", "draw 3"]
    rep = Toolchain(ToolSettings(mock_dir=str(tmp_path / "c"), mock_mode="replay"))
    again = [
        rep.llm_call(LlmRequest(task="solve", prompt_text="same", nonce=f"k:{i}")).text
        for i in range(3)
    ]
    assert again == texts


def test_request_digest_stability():
    a = request_digest({"kind": "llm", "task": "spec", "prompt_text": "p"})
    b = request_digest({"task": "spec", "kind": "llm", "prompt_text": "p"})
    assert a == b
    assert a != request_digest({"kind": "llm", "task": "spec", "prompt_text": "q"})
