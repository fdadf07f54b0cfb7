import errno
import http.server
import json
import os
import sys
import threading

import pytest

from assertforge import toolchain
from assertforge.errors import (
    AssertForgeError,
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


@pytest.mark.parametrize("scratch", ["missing", "file"])
def test_an_unusable_scratch_dir_is_a_tool_error(tmp_path, scratch):
    (tmp_path / "file").write_text("")
    tc = Toolchain(ToolSettings(compiler_cmd=f'{PY} -c "pass"',
                                scratch_dir=str(tmp_path / scratch)))
    out = tc.compile_check("module m; endmodule")
    assert out.status == "tool_error" and out.stderr_text.startswith("tool spawn failed: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("timeout", [0, -1, float("nan"), float("inf")])
def test_a_timeout_that_is_not_a_positive_number_is_rejected(timeout):
    with pytest.raises(DomainError, match="tool.timeout must be a positive number"):
        ToolSettings(timeout_s=timeout)


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
        ToolSettings(
            verifier_cmd=f"{PY} {script} {{file}} {{depth}}",
            verifier_depth=17,
            scratch_dir=str(tmp_path),
        )
    )
    out = tc.formal_verify("assert(x);")
    assert out.status == "assertion_failed"
    assert "depth 17" in out.log_text
    assert out.failing_step == 3


@pytest.mark.parametrize("step_re, log", [
    (r"[Ss]tep\s+(\S+)", "FAIL at step 3:"),  # captures "3:", which int rejects
    (ToolSettings.step_re, "FAIL at step " + "9" * 5000),  # past int's digit limit
], ids=["non-digit-capture", "past-digit-limit"])
def test_verify_unreadable_step_is_no_step(tmp_path, step_re, log):
    script = tmp_path / "verifier.py"
    script.write_text(f"print({log!r})\n")
    tc = Toolchain(ToolSettings(verifier_cmd=f"{PY} {script} {{file}}", step_re=step_re,
                                scratch_dir=str(tmp_path)))
    out = tc.formal_verify("assert(x);")
    assert out.status == "assertion_failed" and out.failing_step is None


def test_llm_request_validation():
    with pytest.raises(ValueError):
        LlmRequest(task="unknown", prompt_text="p")
    with pytest.raises(ValueError):
        ToolSettings(llm_temperature=3.0)


def test_llm_call_mock_reply():
    tc = Toolchain(llm_backend=lambda req: f"reply to {req.task}")
    reply = tc.llm_call(LlmRequest(task="cot", prompt_text="p"))
    assert reply == LlmReply("reply to cot", 1)


def test_llm_temperature_default_applied():
    echo = f"{PY} -c \"import sys,json; print(json.load(sys.stdin)['temperature'])\""
    tc = Toolchain(ToolSettings(llm_cmd=echo))
    assert tc.llm_call(LlmRequest(task="solve", prompt_text="p")).text == "0.2"
    tc = Toolchain(ToolSettings(llm_cmd=echo, llm_temperature=0.9))
    assert tc.llm_call(LlmRequest(task="solve", prompt_text="p")).text == "0.9"


def test_llm_retries_then_succeeds():
    calls = {"n": 0}

    def flaky(req):
        calls["n"] += 1
        if calls["n"] < 3:
            raise TransportFailure("boom")
        return "finally"

    tc = Toolchain(llm_backend=flaky)
    reply = tc.llm_call(LlmRequest(task="spec", prompt_text="p"))
    assert reply.text == "finally" and reply.attempt_index == 3


def test_llm_attempts_exhausted():
    def always_fail(req):
        raise TransportFailure("down")

    tc = Toolchain(llm_backend=always_fail)
    with pytest.raises(AttemptsExhausted):
        tc.llm_call(LlmRequest(task="spec", prompt_text="p"))


def test_llm_unconfigured_raises():
    tc = Toolchain()
    with pytest.raises(EndpointUnreachable):
        tc.llm_call(LlmRequest(task="spec", prompt_text="p"))


def test_llm_cmd_backend(tmp_path):
    echo = f"{PY} -c \"import sys,json; d=json.load(sys.stdin); print('got:'+d['task'])\""
    tc = Toolchain(ToolSettings(llm_cmd=echo))
    reply = tc.llm_call(LlmRequest(task="sva", prompt_text="p"))
    assert reply.text == "got:sva"


class _ScriptedEndpoint(http.server.BaseHTTPRequestHandler):
    """Answers each POST with the server's (status, body) and records the
    request's headers and JSON body."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.seen.append((dict(self.headers), body))
        status, reply = self.server.reply
        payload = reply if isinstance(reply, bytes) else json.dumps(reply).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def endpoint():
    server = http.server.HTTPServer(("127.0.0.1", 0), _ScriptedEndpoint)
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _url_toolchain(server, monkeypatch):
    monkeypatch.setenv("ASSERTFORGE_TEST_KEY", "sekrit")
    url = f"http://127.0.0.1:{server.server_address[1]}/v1/complete"
    return Toolchain(
        ToolSettings(llm_url=url, llm_credential_env="ASSERTFORGE_TEST_KEY",
                     llm_temperature=0.7, timeout_s=5)
    )


def test_llm_url_reply(endpoint, monkeypatch):
    endpoint.reply = (200, {"text": "hello"})
    reply = _url_toolchain(endpoint, monkeypatch).llm_call(LlmRequest(task="spec", prompt_text="p"))
    assert reply == LlmReply("hello", 1)
    [(headers, body)] = endpoint.seen
    assert headers["Authorization"] == "Bearer sekrit"
    assert body == {"task": "spec", "prompt": "p", "temperature": 0.7}


def test_llm_url_error_status_exhausts_attempts(endpoint, monkeypatch):
    endpoint.reply = (503, {"text": "busy"})
    tc = _url_toolchain(endpoint, monkeypatch)
    with pytest.raises(AttemptsExhausted, match="endpoint returned 503"):
        tc.llm_call(LlmRequest(task="spec", prompt_text="p"))
    assert len(endpoint.seen) == 3


def test_llm_url_reply_that_is_not_an_object_is_a_transport_failure(endpoint, monkeypatch):
    endpoint.reply = (200, ["x"])
    tc = _url_toolchain(endpoint, monkeypatch)
    with pytest.raises(AttemptsExhausted, match="malformed endpoint reply"):
        tc.llm_call(LlmRequest(task="spec", prompt_text="p"))
    assert len(endpoint.seen) == 3


def test_llm_url_reply_nested_too_deep_is_a_transport_failure(endpoint, monkeypatch):
    endpoint.reply = (200, b"[" * 200_000)
    tc = _url_toolchain(endpoint, monkeypatch)
    with pytest.raises(AttemptsExhausted, match="malformed endpoint reply"):
        tc.llm_call(LlmRequest(task="spec", prompt_text="p"))
    assert len(endpoint.seen) == 3


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
    settings = ToolSettings(mock_dir=str(tmp_path / "cache"), verifier_depth=5)
    recorder = Toolchain(
        ToolSettings(**{**settings.__dict__, "mock_mode": "record"}),
        compile_backend=lambda s: CompileOutcome("syntax_error", "diag"),
        verify_backend=lambda s, d: VerifyOutcome("assertion_failed", "FAIL step 2", 2),
        llm_backend=lambda r: "recorded text",
    )
    src = "module m; endmodule"
    sva = "assert(a);"
    c1 = recorder.compile_check(src)
    v1 = recorder.formal_verify(sva)
    l1 = recorder.llm_call(LlmRequest(task="cot", prompt_text="p", nonce="n1"))

    replayer = Toolchain(ToolSettings(**{**settings.__dict__, "mock_mode": "replay"}))
    assert replayer.compile_check(src) == c1
    assert replayer.formal_verify(sva) == v1
    assert replayer.llm_call(LlmRequest(task="cot", prompt_text="p", nonce="n1")) == l1


def test_each_adapter_call_encodes_its_request_once(tmp_path, monkeypatch):
    kinds = []
    real_digest = toolchain.request_digest

    def counting_digest(payload):
        kinds.append(payload["kind"])
        return real_digest(payload)

    monkeypatch.setattr(toolchain, "request_digest", counting_digest)
    settings = ToolSettings(mock_dir=str(tmp_path), mock_mode="record", verifier_depth=3)
    recorder = Toolchain(
        settings,
        compile_backend=lambda s: CompileOutcome("syntax_error", "línea 3: ‘;’"),
        verify_backend=lambda s, d: VerifyOutcome("assertion_failed", "FAIL step 2 ✗", 2),
        llm_backend=lambda r: "fix — naïve\nsecond line",
    )
    req = LlmRequest(task="solve", prompt_text="répare", nonce="c:0")

    def calls(tc):
        return tc.compile_check("module m; endmodule"), tc.formal_verify("assert(x);"), tc.llm_call(req)

    recorded = calls(recorder)
    assert kinds == ["compile", "verify", "llm"]
    entries = list(tmp_path.iterdir())
    assert len(entries) == 3
    for entry in entries:
        data = entry.read_bytes()
        assert data == json.dumps(json.loads(data), sort_keys=True, separators=(",", ":")).encode()
    kinds.clear()
    replayer = Toolchain(ToolSettings(**{**settings.__dict__, "mock_mode": "replay"}))
    assert calls(replayer) == recorded
    assert kinds == ["compile", "verify", "llm"]


def test_replay_miss_behaviour(tmp_path):
    cache = ReplayCache(tmp_path / "cache", mode="record")
    tc = Toolchain(
        ToolSettings(mock_dir=str(tmp_path / "cache"), mock_mode="replay", verifier_depth=3)
    )
    assert tc.compile_check("nothing recorded").status == "tool_error"
    assert tc.formal_verify("assert(x);").status == "tool_error"
    with pytest.raises(EndpointUnreachable):
        tc.llm_call(LlmRequest(task="spec", prompt_text="missing"))


def test_replay_malformed_entry_is_a_miss(tmp_path):
    recorder = Toolchain(
        ToolSettings(mock_dir=str(tmp_path / "cache"), mock_mode="record", verifier_depth=3),
        compile_backend=lambda s: CompileOutcome("ok", ""),
        verify_backend=lambda s, d: VerifyOutcome("proven", "PASS"),
        llm_backend=lambda r: "recorded text",
    )
    req = LlmRequest(task="spec", prompt_text="p")
    recorder.compile_check("module m; endmodule")
    recorder.formal_verify("assert(x);")
    recorder.llm_call(req)
    entries = sorted((tmp_path / "cache").iterdir())
    assert len(entries) == 3
    for entry in entries:  # truncate every entry mid-object
        entry.write_text(entry.read_text()[:20])
    cache = ReplayCache(tmp_path / "cache")
    with pytest.raises(ValueError):
        cache.get(entries[0].stem, b"{}")
    assert cache.get("0" * 64, b"{}") is None

    tc = Toolchain(
        ToolSettings(mock_dir=str(tmp_path / "cache"), mock_mode="replay", verifier_depth=3)
    )
    compiled = tc.compile_check("module m; endmodule")
    verified = tc.formal_verify("assert(x);")
    assert compiled.status == verified.status == "tool_error"
    keys = {e.stem for e in entries}
    for text in (compiled.stderr_text, verified.log_text):
        assert "malformed replay cache entry" in text
        assert any(key in text for key in keys)
    with pytest.raises(EndpointUnreachable, match="malformed replay cache entry"):
        tc.llm_call(req)


def test_replay_directory_at_entry_is_a_miss(tmp_path):
    key, request = request_digest({"kind": "compile", "source": "module m; endmodule"})
    (tmp_path / f"{key}.json").mkdir()
    assert ReplayCache(tmp_path).get(key, request) is None
    tc = Toolchain(ToolSettings(mock_dir=str(tmp_path), mock_mode="replay"))
    outcome = tc.compile_check("module m; endmodule")
    assert outcome == CompileOutcome("tool_error", f"replay cache miss: {key}")


@pytest.mark.parametrize("content", [b"", b'{"response": {"status": "ok", "stderr_text": "\xff"}}'])
def test_replay_empty_or_non_utf8_entry_is_a_malformed_miss(tmp_path, content):
    key, request = request_digest({"kind": "compile", "source": "module m; endmodule"})
    (tmp_path / f"{key}.json").write_bytes(content)
    with pytest.raises(ValueError):
        ReplayCache(tmp_path).get(key, request)
    tc = Toolchain(ToolSettings(mock_dir=str(tmp_path), mock_mode="replay"))
    outcome = tc.compile_check("module m; endmodule")
    assert outcome.status == "tool_error"
    assert outcome.stderr_text.startswith("malformed replay cache entry")
    assert outcome.stderr_text.endswith(key)


def test_replay_entry_nested_too_deep_is_a_malformed_miss(tmp_path):
    key, _ = request_digest({"kind": "compile", "source": "module m; endmodule"})
    (tmp_path / f"{key}.json").write_bytes(b'{"response": ' + b"[" * 200_000)
    tc = Toolchain(ToolSettings(mock_dir=str(tmp_path), mock_mode="replay"))
    outcome = tc.compile_check("module m; endmodule")
    assert outcome.status == "tool_error"
    assert outcome.stderr_text.startswith("malformed replay cache entry")
    assert outcome.stderr_text.endswith(key)


@pytest.mark.parametrize(
    "response",
    [{"text": 5, "attempt_index": 1}, {"text": None}, {"text": ["t"]},
     {"text": "t", "attempt_index": "1"}, {"text": "t", "attempt_index": True}, ["t", 1]],
    ids=["int-text", "null-text", "list-text", "string-attempt", "bool-attempt", "list"],
)
def test_replay_llm_entry_of_the_wrong_type_is_a_malformed_miss(tmp_path, response):
    req = LlmRequest(task="solve", prompt_text="p", nonce="c:0")
    recorder = Toolchain(ToolSettings(mock_dir=str(tmp_path), mock_mode="record"),
                         llm_backend=lambda r: "recorded text")
    recorder.llm_call(req)
    [entry] = tmp_path.iterdir()
    doc = json.loads(entry.read_text())
    entry.write_text(json.dumps({**doc, "response": response}))
    tc = Toolchain(ToolSettings(mock_dir=str(tmp_path), mock_mode="replay"))
    with pytest.raises(EndpointUnreachable, match="malformed replay cache entry") as err:
        tc.llm_call(req)
    assert str(err.value).endswith(entry.stem)


@pytest.mark.parametrize(
    "kind, response",
    [("compile", {"status": "ok", "stderr_text": 5}),
     ("compile", {"status": "syntax_error", "stderr_text": None}),
     ("verify", {"status": "assertion_failed", "log_text": 5, "failing_step": 2}),
     ("verify", {"status": "proven", "log_text": ["PASS"]}),
     ("verify", {"status": "assertion_failed", "log_text": "FAIL", "failing_step": "2"}),
     ("verify", {"status": "assertion_failed", "log_text": "FAIL", "failing_step": True}),
     ("verify", {"status": "assertion_failed", "log_text": "FAIL", "failing_step": 2.0})],
    ids=["int-stderr", "null-stderr", "int-log", "list-log", "string-step", "bool-step",
         "float-step"],
)
def test_replay_tool_entry_of_the_wrong_type_is_a_malformed_miss(tmp_path, kind, response):
    source = "module m; assert(x); endmodule"
    recorder = Toolchain(ToolSettings(mock_dir=str(tmp_path), mock_mode="record"),
                         compile_backend=lambda s: CompileOutcome("ok", ""),
                         verify_backend=lambda s, d: VerifyOutcome("proven", "PASS"))
    call = {"compile": Toolchain.compile_check, "verify": Toolchain.formal_verify}[kind]
    call(recorder, source)
    [entry] = tmp_path.iterdir()
    doc = json.loads(entry.read_text())
    entry.write_text(json.dumps({**doc, "response": response}))
    outcome = call(Toolchain(ToolSettings(mock_dir=str(tmp_path), mock_mode="replay")), source)
    text = outcome.stderr_text if kind == "compile" else outcome.log_text
    assert outcome.status == "tool_error"
    assert text.startswith("malformed replay cache entry")
    assert text.endswith(entry.stem)


def test_a_failed_cache_write_is_a_package_error_naming_the_key(tmp_path, monkeypatch):
    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "replace", full_disk)
    tc = Toolchain(ToolSettings(mock_dir=str(tmp_path), mock_mode="record"),
                   compile_backend=lambda s: CompileOutcome("ok", ""))
    key, _ = request_digest({"kind": "compile", "source": "module m; endmodule"})
    with pytest.raises(AssertForgeError) as err:
        tc.compile_check("module m; endmodule")
    no_space = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert str(err.value) == f"replay cache write failed: {key}: {no_space}"
    assert list(tmp_path.iterdir()) == []


def test_two_writers_on_one_dir_do_not_collide(tmp_path, monkeypatch):
    first = ReplayCache(tmp_path, mode="record")
    second = ReplayCache(tmp_path, mode="record")
    real_replace = os.replace

    def second_put_inside_first_replace(src, dst):
        monkeypatch.setattr(os, "replace", real_replace)
        second.put("k", b'{"by":"second"}', {"n": 2})
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", second_put_inside_first_replace)
    first.put("k", b'{"by":"first"}', {"n": 1})
    assert [p.name for p in tmp_path.iterdir()] == ["k.json"]
    entry = json.loads((tmp_path / "k.json").read_bytes())
    assert entry == {"request": {"by": "first"}, "response": {"n": 1}}
    assert first.get("k", b'{"by":"first"}') == {"n": 1}


def test_failed_put_leaves_no_staging_file(tmp_path, monkeypatch):
    def full_disk(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    with pytest.raises(OSError, match="no space"):
        ReplayCache(tmp_path, mode="record").put("k", b"{}", {})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", ["record", "replay"])
def test_a_cache_dir_that_is_a_file_is_rejected(tmp_path, mode):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    with pytest.raises(DomainError, match=f"mock.dir {not_a_dir} is not a directory"):
        Toolchain(ToolSettings(mock_dir=str(not_a_dir), mock_mode=mode))


def test_a_cache_dir_under_a_file_misses_in_replay(tmp_path):
    (tmp_path / "file").write_text("")
    tc = Toolchain(ToolSettings(mock_dir=str(tmp_path / "file" / "cache"), mock_mode="replay"))
    assert tc.compile_check("module m; endmodule").status == "tool_error"
    with pytest.raises(DomainError, match="cannot be created"):
        ReplayCache(tmp_path / "file" / "cache", mode="record")


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
    a, a_bytes = request_digest({"kind": "llm", "task": "spec", "prompt_text": "p"})
    b, b_bytes = request_digest({"task": "spec", "kind": "llm", "prompt_text": "p"})
    assert (a, a_bytes) == (b, b_bytes)
    assert a_bytes == b'{"kind":"llm","prompt_text":"p","task":"spec"}'
    assert a != request_digest({"kind": "llm", "task": "spec", "prompt_text": "q"})[0]
