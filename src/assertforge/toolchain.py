"""Adapters for the three external services: compiler, verifier, LLM endpoint.

All three adapters are content-agnostic and replayable: every call is keyed
by a digest of its request and goes through one record/replay path
(``Toolchain._cached``), which either records live outcomes into a
ReplayCache or serves them back hermetically. Each request is encoded once:
its key hashes the bytes a record stores and a replay matches. In replay
mode a missing or undecodable entry is a miss: ``tool_error`` for the
compiler and verifier, ``EndpointUnreachable`` for the LLM. In record mode a
cache write that fails raises ``AssertForgeError`` naming the key. Tool
commands are user-configurable templates with {file} and {depth}
placeholders; nothing here hard-depends on a particular compiler or verifier.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import tempfile
import threading
import urllib.error
import urllib.request
from dataclasses import asdict, dataclass
from http.client import HTTPException
from pathlib import Path
from typing import Callable, TypeVar

from .errors import (
    AssertForgeError,
    AttemptsExhausted,
    DomainError,
    EndpointUnreachable,
    TransportFailure,
)

COMPILE_STATUSES = ("ok", "syntax_error", "tool_error")
VERIFY_STATUSES = ("proven", "assertion_failed", "inconclusive", "tool_error")
LLM_TASKS = frozenset({"spec", "bugs", "sva", "cot", "solve"})
LLM_MAX_ATTEMPTS = 3  # transport attempts per LLM call

T = TypeVar("T")


@dataclass(frozen=True)
class CompileOutcome:
    status: str
    stderr_text: str = ""

    def __post_init__(self):
        if self.status not in COMPILE_STATUSES:
            raise ValueError(f"unknown compile status: {self.status!r}")
        if type(self.stderr_text) is not str:
            raise ValueError(f"stderr_text must be a string, got {self.stderr_text!r}")


@dataclass(frozen=True)
class VerifyOutcome:
    status: str
    log_text: str = ""
    failing_step: int | None = None

    def __post_init__(self):
        if self.status not in VERIFY_STATUSES:
            raise ValueError(f"unknown verify status: {self.status!r}")
        if type(self.log_text) is not str:
            raise ValueError(f"log_text must be a string, got {self.log_text!r}")
        if self.failing_step is not None and type(self.failing_step) is not int:
            raise ValueError(f"failing_step must be an integer, got {self.failing_step!r}")
        if self.failing_step is not None and self.status != "assertion_failed":
            raise ValueError("failing_step only accompanies assertion_failed")


@dataclass(frozen=True)
class LlmRequest:
    task: str
    prompt_text: str
    # Distinguishes repeated draws of the same prompt in the replay cache.
    nonce: str = ""

    def __post_init__(self):
        if self.task not in LLM_TASKS:
            raise ValueError(f"unknown llm task: {self.task!r}")


@dataclass(frozen=True)
class LlmReply:
    text: str
    attempt_index: int


@dataclass
class ToolSettings:
    """Configuration for the three adapters. All fields optional; missing tools
    surface as tool_error or endpoint errors, unusable values as DomainError."""

    compiler_cmd: str | None = None
    verifier_cmd: str | None = None
    verifier_depth: int = 20
    llm_url: str | None = None
    llm_cmd: str | None = None
    llm_credential_env: str | None = None
    llm_temperature: float = 0.2
    mock_dir: str | None = None
    mock_mode: str = "off"  # off | replay | record
    keep_temp: bool = False
    scratch_dir: str | None = None
    timeout_s: float = 60.0
    pass_re: str = r"\bPASS(?:ED)?\b"
    fail_re: str = r"\bFAIL(?:ED)?\b"
    unknown_re: str = r"\bUNKNOWN\b"
    step_re: str = r"[Ss]tep\s+(\d+)"

    def __post_init__(self):
        if self.mock_mode not in ("off", "replay", "record"):
            raise DomainError(f"mock.mode must be off, replay or record, got {self.mock_mode!r}")
        if not 0.0 <= self.llm_temperature <= 2.0:
            raise DomainError(f"llm.temperature must lie in [0, 2], got {self.llm_temperature}")
        if self.verifier_depth < 1:
            raise DomainError(f"verifier.depth must be >= 1, got {self.verifier_depth}")
        if not 0 < self.timeout_s < math.inf:
            raise DomainError(f"tool.timeout must be a positive number, got {self.timeout_s}")
        for name in ("compiler_cmd", "verifier_cmd", "llm_cmd"):
            try:
                shlex.split(getattr(self, name) or "")
            except ValueError as exc:  # an unclosed quote
                raise DomainError(f"{name.replace('_', '.')} is not a command line: {exc}") from exc
        for name in ("pass_re", "fail_re", "unknown_re", "step_re"):
            try:
                re.compile(getattr(self, name))
            except re.error as exc:
                raise DomainError(f"verifier.{name} is not a regular expression: {exc}") from exc
        if re.compile(self.step_re).groups < 1:
            raise DomainError("verifier.step_re needs a group that captures the failing step")


# One shared C encoder; json.dumps would build a new one on every call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODER = json.JSONDecoder()


def request_digest(payload: dict) -> tuple[str, bytes]:
    """Stable content key for one adapter request, and the canonical bytes hashed."""
    data = _CANONICAL.encode(payload).encode()
    return hashlib.sha256(data).hexdigest(), data


class ReplayCache:
    """Digest-keyed store of adapter outcomes, one ``<key>.json`` file per
    request holding compact sorted-key JSON ``{"request", "response"}``.
    ``get`` decodes only the response of an entry with the asked request.

    Safe for concurrent readers. Each write is atomic: it is staged under a
    random ``.tmp`` name that no other writer, in this process or another,
    can hold, then moved onto ``<key>.json`` with ``os.replace``, so a reader
    sees the old entry or the new one, never part of one. Writes through one
    instance are also serialized by its lock.
    """

    def __init__(self, directory: str | Path, mode: str = "replay"):
        if mode not in ("replay", "record"):
            raise ValueError(f"unknown cache mode: {mode!r}")
        self.dir = Path(directory)
        self.mode = mode
        self._prefix = os.path.join(directory, "")
        self._write_lock = threading.Lock()
        if self.dir.exists() and not self.dir.is_dir():
            raise DomainError(f"mock.dir {directory} is not a directory")
        if mode == "record":
            try:
                self.dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise DomainError(f"mock.dir {directory} cannot be created: {exc}") from exc

    def get(self, key: str, request: bytes) -> object:
        """The stored response, or None when there is no entry. A malformed
        entry raises ValueError, KeyError, TypeError or RecursionError."""
        try:
            with open(self._prefix + key + ".json", "rb") as f:
                data = f.read()
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            return None
        head = b'{"request":%b,"response":' % request
        if data.startswith(head):
            text = data[len(head):].decode("utf-8")
            with contextlib.suppress(ValueError):  # not one value and "}": parse it whole
                response, end = _DECODER.raw_decode(text)
                if text[end:] == "}":
                    return response
        return json.loads(data.decode("utf-8"))["response"]

    def put(self, key: str, request: bytes, response: dict) -> None:
        data = b'{"request":%b,"response":%b}' % (request, _CANONICAL.encode(response).encode())
        tmp = f"{self._prefix}{key}.{os.urandom(8).hex()}.tmp"
        with self._write_lock:
            try:
                with open(tmp, "xb") as f:
                    f.write(data)
                os.replace(tmp, self._prefix + key + ".json")
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise


class Toolchain:
    """Bundles the three adapters behind one configured object.

    Backends may be injected as callables (used by tests and by record-mode
    fixtures); otherwise the configured command templates / endpoint run.
    """

    def __init__(
        self,
        settings: ToolSettings | None = None,
        cache: ReplayCache | None = None,
        compile_backend: Callable[[str], CompileOutcome] | None = None,
        verify_backend: Callable[[str, int], VerifyOutcome] | None = None,
        llm_backend: Callable[[LlmRequest], str] | None = None,
    ):
        self.settings = settings or ToolSettings()
        if cache is None and self.settings.mock_dir and self.settings.mock_mode != "off":
            cache = ReplayCache(self.settings.mock_dir, self.settings.mock_mode)
        self.cache = cache
        self._compile_backend = compile_backend
        self._verify_backend = verify_backend
        self._llm_backend = llm_backend

    @property
    def has_verifier(self) -> bool:
        """True when formal_verify can reach a verifier: a replay cache, a
        verifier command or an injected backend."""
        return (
            self.cache is not None
            or self.settings.verifier_cmd is not None
            or self._verify_backend is not None
        )

    def _cached(
        self,
        request: dict,
        live: Callable[[], T],
        decode: Callable[[dict], T],
        miss: Callable[[str], T],
    ) -> T:
        """The one record/replay path shared by all three adapters.

        Replay mode answers from the cache only; a missing or undecodable
        entry goes to ``miss`` with a message naming the key. Otherwise
        ``live`` runs, and record mode stores its outcome; an ``OSError``
        from that write becomes an ``AssertForgeError`` naming the key.
        """
        if self.cache is None:
            return live()
        key, request_bytes = request_digest(request)
        if self.cache.mode == "replay":
            try:
                response = self.cache.get(key, request_bytes)
                if response is not None:
                    return decode(response)
                reason = "replay cache miss"
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                reason = f"malformed replay cache entry ({exc})"
            return miss(f"{reason}: {key}")
        outcome = live()
        try:
            self.cache.put(key, request_bytes, asdict(outcome))
        except OSError as exc:
            raise AssertForgeError(f"replay cache write failed: {key}: {exc}") from exc
        return outcome

    # -- compiler -----------------------------------------------------------

    def compile_check(self, source: str) -> CompileOutcome:
        if not source:
            raise DomainError("cannot compile empty source")
        return self._cached(
            {"kind": "compile", "source": source},
            lambda: self._compile_raw(source),
            lambda resp: CompileOutcome(**resp),
            lambda msg: CompileOutcome("tool_error", msg),
        )

    def _compile_raw(self, source: str) -> CompileOutcome:
        if self._compile_backend is not None:
            return self._compile_backend(source)
        if not self.settings.compiler_cmd:
            return CompileOutcome("tool_error", "no compiler configured")
        rc, out, err = self._run_tool(self.settings.compiler_cmd, source)
        if rc is None:
            return CompileOutcome("tool_error", err)
        if rc == 0:
            return CompileOutcome("ok", err)
        return CompileOutcome("syntax_error", err or out)

    # -- verifier -----------------------------------------------------------

    def formal_verify(self, source_with_sva: str) -> VerifyOutcome:
        if not re.search(r"\bassert\b", source_with_sva):
            raise DomainError("source contains no assertion")
        depth = self.settings.verifier_depth
        return self._cached(
            {"kind": "verify", "source": source_with_sva, "depth": depth},
            lambda: self._verify_raw(source_with_sva, depth),
            lambda resp: VerifyOutcome(**resp),
            lambda msg: VerifyOutcome("tool_error", msg),
        )

    def _verify_raw(self, source: str, depth: int) -> VerifyOutcome:
        if self._verify_backend is not None:
            return self._verify_backend(source, depth)
        if not self.settings.verifier_cmd:
            return VerifyOutcome("tool_error", "no verifier configured")
        rc, out, err = self._run_tool(self.settings.verifier_cmd, source, depth=depth)
        if rc is None:
            return VerifyOutcome("tool_error", err)
        return self.classify_verifier_log(out + err, rc)

    def classify_verifier_log(self, log: str, returncode: int = 0) -> VerifyOutcome:
        """Map raw verifier output onto the four statuses via configured regexes."""
        s = self.settings
        if re.search(s.fail_re, log):
            step = None
            m = re.search(s.step_re, log)
            if m:
                try:  # a capture int rejects, or one past its digit limit, is no step
                    step = int(m.group(1))
                except (ValueError, TypeError):  # TypeError: the group took no part
                    pass
            return VerifyOutcome("assertion_failed", log, step)
        if re.search(s.pass_re, log):
            return VerifyOutcome("proven", log)
        if re.search(s.unknown_re, log):
            return VerifyOutcome("inconclusive", log)
        return VerifyOutcome("proven" if returncode == 0 else "inconclusive", log)

    # -- LLM ----------------------------------------------------------------

    def llm_call(self, req: LlmRequest) -> LlmReply:
        payload = {
            "kind": "llm",
            "task": req.task,
            "prompt_text": req.prompt_text,
            "temperature": self.settings.llm_temperature,
            "nonce": req.nonce,
        }
        return self._cached(
            payload,
            lambda: self._llm_attempts(req),
            _llm_reply,
            _raise_unreachable,
        )

    def _llm_attempts(self, req: LlmRequest) -> LlmReply:
        last_failure: Exception | None = None
        for attempt in range(1, LLM_MAX_ATTEMPTS + 1):
            try:
                return LlmReply(self._llm_raw(req), attempt)
            except TransportFailure as exc:
                last_failure = exc
        raise AttemptsExhausted(
            f"{LLM_MAX_ATTEMPTS} attempts failed for task={req.task}: {last_failure}"
        )

    def _llm_raw(self, req: LlmRequest) -> str:
        if self._llm_backend is not None:
            return self._llm_backend(req)
        temperature = self.settings.llm_temperature
        body = {"task": req.task, "prompt": req.prompt_text, "temperature": temperature}
        if self.settings.llm_cmd:
            try:
                proc = subprocess.run(
                    shlex.split(self.settings.llm_cmd),
                    input=json.dumps(body),
                    capture_output=True,
                    text=True,
                    timeout=self.settings.timeout_s,
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise TransportFailure(str(exc)) from exc
            if proc.returncode != 0:
                raise TransportFailure(f"llm command exited {proc.returncode}: {proc.stderr}")
            return proc.stdout.rstrip("\n")
        if self.settings.llm_url:
            headers = {"Content-Type": "application/json"}
            if self.settings.llm_credential_env:
                cred = os.environ.get(self.settings.llm_credential_env, "")
                if cred:
                    headers["Authorization"] = f"Bearer {cred}"
            try:
                request = urllib.request.Request(
                    self.settings.llm_url, json.dumps(body).encode(), headers
                )
                with urllib.request.urlopen(request, timeout=self.settings.timeout_s) as resp:
                    raw = resp.read()
            except urllib.error.HTTPError as exc:  # 400 or above, or a redirect not followed
                exc.close()  # it holds the response and its socket
                raise TransportFailure(f"endpoint returned {exc.code}") from exc
            except (OSError, HTTPException, ValueError) as exc:
                raise TransportFailure(str(exc)) from exc
            try:
                reply = json.loads(raw)
            except (ValueError, RecursionError) as exc:
                raise TransportFailure(f"malformed endpoint reply: {exc}") from exc
            if not isinstance(reply, dict) or not isinstance(reply.get("text"), str):
                raise TransportFailure("malformed endpoint reply: not a JSON object with a text")
            return reply["text"]
        raise EndpointUnreachable("no LLM endpoint configured")

    # -- subprocess plumbing --------------------------------------------------

    def _run_tool(self, template: str, source: str, depth: int | None = None):
        """Run a command template against a scratch copy of ``source``.

        Returns (returncode, stdout, stderr); returncode None means the tool
        could not be spawned or timed out.
        """
        scratch = None
        try:
            scratch = tempfile.mkdtemp(prefix="assertforge-", dir=self.settings.scratch_dir)
            src_path = Path(scratch) / "input.sv"
            src_path.write_text(source, encoding="utf-8")
            args = []
            for arg in shlex.split(template):
                arg = arg.replace("{file}", str(src_path))
                if depth is not None:
                    arg = arg.replace("{depth}", str(depth))
                args.append(arg)
            proc = subprocess.run(
                args,
                capture_output=True,
                text=True,
                timeout=self.settings.timeout_s,
                cwd=scratch,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            return None, "", f"tool spawn failed: {exc}"
        finally:
            if scratch is not None and not self.settings.keep_temp:
                shutil.rmtree(scratch, ignore_errors=True)
        return proc.returncode, proc.stdout, proc.stderr


def _llm_reply(resp: dict) -> LlmReply:
    """A stored LLM response; a text that is not a string or an attempt index
    that is not an integer raises TypeError."""
    text, attempt = resp["text"], resp.get("attempt_index", 1)
    if not isinstance(text, str) or type(attempt) is not int:
        raise TypeError("llm response needs a string text and an integer attempt_index")
    return LlmReply(text, attempt)


def _raise_unreachable(message: str) -> LlmReply:
    raise EndpointUnreachable(message)
