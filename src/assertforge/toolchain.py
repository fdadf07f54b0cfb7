"""Adapters for the three external services: compiler, verifier, LLM endpoint.

Each adapter is one callable, an injected backend or the built-in command or
endpoint, and every call goes through one record/replay path
(``Toolchain._cached``), keyed by a digest of its request: it records live
outcomes into a ReplayCache or serves them back hermetically. Each request is
encoded once, into the bytes its key hashes, a record stores and a replay
matches; the draws of one eval case, which differ only by nonce, share one
encoding of their ``Prompt``. An entry replays as its outcome type, which
checks its own fields; a missing, unknown or ill-typed field makes it
malformed. A missing or malformed entry is a miss: ``tool_error`` for the
compiler and verifier, ``AssertForgeError`` for the LLM. In record mode a
cache write that fails raises ``AssertForgeError`` naming the key. Tool
commands are user-configurable templates with {file} and {depth} placeholders;
nothing here hard-depends on a particular compiler or verifier.
"""

from __future__ import annotations

import contextlib
import functools
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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

from .errors import AssertForgeError, DomainError, TransportFailure

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
    attempt_index: int = 1  # entries recorded before it was stored lack it

    def __post_init__(self):
        if type(self.text) is not str:
            raise ValueError(f"text must be a string, got {self.text!r}")
        if type(self.attempt_index) is not int:
            raise ValueError(f"attempt_index must be an integer, got {self.attempt_index!r}")


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
        if self.mock_mode != "off" and not self.mock_dir:
            raise DomainError(f"mock.mode = {self.mock_mode} needs mock.dir")
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
_ASSERT_RE, _WORD_RE = re.compile(r"assert\b"), re.compile(r"\w")  # \bassert\b, without a scan
_json_str = json.encoder.encode_basestring_ascii  # _CANONICAL's, without encode()'s frame


class Prompt(str):
    """A prompt sent more than once, as each of an eval case's prompts and a
    unit's bug prompt are: it makes its JSON encoding once, on first use."""

    @functools.cached_property
    def encoded(self) -> str:
        return _json_str(self)


def request_digest(payload: dict) -> tuple[str, bytes]:
    """Stable content key for one adapter request, and the canonical bytes hashed."""
    fields = [f"{_json_str(k)}:{_encoded(v)}" for k, v in sorted(payload.items())]
    data = ("{" + ",".join(fields) + "}").encode()
    return hashlib.sha256(data).hexdigest(), data


def _encoded(value: object) -> str:
    if type(value) is str:
        return _json_str(value)
    if type(value) is Prompt:
        return value.encoded
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)  # as JSONEncoder writes it, without building one
    return _CANONICAL.encode(value)


class ReplayCache:
    """Digest-keyed store of adapter outcomes, one ``<key>.json`` file per
    request holding compact sorted-key JSON ``{"request", "response"}``. ``get``
    reads an entry in one ``os.read``, checks its request in place and decodes
    only the response of an entry with the asked request.

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
            fd = os.open(self._prefix + key + ".json", os.O_RDONLY)  # opens a directory too
            try:
                size = os.fstat(fd).st_size
                data = os.read(fd, size + 1)
                while len(data) > size:  # the file grew after fstat: read on to its end
                    data, size = data + os.read(fd, len(data)), len(data)
            finally:
                os.close(fd)
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            return None
        head = data.startswith(b'{"request":') and data.startswith(request, 11)
        if head and data.startswith(b',"response":', start := 11 + len(request)):
            text = data[start + 12 :].decode("utf-8")
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

    Each adapter is one callable bound here: the injected backend (used by
    tests and record-mode fixtures), else the built-in ``_*_raw`` function
    that runs the configured command template or endpoint.
    """

    def __init__(
        self,
        settings: ToolSettings | None = None,
        cache: ReplayCache | None = None,
        compile_backend: Callable[[str], CompileOutcome] | None = None,
        verify_backend: Callable[[str, int], VerifyOutcome] | None = None,
        llm_backend: Callable[[LlmRequest], str] | None = None,
    ):
        self.settings = settings = settings or ToolSettings()
        if cache is None and settings.mock_mode != "off":
            cache = ReplayCache(settings.mock_dir, settings.mock_mode)
        self.cache = cache
        self._compile = compile_backend or self._compile_raw
        self._verify = verify_backend or self._verify_raw
        self._llm = llm_backend or self._llm_raw
        # formal_verify answers from a replay cache, else from a backend or a command.
        replaying = cache is not None and cache.mode == "replay"
        self.has_verifier = bool(replaying or verify_backend or settings.verifier_cmd)

    def _cached(self, request: dict, live: Callable[[], T], outcome_type: type[T]) -> T:
        """The one record/replay path shared by all three adapters.

        Replay mode answers from the cache only, decoding an entry with
        ``outcome_type(**response)``. A missing or malformed entry is a miss
        with a message naming the key: a ``tool_error`` outcome, or for the
        LLM an ``AssertForgeError``. Otherwise ``live`` runs, and record mode
        stores its outcome; an ``OSError`` from that write becomes an
        ``AssertForgeError`` naming the key.
        """
        if self.cache is None:
            return live()
        key, request_bytes = request_digest(request)
        if self.cache.mode == "replay":
            try:
                response = self.cache.get(key, request_bytes)
                if response is not None:
                    return outcome_type(**response)
                reason = "replay cache miss"
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                reason = f"malformed replay cache entry ({exc})"
            if outcome_type is LlmReply:
                raise AssertForgeError(f"{reason}: {key}")
            return outcome_type("tool_error", f"{reason}: {key}")
        outcome = live()
        try:
            self.cache.put(key, request_bytes, vars(outcome))
        except OSError as exc:
            raise AssertForgeError(f"replay cache write failed: {key}: {exc}") from exc
        return outcome

    # -- compiler -----------------------------------------------------------

    def compile_check(self, source: str) -> CompileOutcome:
        if not source:
            raise DomainError("cannot compile empty source")
        request = {"kind": "compile", "source": source}
        return self._cached(request, lambda: self._compile(source), CompileOutcome)

    def _compile_raw(self, source: str) -> CompileOutcome:
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
        starts = (m.start() for m in _ASSERT_RE.finditer(source_with_sva))
        if not any(not i or not _WORD_RE.match(source_with_sva, i - 1) for i in starts):
            raise DomainError("source contains no assertion")
        depth = self.settings.verifier_depth
        request = {"kind": "verify", "source": source_with_sva, "depth": depth}
        return self._cached(request, lambda: self._verify(source_with_sva, depth), VerifyOutcome)

    def _verify_raw(self, source: str, depth: int) -> VerifyOutcome:
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
        return self._cached(payload, lambda: self._llm_attempts(req), LlmReply)

    def _llm_attempts(self, req: LlmRequest) -> LlmReply:
        last_failure: Exception | None = None
        for attempt in range(1, LLM_MAX_ATTEMPTS + 1):
            try:
                return LlmReply(self._llm(req), attempt)
            except TransportFailure as exc:
                last_failure = exc
        raise AssertForgeError(
            f"{LLM_MAX_ATTEMPTS} attempts failed for task={req.task}: {last_failure}"
        )

    def _llm_raw(self, req: LlmRequest) -> str:
        temperature = self.settings.llm_temperature
        body = {"task": req.task, "prompt": req.prompt_text, "temperature": temperature}
        if self.settings.llm_cmd:
            try:
                proc = subprocess.run(
                    shlex.split(self.settings.llm_cmd),
                    input=json.dumps(body),
                    capture_output=True,
                    encoding="utf-8",
                    errors="replace",
                    timeout=self.settings.timeout_s,
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise TransportFailure(str(exc)) from exc
            if proc.returncode != 0:
                raise TransportFailure(f"llm command exited {proc.returncode}: {proc.stderr}")
            return proc.stdout.rstrip("\n")
        if self.settings.llm_url:
            import urllib.error  # here, so a run with no endpoint never loads HTTP or TLS
            import urllib.request
            from http.client import HTTPException

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
        raise AssertForgeError("no LLM endpoint configured")

    # -- subprocess plumbing --------------------------------------------------

    def _run_tool(self, template: str, source: str, depth: int | None = None):
        """Run a command template against a scratch copy of ``source``.

        Returns (returncode, stdout, stderr); returncode None means the tool
        could not be spawned or timed out. Output that is not UTF-8 reads as
        U+FFFD, and a source character UTF-8 cannot encode is written as ``?``.
        """
        scratch = None
        try:
            scratch = tempfile.mkdtemp(prefix="assertforge-", dir=self.settings.scratch_dir)
            src_path = Path(scratch) / "input.sv"
            src_path.write_text(source, encoding="utf-8", errors="replace")
            args = []
            for arg in shlex.split(template):
                arg = arg.replace("{file}", str(src_path))
                if depth is not None:
                    arg = arg.replace("{depth}", str(depth))
                args.append(arg)
            proc = subprocess.run(
                args,
                capture_output=True,
                encoding="utf-8",
                errors="replace",
                timeout=self.settings.timeout_s,
                cwd=scratch,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            return None, "", f"tool spawn failed: {exc}"
        finally:
            if scratch is not None and not self.settings.keep_temp:
                shutil.rmtree(scratch, ignore_errors=True)
        return proc.returncode, proc.stdout, proc.stderr
