"""Deterministic in-process stand-ins for the compiler, verifier and LLM.

This is the benchmark's own copy of the scripted backends the test suite
uses, so that edits to the tests cannot shift benchmark numbers. The fake
compiler flags `= ;` as a syntax error. The fake verifier proves any source
whose assert-stripped text is a known original and otherwise classifies by
content digest. The fake LLM answers each task with string rules over the
prompt; its fixes reverse some bug shapes and miss others, so a solver run
yields a mix of correct and incorrect responses.
"""

from __future__ import annotations

import hashlib
import json
import re

from assertforge.toolchain import CompileOutcome, LlmRequest, VerifyOutcome

_SYNTAX_RE = re.compile(r"=\s*;")


def _digest(*parts: str) -> int:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\x00")
    return int.from_bytes(h.digest()[:8], "big")


def fake_compile(source: str) -> CompileOutcome:
    if _SYNTAX_RE.search(source):
        return CompileOutcome("syntax_error", "input.sv: syntax error near '= ;'")
    return CompileOutcome("ok", "")


def strip_assert_lines(source: str) -> str:
    return "\n".join(l for l in source.split("\n") if "assert" not in l)


def make_fake_verify(original_texts: set[str]):
    """Verifier: proven on unmodified designs, digest-classified on mutants."""

    def fake_verify(source: str, depth: int) -> VerifyOutcome:
        if strip_assert_lines(source) in original_texts:
            return VerifyOutcome("proven", f"BMC depth {depth}: PASS\n")
        d = _digest("verify", source)
        if d % 4 == 0:
            return VerifyOutcome("proven", f"BMC depth {depth}: PASS\n")
        if d % 4 == 1:
            return VerifyOutcome("inconclusive", f"BMC depth {depth}: UNKNOWN\n")
        step = d % depth
        return VerifyOutcome(
            "assertion_failed",
            f"BMC depth {depth}: FAIL\nassertion violated at step {step}\n",
            failing_step=step,
        )

    return fake_verify


_CODE_RE = re.compile(r"^module\b.*", re.MULTILINE | re.DOTALL)
_BUG_LOC_RE = re.compile(r"^The bug is on line (\d+): (.*)$", re.MULTILINE)
_ASSIGN_RE = re.compile(
    r"^\s*(?:assign\s+)?(?:if\s*\([^)]*\)\s*)?([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?(?:<=|=)(?!=)",
    re.MULTILINE,
)
_PORT_RE = re.compile(r"input\s+(?:wire\s+|reg\s+)?(?:\[[^\]]*\]\s*)?([A-Za-z_]\w*)")
_MODULE_RE = re.compile(r"module\s+([A-Za-z_]\w*)")


def _extract_code(prompt: str) -> str:
    m = _CODE_RE.search(prompt)
    if not m:
        return prompt
    text = m.group()
    end = text.rfind("endmodule")
    return text[: end + len("endmodule")] if end >= 0 else text


def propose_fix(line: str) -> str:
    """Rule-based bug 'fix'; reverses some mutation shapes, mangles others."""
    if " + 1;" in line:
        return line.replace(" + 1;", ";", 1)
    if " & " in line:
        return line.replace(" & ", " | ", 1)
    if " - " in line:
        return line.replace(" - ", " + ", 1)
    if " >> " in line:
        return line.replace(" >> ", " << ", 1)
    if re.search(r"\(\s*!", line):
        return line.replace("!", "", 1)
    m = re.search(r"'[bB]([01xXzZ?]+)", line)
    if m:
        digits = m.group(1)
        i = 1 if len(digits) > 1 else 0
        if digits[i] in "01":
            flipped = digits[:i] + ("1" if digits[i] == "0" else "0") + digits[i + 1 :]
            return line[: m.start(1)] + flipped + line[m.end(1) :]
    if " != " in line:
        return line.replace(" != ", " == ", 1)
    if " < " in line:
        return line.replace(" < ", " > ", 1)
    m = re.search(r"'[dD](\d+)", line)
    if m:
        n = int(m.group(1))
        repl = str(n - 1) if n > 0 else str(n + 1)
        return line[: m.start(1)] + repl + line[m.end(1) :]
    m = re.match(r"^(\s*.*?(?:<=|=)(?!=))", line)
    if m:
        return m.group(1) + " in;"
    return line + " // fix"


_CANDIDATE_PATTERNS = (
    " + 1;",
    " & ",
    " - ",
    " >> ",
    "(!",
    "'b",
    "'d",
    " != ",
    " < ",
    "<=",
)


def _candidate_lines(code: str) -> list[str]:
    lines = []
    for line in code.split("\n"):
        if "assert" in line or "module" in line:
            continue
        if any(pat in line for pat in _CANDIDATE_PATTERNS):
            lines.append(line)
    return lines or [l for l in code.split("\n") if l.strip()][:1]


def fake_llm(req: LlmRequest) -> str:
    code = _extract_code(req.prompt_text)
    if req.task == "spec":
        m = _MODULE_RE.search(code)
        name = m.group(1) if m else "unknown"
        return f"Module {name}: registers and combinational logic as written."
    if req.task == "sva":
        assigned = _ASSIGN_RE.findall(code)
        ports = _PORT_RE.findall(code)
        a = assigned[0] if assigned else (ports[0] if ports else "x")
        b = next((p for p in ports if p != a), a)
        return f"assert property ({a} == {b});"
    if req.task == "cot":
        loc = _BUG_LOC_RE.search(req.prompt_text)
        if loc is None:
            # Syntax-error analysis for pretraining records.
            return "The statement lacks a right-hand side before the semicolon."
        line_no, buggy = int(loc.group(1)), loc.group(2)
        if _digest("cot", req.prompt_text) % 8 == 0:
            return f"The issue seems to be around line {line_no}."  # unparseable
        return json.dumps(
            {
                "buggy_line": buggy,
                "fix": propose_fix(buggy),
                "cot": f"Line {line_no} conflicts with the specification; "
                f"rewriting it restores the asserted behaviour.",
            }
        )
    if req.task == "solve":
        d = _digest("solve", req.prompt_text, req.nonce)
        if d % 7 == 0:
            return "The design appears to have an off-by-one somewhere."
        candidates = _candidate_lines(code)
        pick = candidates[d % len(candidates)]
        return json.dumps(
            {
                "buggy_line": pick,
                "fix": propose_fix(pick),
                "cot": "The log points at this line; the fix restores the invariant.",
            }
        )
    raise AssertionError(f"unexpected task {req.task}")
