"""Exception types shared across the package."""

from __future__ import annotations


class AssertForgeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AssertForgeError, ValueError):
    """A caller violated a documented precondition (bad n/c/k, bad status, ...)."""


class NoAlternativeError(AssertForgeError):
    """A mutation site admits no legal replacement distinct from the original."""


class ParseFailure(AssertForgeError):
    """Structured text (e.g. an assertion expression) could not be parsed."""


class SchemaError(AssertForgeError):
    """A serialized record violates its schema. Carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ZeroProbabilityError(AssertForgeError):
    """A token probability of zero (or below) reached a log-likelihood term."""


class EndpointUnreachable(AssertForgeError):
    """No LLM endpoint is configured, or the replay cache has no entry."""


class AttemptsExhausted(AssertForgeError):
    """All transport retries for an LLM call failed."""


class TransportFailure(AssertForgeError):
    """One LLM transport attempt failed; an LLM call makes up to three attempts."""


class ReverifyUnavailable(AssertForgeError):
    """Judge mode 'reverify' was requested but no verifier is configured."""


class InconsistentProvenance(AssertForgeError):
    """A pipeline item references a unit that is not part of the corpus."""


class InsufficientValidResponses(AssertForgeError):
    """Response collection ended before reaching the target count.

    ``collected`` holds the number of valid responses gathered and ``result``
    the partial case result (useful for diagnostics).
    """

    def __init__(self, case_id: str, collected: int, target: int, result=None):
        super().__init__(
            f"case {case_id}: collected {collected} of {target} valid responses"
        )
        self.case_id = case_id
        self.collected = collected
        self.target = target
        self.result = result
