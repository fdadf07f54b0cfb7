"""Exception types shared across the package.

A class is defined here only because some ``except`` clause in the package
names it; any other failure raises ``AssertForgeError`` (a bad item) or
``DomainError`` (a broken precondition) with its message.
"""

from __future__ import annotations


class AssertForgeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AssertForgeError, ValueError):
    """A caller violated a documented precondition (bad n/c/k, bad status, ...)."""


class NoAlternativeError(AssertForgeError):
    """A mutation site admits no legal replacement distinct from the original."""


class SchemaError(AssertForgeError):
    """A serialized record violates its schema."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


class TransportFailure(AssertForgeError):
    """One LLM transport attempt failed; an LLM call makes up to three attempts."""
