"""Training objectives as pure mathematics over an abstract probability provider.

The three losses are:

  pretraining        L = -sum_i sum_t ln P(w_t | context_t)
  supervised tuning  L = -sum_i sum_t ln P(y_t | y_<t, x)     (x is masked)
  preference (DPO)   L = mean_i -ln sigmoid(beta * (log-ratio(p) - log-ratio(n)))

No neural network is involved: a provider only has to answer teacher-forced
sequence probabilities, and ``nll`` and ``dpo_term`` compute the losses from
probabilities given directly. The test suite checks them against the
analytic gradients of a bigram-softmax toy provider (``tests/toyprovider.py``).
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Protocol, Sequence

from .errors import DomainError, ZeroProbabilityError
from .textutil import normalize_line


class TokenProbProvider(Protocol):
    """Abstract capability: token probabilities under some model."""

    def sequence_probs(
        self, x: Sequence[Hashable], y: Sequence[Hashable]
    ) -> list[float]:
        """Per-token probabilities of y under teacher forcing, conditioned on x."""
        ...


def _checked_logs(probs: Iterable[float]) -> list[float]:
    logs = []
    for p in probs:
        if p <= 0.0:
            raise ZeroProbabilityError(f"token probability {p} is not positive")
        logs.append(math.log(p))
    return logs


def nll(prob_lists: Iterable[Sequence[float]], reduction: str = "sum") -> float:
    """Negative log-likelihood of every token probability in ``prob_lists``:
    the provider-free core of ``pt_loss`` and ``sft_loss``."""
    if reduction not in ("sum", "mean"):
        raise DomainError(f"unknown reduction: {reduction!r}")
    total = 0.0
    terms = 0
    for probs in prob_lists:
        logs = _checked_logs(probs)
        total -= sum(logs)
        terms += len(logs)
    if reduction == "mean":
        return total / terms if terms else 0.0
    return total


def pt_loss(
    provider: TokenProbProvider,
    samples: Sequence[Sequence[Hashable]],
    reduction: str = "sum",
) -> float:
    """Negative log-likelihood of token sequences under the provider.

    Default reduction is the plain double sum; "mean" divides by the total
    number of token terms.
    """
    return sft_loss(provider, [((), sample) for sample in samples], reduction)


def sft_loss(
    provider: TokenProbProvider,
    pairs: Sequence[tuple[Sequence[Hashable], Sequence[Hashable]]],
    reduction: str = "sum",
) -> float:
    """Negative log-likelihood of answers given questions.

    Only y tokens contribute loss terms; x supplies conditioning context.
    """
    return nll((provider.sequence_probs(x, y) for x, y in pairs), reduction)


def _sequence_logprob(provider: TokenProbProvider, x, y) -> float:
    return sum(_checked_logs(provider.sequence_probs(x, y)))


def _softplus(z: float) -> float:
    # log(1 + exp(z)) without overflow
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def dpo_term(
    policy_p: float, ref_p: float, policy_n: float, ref_n: float, beta: float = 0.1
) -> float:
    """One triple's preference loss from its four sequence log-probabilities:
    -ln sigmoid(beta * [(policy_p - ref_p) - (policy_n - ref_n)])."""
    margin = policy_p - ref_p - (policy_n - ref_n)
    return _softplus(-beta * margin)  # == -ln sigmoid(beta * margin)


def dpo_loss(
    policy: TokenProbProvider,
    reference: TokenProbProvider,
    triples: Sequence[tuple[Sequence, Sequence, Sequence]],
    beta: float = 0.1,
) -> float:
    """Mean preference loss over (x, preferred, negative) triples.

    Each triple contributes -ln sigmoid(beta * [(ln pi(p|x) - ln ref(p|x)) -
    (ln pi(n|x) - ln ref(n|x))]). At policy == reference this is ln 2.
    """
    if not triples:
        raise DomainError("dpo_loss needs at least one triple")
    total = 0.0
    for x, p, n in triples:
        total += dpo_term(
            _sequence_logprob(policy, x, p),
            _sequence_logprob(reference, x, p),
            _sequence_logprob(policy, x, n),
            _sequence_logprob(reference, x, n),
            beta,
        )
    return total / len(triples)


# ---------------------------------------------------------------------------
# Challenging-case selection and preference triples


def preference_triples(x: str, p: str, responses: Iterable[tuple[str, str]]) -> list[dict]:
    """One ``{"x", "p", "n"}`` row per distinct incorrect response text of a
    question ``x`` whose correct answer is ``p``; ``responses`` are (response
    text, verdict) pairs.

    Texts are deduplicated under ``normalize_line``, in first-seen order, and a
    text that collapses onto ``p`` is skipped. A case is challenging exactly
    when it yields a row.
    """
    seen = {normalize_line(p)}
    rows = []
    for text, verdict in responses:
        if verdict != "correct" and (key := normalize_line(text)) not in seen:
            seen.add(key)
            rows.append({"x": x, "p": p, "n": text})
    return rows
