"""Training objectives as pure mathematics over explicit probabilities.

The three losses are:

  pretraining        L = -sum_i sum_t ln P(w_t | context_t)
  supervised tuning  L = -sum_i sum_t ln P(y_t | y_<t, x)     (x is masked)
  preference (DPO)   L = mean_i -ln sigmoid(beta * (log-ratio(p) - log-ratio(n)))

No neural network is involved: ``nll`` computes the first two from the
teacher-forced token probabilities of each sample or answer, and ``dpo_term``
one triple's term of the third from its four sequence log-probabilities. The
``losses`` command runs exactly these two. The test suite checks them against
the analytic gradients of a bigram-softmax toy model (``tests/toyprovider.py``).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import DomainError
from .textutil import normalize_line


def _checked_logs(probs: Iterable[float]) -> list[float]:
    logs = []
    for p in probs:
        if p <= 0.0:
            raise DomainError(f"token probability {p} is not positive")
        logs.append(math.log(p))
    return logs


def nll(prob_lists: Iterable[Sequence[float]], reduction: str) -> float:
    """Negative log-likelihood of every token probability in ``prob_lists``,
    one list per pretraining sample or answer: summed over the terms, or with
    ``reduction="mean"`` averaged over them."""
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


def _softplus(z: float) -> float:
    # log(1 + exp(z)) without overflow
    return max(z, 0.0) + math.log1p(math.exp(-abs(z)))


def dpo_term(policy_p: float, ref_p: float, policy_n: float, ref_n: float, beta: float) -> float:
    """One triple's preference loss from its four sequence log-probabilities:
    -ln sigmoid(beta * [(policy_p - ref_p) - (policy_n - ref_n)])."""
    margin = policy_p - ref_p - (policy_n - ref_n)
    return _softplus(-beta * margin)  # == -ln sigmoid(beta * margin)


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
