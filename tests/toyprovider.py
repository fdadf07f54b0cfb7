"""Probability providers for the tests of ``assertforge.trainmath``.

A provider answers teacher-forced token probabilities, ``sequence_probs(x,
y)``. ``sequence_nll`` and ``dpo_mean`` turn those into the three losses with
the two functions the ``losses`` command runs, ``nll`` and ``dpo_term``.
``ExplicitProvider`` answers from a table, for oracle checks of the losses.
``BigramSoftmaxProvider`` has analytic loss gradients: the gradient checks
compare them with central differences. It keeps numpy, a test dependency,
out of the package.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from assertforge.errors import DomainError
from assertforge.trainmath import dpo_term, nll


def _logprob(provider, x, y) -> float:
    return sum(math.log(p) for p in provider.sequence_probs(x, y))


def sequence_nll(provider, pairs, reduction: str) -> float:
    """Negative log-likelihood of each answer y given its question x, over
    (x, y) pairs; a pretraining sample is a pair with an empty x."""
    return nll((provider.sequence_probs(x, y) for x, y in pairs), reduction)


def dpo_mean(policy, reference, triples, beta: float) -> float:
    """Mean preference loss over (x, preferred, negative) triples, each term
    from the summed log-probabilities of the two providers."""
    terms = [dpo_term(_logprob(policy, x, p), _logprob(reference, x, p),
                      _logprob(policy, x, n), _logprob(reference, x, n), beta)
             for x, p, n in triples]
    return sum(terms) / len(terms)


class ExplicitProvider:
    """Probabilities looked up from an explicit table; for oracles.

    ``seq_table`` maps (tuple(x), tuple(y)) -> per-token probability list.
    """

    def __init__(self, seq_table: Mapping[tuple[tuple, tuple], Sequence[float]] | None = None):
        self._seq = {k: list(v) for k, v in (seq_table or {}).items()}

    def sequence_probs(self, x, y) -> list[float]:
        key = (tuple(x), tuple(y))
        try:
            return list(self._seq[key])
        except KeyError:
            raise DomainError(f"no probabilities recorded for {key}")


class BigramSoftmaxProvider:
    """Toy model: P(w | context) = softmax(logits[last token])[w].

    Vocabulary indices are 0..V-1 with V <= 16; row V of the logit matrix
    handles the empty context. The explicit parameter matrix makes analytic
    gradients of all three losses straightforward.
    """

    MAX_VOCAB = 16

    def __init__(self, logits: np.ndarray):
        logits = np.asarray(logits, dtype=float)
        if logits.ndim != 2 or logits.shape[0] != logits.shape[1] + 1:
            raise DomainError("logits must have shape (V + 1, V)")
        if logits.shape[1] > self.MAX_VOCAB:
            raise DomainError(f"vocabulary larger than {self.MAX_VOCAB}")
        self.logits = logits
        self.vocab_size = logits.shape[1]

    def _row(self, context: Sequence[int]) -> int:
        if len(context) == 0:
            return self.vocab_size
        prev = context[-1]
        if not (0 <= prev < self.vocab_size):
            raise DomainError(f"token {prev} outside vocabulary")
        return int(prev)

    def dist(self, context: Sequence[int]) -> np.ndarray:
        row = self.logits[self._row(context)]
        shifted = row - row.max()
        e = np.exp(shifted)
        return e / e.sum()

    def next_prob(self, context, token) -> float:
        if not (0 <= token < self.vocab_size):
            raise DomainError(f"token {token} outside vocabulary")
        return float(self.dist(context)[token])

    def sequence_probs(self, x, y) -> list[float]:
        context = list(x)
        probs = []
        for tok in y:
            probs.append(self.next_prob(context, tok))
            context.append(tok)
        return probs

    # -- analytic gradients (d loss / d logits) -----------------------------

    def _grad_neg_logprob(self, x, y) -> np.ndarray:
        """Gradient of -ln P(y | x) w.r.t. the logit matrix."""
        g = np.zeros_like(self.logits)
        context = list(x)
        for tok in y:
            r = self._row(context)
            g[r] += self.dist(context)
            g[r][tok] -= 1.0
            context.append(tok)
        return g

    def pt_loss_grad(self, samples, reduction: str = "sum") -> np.ndarray:
        return self.sft_loss_grad([((), sample) for sample in samples], reduction)

    def sft_loss_grad(self, pairs, reduction: str = "sum") -> np.ndarray:
        g = np.zeros_like(self.logits)
        terms = 0
        for x, y in pairs:
            g += self._grad_neg_logprob(x, y)
            terms += len(y)
        if reduction == "mean" and terms:
            g /= terms
        return g

    def dpo_loss_grad(
        self, reference, triples, beta: float = 0.1
    ) -> np.ndarray:
        """Gradient of dpo_mean w.r.t. this (policy) provider's logits."""
        g = np.zeros_like(self.logits)
        for x, p, n in triples:
            margin = (
                _logprob(self, x, p)
                - _logprob(reference, x, p)
                - (_logprob(self, x, n) - _logprob(reference, x, n))
            )
            z = beta * margin
            weight = -1.0 / (1.0 + math.exp(z))  # d(-ln sigmoid(z))/dz
            # grad of ln pi(seq|x) is -(grad of -ln pi)
            g += weight * beta * (
                -self._grad_neg_logprob(x, p) + self._grad_neg_logprob(x, n)
            )
        return g / len(triples)
