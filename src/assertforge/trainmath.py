"""Training objectives as pure mathematics over an abstract probability provider.

The three losses are:

  pretraining        L = -sum_i sum_t ln P(w_t | context_t)
  supervised tuning  L = -sum_i sum_t ln P(y_t | y_<t, x)     (x is masked)
  preference (DPO)   L = mean_i -ln sigmoid(beta * (log-ratio(p) - log-ratio(n)))

No neural network is involved: a provider only has to answer teacher-forced
sequence probabilities, and ``nll`` and ``dpo_term`` compute the losses from
probabilities given directly. A deterministic bigram-softmax toy
provider ships for gradient checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Protocol, Sequence

import numpy as np

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


@dataclass(frozen=True)
class PreferenceTriple:
    x: str
    p: str
    n: str

    def __post_init__(self):
        if normalize_line(self.p) == normalize_line(self.n):
            raise ValueError("preferred and negative responses must differ")

    def to_json(self) -> dict:
        return {"x": self.x, "p": self.p, "n": self.n}


@dataclass(frozen=True)
class ChallengingCase:
    x: str
    p: str
    negatives: tuple[str, ...]

    def __post_init__(self):
        if not (1 <= len(self.negatives) <= 20):
            raise ValueError("a challenging case carries 1..20 negatives")


def select_challenging(
    judged: Iterable[tuple[str, str, Sequence[tuple[str, str]]]],
    n_expected: int = 20,
) -> list[ChallengingCase]:
    """Keep entries with at least one incorrect verdict among their responses.

    Each entry is (question, correct answer, [(response text, verdict)] * 20).
    Negatives are the distinct incorrect response texts (normalized dedup,
    first-seen order). Responses whose text collapses onto the correct answer
    are skipped; an entry whose negatives all collapse is excluded.
    """
    out = []
    for x, p, responses in judged:
        if len(responses) != n_expected:
            raise DomainError(
                f"expected exactly {n_expected} judged responses, got {len(responses)}"
            )
        seen: set[str] = set()
        negatives: list[str] = []
        for text, verdict in responses:
            if verdict == "correct":
                continue
            key = normalize_line(text)
            if key in seen or key == normalize_line(p):
                continue
            seen.add(key)
            negatives.append(text)
        if negatives:
            out.append(ChallengingCase(x, p, tuple(negatives)))
    return out


def build_triples(cases: Iterable[ChallengingCase]) -> list[PreferenceTriple]:
    """One triple per (case, negative), preserving case and negative order."""
    return [
        PreferenceTriple(case.x, case.p, neg) for case in cases for neg in case.negatives
    ]


# ---------------------------------------------------------------------------
# Providers


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
        self, reference: TokenProbProvider, triples, beta: float = 0.1
    ) -> np.ndarray:
        """Gradient of dpo_loss w.r.t. this (policy) provider's logits."""
        g = np.zeros_like(self.logits)
        for x, p, n in triples:
            margin = (
                _sequence_logprob(self, x, p)
                - _sequence_logprob(reference, x, p)
                - (_sequence_logprob(self, x, n) - _sequence_logprob(reference, x, n))
            )
            z = beta * margin
            weight = -1.0 / (1.0 + math.exp(z))  # d(-ln sigmoid(z))/dz
            # grad of ln pi(seq|x) is -(grad of -ln pi)
            g += weight * beta * (
                -self._grad_neg_logprob(x, p) + self._grad_neg_logprob(x, n)
            )
        return g / len(triples)
