import math
import random

import mpmath as mp
import numpy as np
import pytest

from assertforge.errors import DomainError, ZeroProbabilityError
from assertforge.trainmath import (
    ChallengingCase,
    ExplicitProvider,
    build_triples,
    dpo_loss,
    pt_loss,
    select_challenging,
    sft_loss,
)
from toyprovider import BigramSoftmaxProvider

mp.mp.dps = 50


def mp_neg_log_sum(probs):
    return -sum(mp.log(mp.mpf(str(p))) for p in probs)


# -- pt_loss -----------------------------------------------------------------


def test_pt_loss_all_ones_is_zero():
    provider = ExplicitProvider(seq_table={((), ("a", "b")): [1.0, 1.0]})
    assert pt_loss(provider, [("a", "b")]) == 0.0


def test_pt_loss_matches_high_precision_oracle():
    provider = ExplicitProvider(seq_table={((), ("a", "b")): [0.5, 0.25]})
    loss = pt_loss(provider, [("a", "b")])
    assert abs(loss - float(mp_neg_log_sum([0.5, 0.25]))) < 1e-12
    assert loss == pytest.approx(2.0794415416798357, abs=1e-10)


def test_pt_loss_additive_over_samples():
    provider = ExplicitProvider(seq_table={((), ("a",)): [0.3]})
    single = pt_loss(provider, [("a",)])
    double = pt_loss(provider, [("a",), ("a",)])
    assert double == pytest.approx(2 * single, abs=1e-12)


def test_pt_loss_zero_probability_rejected():
    provider = ExplicitProvider(seq_table={((), ("a",)): [0.0]})
    with pytest.raises(ZeroProbabilityError):
        pt_loss(provider, [("a",)])


def test_pt_loss_mean_reduction():
    provider = ExplicitProvider(seq_table={((), ("a", "b")): [0.5, 0.25]})
    total = pt_loss(provider, [("a", "b")])
    assert pt_loss(provider, [("a", "b")], reduction="mean") == pytest.approx(total / 2)


# -- sft_loss -----------------------------------------------------------------


def test_sft_loss_masks_question():
    provider = ExplicitProvider(seq_table={(("q",), ("y",)): [1.0]})
    assert sft_loss(provider, [(("q",), ("y",))]) == 0.0


def test_sft_loss_single_token_oracle():
    provider = ExplicitProvider(seq_table={(("q",), ("y",)): [0.5]})
    loss = sft_loss(provider, [(("q",), ("y",))])
    assert loss == pytest.approx(0.6931471805599453, abs=1e-10)
    assert abs(loss - float(mp_neg_log_sum([0.5]))) < 1e-12


def test_sft_loss_context_does_not_change_loss():
    table = {
        (("q",), ("y",)): [0.5],
        (("q", "more", "context"), ("y",)): [0.5],
    }
    provider = ExplicitProvider(seq_table=table)
    a = sft_loss(provider, [(("q",), ("y",))])
    b = sft_loss(provider, [(("q", "more", "context"), ("y",))])
    assert a == b


# -- dpo_loss -----------------------------------------------------------------


def explicit_pair(pp, rp, pn, rn):
    x, p, n = ("x",), ("p",), ("n",)
    policy = ExplicitProvider(seq_table={(x, p): [pp], (x, n): [pn]})
    reference = ExplicitProvider(seq_table={(x, p): [rp], (x, n): [rn]})
    return policy, reference, [(x, p, n)]


def test_dpo_identical_policies_ln2():
    rng = random.Random(11)
    for _ in range(50):
        pp = rng.uniform(0.01, 0.99)
        pn = rng.uniform(0.01, 0.99)
        policy, _, triples = explicit_pair(pp, pp, pn, pn)
        loss = dpo_loss(policy, policy, triples, beta=0.1)
        assert abs(loss - math.log(2)) < 1e-12


def test_dpo_worked_example():
    policy, reference, triples = explicit_pair(0.8, 0.5, 0.1, 0.4)
    loss = dpo_loss(policy, reference, triples, beta=0.1)
    # Oracle: high-precision closed form -ln sigma(0.1 * (ln 1.6 - ln 0.25)).
    z = mp.mpf("0.1") * (mp.log(mp.mpf("1.6")) - mp.log(mp.mpf("0.25")))
    oracle = -mp.log(1 / (1 + mp.e ** (-z)))
    assert abs(loss - float(oracle)) < 1e-12
    assert loss == pytest.approx(0.60459, abs=1e-4)


def test_dpo_beta_zero_limit():
    policy, reference, triples = explicit_pair(0.9, 0.2, 0.05, 0.7)
    for beta in (1e-6, 1e-9):
        assert dpo_loss(policy, reference, triples, beta=beta) == pytest.approx(
            math.log(2), abs=1e-5
        )


def test_dpo_monotone_in_preferred_probability():
    base = None
    reference = ExplicitProvider(
        seq_table={(("x",), ("p",)): [0.5], (("x",), ("n",)): [0.5]}
    )
    for pp in (0.2, 0.4, 0.6, 0.8):
        policy = ExplicitProvider(
            seq_table={(("x",), ("p",)): [pp], (("x",), ("n",)): [0.5]}
        )
        loss = dpo_loss(policy, reference, [(("x",), ("p",), ("n",))])
        if base is not None:
            assert loss < base
        base = loss


def test_dpo_monotone_in_negative_probability():
    reference = ExplicitProvider(
        seq_table={(("x",), ("p",)): [0.5], (("x",), ("n",)): [0.5]}
    )
    base = None
    for pn in (0.8, 0.6, 0.4, 0.2):
        policy = ExplicitProvider(
            seq_table={(("x",), ("p",)): [0.5], (("x",), ("n",)): [pn]}
        )
        loss = dpo_loss(policy, reference, [(("x",), ("p",), ("n",))])
        if base is not None:
            assert loss < base
        base = loss


def test_dpo_mean_over_triples():
    x, p, n = ("x",), ("p",), ("n",)
    policy = ExplicitProvider(seq_table={(x, p): [0.8], (x, n): [0.1]})
    reference = ExplicitProvider(seq_table={(x, p): [0.5], (x, n): [0.4]})
    one = dpo_loss(policy, reference, [(x, p, n)])
    four = dpo_loss(policy, reference, [(x, p, n)] * 4)
    assert one == pytest.approx(four, abs=1e-12)


def test_dpo_empty_triples_rejected():
    policy = ExplicitProvider()
    with pytest.raises(DomainError):
        dpo_loss(policy, policy, [])


# -- toy provider -------------------------------------------------------------


def random_provider(rng, vocab=5):
    logits = rng.standard_normal((vocab + 1, vocab))
    return BigramSoftmaxProvider(logits)


def test_toy_provider_distributions_sum_to_one():
    rng = np.random.default_rng(3)
    prov = random_provider(rng)
    for context in ((), (0,), (2, 4), (1, 1, 3)):
        dist = prov.dist(context)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for p in dist)
        total = sum(prov.next_prob(context, t) for t in range(prov.vocab_size))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_toy_provider_vocab_cap():
    with pytest.raises(DomainError):
        BigramSoftmaxProvider(np.zeros((18, 17)))


def _random_sequences(rng, vocab, count, max_len=6):
    out = []
    for _ in range(count):
        length = int(rng.integers(1, max_len))
        out.append(tuple(int(t) for t in rng.integers(0, vocab, size=length)))
    return out


def central_difference(loss_fn, logits, h=1e-6):
    grad = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            up = logits.copy()
            up[i, j] += h
            down = logits.copy()
            down[i, j] -= h
            grad[i, j] = (loss_fn(up) - loss_fn(down)) / (2 * h)
    return grad


def assert_grad_close(analytic, numeric, rtol=1e-5):
    scale = max(np.abs(numeric).max(), 1e-8)
    assert np.max(np.abs(analytic - numeric)) / scale < rtol


def test_gradient_checks_all_losses():
    rng = np.random.default_rng(42)
    vocab = 4
    for draw in range(30):
        logits = rng.standard_normal((vocab + 1, vocab))
        samples = _random_sequences(rng, vocab, 3)
        pairs = [
            (_random_sequences(rng, vocab, 1)[0], _random_sequences(rng, vocab, 1)[0])
            for _ in range(3)
        ]
        triples = []
        for _ in range(2):
            x, p, n = _random_sequences(rng, vocab, 3)
            triples.append((x, p, n))
        ref = BigramSoftmaxProvider(rng.standard_normal((vocab + 1, vocab)))

        prov = BigramSoftmaxProvider(logits)
        analytic = prov.pt_loss_grad(samples)
        numeric = central_difference(
            lambda L: pt_loss(BigramSoftmaxProvider(L), samples), logits
        )
        assert_grad_close(analytic, numeric)

        analytic = prov.sft_loss_grad(pairs)
        numeric = central_difference(
            lambda L: sft_loss(BigramSoftmaxProvider(L), pairs), logits
        )
        assert_grad_close(analytic, numeric)

        analytic = prov.dpo_loss_grad(ref, triples, beta=0.1)
        numeric = central_difference(
            lambda L: dpo_loss(BigramSoftmaxProvider(L), ref, triples, beta=0.1), logits
        )
        assert_grad_close(analytic, numeric)


# -- challenging cases ----------------------------------------------------------


def entry(x, p, verdicts_and_texts):
    return (x, p, verdicts_and_texts)


def responses(pattern):
    """pattern: list of (text, correct?) expanded to exactly 20 entries."""
    out = [(t, "correct" if ok else "incorrect") for t, ok in pattern]
    while len(out) < 20:
        out.append(("right answer", "correct"))
    return out


def test_select_all_correct_excluded():
    judged = [entry("q", "right answer", responses([]))]
    assert select_challenging(judged) == []


def test_select_single_incorrect_included():
    judged = [entry("q", "right answer", responses([("wrong one", False)]))]
    cases = select_challenging(judged)
    assert len(cases) == 1
    assert cases[0].negatives == ("wrong one",)


def test_select_identical_wrongs_dedup():
    judged = [entry("q", "right answer", [("same wrong", "incorrect")] * 20)]
    cases = select_challenging(judged)
    assert len(cases) == 1
    assert cases[0].negatives == ("same wrong",)


def test_select_requires_twenty():
    with pytest.raises(DomainError):
        select_challenging([("q", "p", [("a", "incorrect")] * 19)])


def test_select_partitions_input():
    rng = random.Random(8)
    judged = []
    for i in range(30):
        wrongs = rng.randrange(0, 4)
        pattern = [(f"wrong {i}.{j}", False) for j in range(wrongs)]
        judged.append(entry(f"q{i}", "right answer", responses(pattern)))
    cases = select_challenging(judged)
    expected = sum(1 for _, _, rs in judged if any(v != "correct" for _, v in rs))
    assert len(cases) == expected


def test_select_skips_negative_equal_to_answer():
    judged = [entry("q", "right answer", responses([("right  answer", False)]))]
    assert select_challenging(judged) == []


def test_build_triples_counts():
    cases = [
        ChallengingCase("q1", "p1", ("n1", "n2", "n3")),
        ChallengingCase("q2", "p2", ("n4",)),
    ]
    triples = build_triples(cases)
    assert [(t["x"], t["n"]) for t in triples] == [
        ("q1", "n1"),
        ("q1", "n2"),
        ("q1", "n3"),
        ("q2", "n4"),
    ]
    assert build_triples([]) == []
