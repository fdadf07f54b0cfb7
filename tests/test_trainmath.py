import math
import random

import mpmath as mp
import numpy as np
import pytest

from assertforge.errors import DomainError
from assertforge.trainmath import preference_triples
from toyprovider import BigramSoftmaxProvider, ExplicitProvider, dpo_mean, sequence_nll

mp.mp.dps = 50


def mp_neg_log_sum(probs):
    return -sum(mp.log(mp.mpf(str(p))) for p in probs)


# -- pretraining nll ---------------------------------------------------------


def test_pt_loss_all_ones_is_zero():
    provider = ExplicitProvider(seq_table={((), ("a", "b")): [1.0, 1.0]})
    assert sequence_nll(provider, [((), ("a", "b"))], "sum") == 0.0


def test_pt_loss_matches_high_precision_oracle():
    provider = ExplicitProvider(seq_table={((), ("a", "b")): [0.5, 0.25]})
    loss = sequence_nll(provider, [((), ("a", "b"))], "sum")
    assert abs(loss - float(mp_neg_log_sum([0.5, 0.25]))) < 1e-12
    assert loss == pytest.approx(2.0794415416798357, abs=1e-10)


def test_pt_loss_additive_over_samples():
    provider = ExplicitProvider(seq_table={((), ("a",)): [0.3]})
    single = sequence_nll(provider, [((), ("a",))], "sum")
    double = sequence_nll(provider, [((), ("a",)), ((), ("a",))], "sum")
    assert double == pytest.approx(2 * single, abs=1e-12)


def test_pt_loss_zero_probability_rejected():
    provider = ExplicitProvider(seq_table={((), ("a",)): [0.0]})
    with pytest.raises(DomainError, match="^token probability 0.0 is not positive$"):
        sequence_nll(provider, [((), ("a",))], "sum")


def test_pt_loss_mean_reduction():
    provider = ExplicitProvider(seq_table={((), ("a", "b")): [0.5, 0.25]})
    total = sequence_nll(provider, [((), ("a", "b"))], "sum")
    assert sequence_nll(provider, [((), ("a", "b"))], "mean") == pytest.approx(total / 2)


# -- supervised nll ----------------------------------------------------------


def test_sft_loss_masks_question():
    provider = ExplicitProvider(seq_table={(("q",), ("y",)): [1.0]})
    assert sequence_nll(provider, [(("q",), ("y",))], "sum") == 0.0


def test_sft_loss_single_token_oracle():
    provider = ExplicitProvider(seq_table={(("q",), ("y",)): [0.5]})
    loss = sequence_nll(provider, [(("q",), ("y",))], "sum")
    assert loss == pytest.approx(0.6931471805599453, abs=1e-10)
    assert abs(loss - float(mp_neg_log_sum([0.5]))) < 1e-12


def test_sft_loss_context_does_not_change_loss():
    table = {
        (("q",), ("y",)): [0.5],
        (("q", "more", "context"), ("y",)): [0.5],
    }
    provider = ExplicitProvider(seq_table=table)
    a = sequence_nll(provider, [(("q",), ("y",))], "sum")
    b = sequence_nll(provider, [(("q", "more", "context"), ("y",))], "sum")
    assert a == b


# -- dpo ---------------------------------------------------------------------


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
        loss = dpo_mean(policy, policy, triples, beta=0.1)
        assert abs(loss - math.log(2)) < 1e-12


def test_dpo_worked_example():
    policy, reference, triples = explicit_pair(0.8, 0.5, 0.1, 0.4)
    loss = dpo_mean(policy, reference, triples, beta=0.1)
    # Oracle: high-precision closed form -ln sigma(0.1 * (ln 1.6 - ln 0.25)).
    z = mp.mpf("0.1") * (mp.log(mp.mpf("1.6")) - mp.log(mp.mpf("0.25")))
    oracle = -mp.log(1 / (1 + mp.e ** (-z)))
    assert abs(loss - float(oracle)) < 1e-12
    assert loss == pytest.approx(0.60459, abs=1e-4)


def test_dpo_beta_zero_limit():
    policy, reference, triples = explicit_pair(0.9, 0.2, 0.05, 0.7)
    for beta in (1e-6, 1e-9):
        assert dpo_mean(policy, reference, triples, beta=beta) == pytest.approx(
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
        loss = dpo_mean(policy, reference, [(("x",), ("p",), ("n",))], beta=0.1)
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
        loss = dpo_mean(policy, reference, [(("x",), ("p",), ("n",))], beta=0.1)
        if base is not None:
            assert loss < base
        base = loss


def test_dpo_mean_over_triples():
    x, p, n = ("x",), ("p",), ("n",)
    policy = ExplicitProvider(seq_table={(x, p): [0.8], (x, n): [0.1]})
    reference = ExplicitProvider(seq_table={(x, p): [0.5], (x, n): [0.4]})
    one = dpo_mean(policy, reference, [(x, p, n)], beta=0.1)
    four = dpo_mean(policy, reference, [(x, p, n)] * 4, beta=0.1)
    assert one == pytest.approx(four, abs=1e-12)


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
        pt_pairs = [((), s) for s in samples]
        numeric = central_difference(
            lambda L: sequence_nll(BigramSoftmaxProvider(L), pt_pairs, "sum"), logits
        )
        assert_grad_close(analytic, numeric)

        analytic = prov.sft_loss_grad(pairs)
        numeric = central_difference(
            lambda L: sequence_nll(BigramSoftmaxProvider(L), pairs, "sum"), logits
        )
        assert_grad_close(analytic, numeric)

        analytic = prov.dpo_loss_grad(ref, triples, beta=0.1)
        numeric = central_difference(
            lambda L: dpo_mean(BigramSoftmaxProvider(L), ref, triples, beta=0.1), logits
        )
        assert_grad_close(analytic, numeric)


# -- challenging cases ----------------------------------------------------------


def responses(pattern):
    """pattern: list of (text, correct?) expanded to exactly 20 entries."""
    out = [(t, "correct" if ok else "incorrect") for t, ok in pattern]
    while len(out) < 20:
        out.append(("right answer", "correct"))
    return out


def test_select_all_correct_excluded():
    assert preference_triples("q", "right answer", responses([])) == []


def test_select_single_incorrect_included():
    rows = preference_triples("q", "right answer", responses([("wrong one", False)]))
    assert rows == [{"x": "q", "p": "right answer", "n": "wrong one"}]


def test_select_identical_wrongs_dedup():
    rows = preference_triples("q", "right answer", [("same wrong", "incorrect")] * 20)
    assert [r["n"] for r in rows] == ["same wrong"]
    # Texts equal under normalize_line are one negative; the first one seen is kept.
    rows = preference_triples("q", "p", [("a  = b;", "incorrect"), ("a = b", "incorrect")])
    assert [r["n"] for r in rows] == ["a  = b;"]


def test_select_partitions_input():
    rng = random.Random(8)
    judged = []
    for i in range(30):
        wrongs = rng.randrange(0, 4)
        pattern = [(f"wrong {i}.{j}", False) for j in range(wrongs)]
        judged.append((f"q{i}", "right answer", responses(pattern)))
    yielding = [x for x, p, rs in judged if preference_triples(x, p, rs)]
    expected = [x for x, _, rs in judged if any(v != "correct" for _, v in rs)]
    assert yielding == expected


def test_select_skips_negative_equal_to_answer():
    assert preference_triples("q", "right answer", responses([("right  answer", False)])) == []
    rows = preference_triples("q", "right answer", [("right answer;", "incorrect"), ("x", "incorrect")])
    assert [r["n"] for r in rows] == ["x"]


def test_build_triples_counts():
    pattern = [("n1", False), ("n2", False), ("n1", False), ("n3", False)]
    triples = preference_triples("q1", "p1", responses(pattern))
    triples += preference_triples("q2", "p2", responses([("n4", False)]))
    assert [(t["x"], t["p"], t["n"]) for t in triples] == [
        ("q1", "p1", "n1"),
        ("q1", "p1", "n2"),
        ("q1", "p1", "n3"),
        ("q2", "p2", "n4"),
    ]
    assert preference_triples("q", "p", []) == []
