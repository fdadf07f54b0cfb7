"""Acceptance suite: one test per acceptance criterion, each prints a
PASS/FAIL line and pins its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
"""

import itertools
import json
import math
import random
import time

import numpy as np
from assertforge import dataset as ds
from assertforge import evalharness as ev
from assertforge import trainmath as tm
from assertforge.cli import main
from assertforge.corpus import SourceUnit
from assertforge.errors import DomainError, NoAlternativeError
from assertforge.mutate import (
    BugType,
    MutationRecord,
    apply_mutation,
    classify_relation,
    enumerate_sites,
    extract_referenced_signals,
)
from click.testing import CliRunner

from conftest import (
    E2E_GOLDEN_C_VECTOR,
    E2E_GOLDEN_FAMILY_COUNTS,
    E2E_GOLDEN_TRIPLES,
)
from toyprovider import BigramSoftmaxProvider, ExplicitProvider


def report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# -- 1. pass@k exactness ---------------------------------------------------------


def test_criterion_pass_at_k_exactness():
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 13):
        for c in range(0, n + 1):
            for k in range(1, n + 1):
                correct = set(range(c))
                hits = sum(
                    1
                    for subset in itertools.combinations(range(n), k)
                    if correct & set(subset)
                )
                oracle = hits / math.comb(n, k)
                worst = max(worst, abs(ev.pass_at_k(n, c, k) - oracle))
    exact_cases = (
        ev.pass_at_k(20, 1, 5) == 0.25 and ev.pass_at_k(20, 10, 1) == 0.5
    )
    elapsed = time.monotonic() - start
    report(
        "pass_at_k exactness (n<=12 brute force, 1e-12; spot values)",
        worst <= 1e-12 and exact_cases and elapsed < 5.0,
        f"max err {worst:.2e}, {elapsed:.2f}s",
    )


# -- 2. Monte-Carlo sanity ---------------------------------------------------------


def test_criterion_monte_carlo_3sigma():
    start = time.monotonic()
    rng = np.random.default_rng(20240817)
    draws = 100_000
    failures = []
    for _ in range(50):
        n = 20
        c = int(rng.integers(0, n + 1))
        k = int(rng.integers(1, n + 1))
        exact = ev.pass_at_k(n, c, k)
        sims = rng.hypergeometric(ngood=c, nbad=n - c, nsample=k, size=draws) > 0
        estimate = float(sims.mean())
        sigma = math.sqrt(max(exact * (1 - exact), 0.0) / draws)
        if abs(estimate - exact) > 3 * sigma + 1e-12:
            failures.append((n, c, k, exact, estimate))
    elapsed = time.monotonic() - start
    report(
        "estimator vs 100k-draw Monte-Carlo within 3 sigma (50 triples)",
        not failures and elapsed < 30.0,
        f"{elapsed:.2f}s" + (f", failures: {failures[:3]}" if failures else ""),
    )


# -- 3. Loss oracles -----------------------------------------------------------------


def test_criterion_loss_oracles():
    import mpmath as mp

    mp.mp.dps = 50

    rng = random.Random(99)
    ok = True
    detail = []

    # pt/sft vs direct high-precision summation, 1e-10
    for _ in range(30):
        probs = [rng.uniform(0.05, 1.0) for _ in range(rng.randrange(1, 8))]
        provider = ExplicitProvider(seq_table={((), ("s",)): probs})
        got = tm.pt_loss(provider, [("s",)])
        oracle = float(-sum(mp.log(mp.mpf(str(p))) for p in probs))
        if abs(got - oracle) > 1e-10:
            ok = False
            detail.append(f"pt err {abs(got - oracle):.2e}")
        provider = ExplicitProvider(seq_table={(("x",), ("y",)): probs})
        got = tm.sft_loss(provider, [(("x",), ("y",))])
        if abs(got - oracle) > 1e-10:
            ok = False
            detail.append(f"sft err {abs(got - oracle):.2e}")

    # dpo at identical policies = ln 2 +- 1e-12
    for _ in range(30):
        pp, pn = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
        policy = ExplicitProvider(
            seq_table={(("x",), ("p",)): [pp], (("x",), ("n",)): [pn]}
        )
        loss = tm.dpo_loss(policy, policy, [(("x",), ("p",), ("n",))], beta=0.1)
        if abs(loss - math.log(2)) > 1e-12:
            ok = False
            detail.append(f"ln2 err {abs(loss - math.log(2)):.2e}")

    # worked dpo example ~ 0.60459 +- 1e-4
    policy = ExplicitProvider(seq_table={(("x",), ("p",)): [0.8], (("x",), ("n",)): [0.1]})
    reference = ExplicitProvider(seq_table={(("x",), ("p",)): [0.5], (("x",), ("n",)): [0.4]})
    worked = tm.dpo_loss(policy, reference, [(("x",), ("p",), ("n",))], beta=0.1)
    if abs(worked - 0.60459) > 1e-4:
        ok = False
        detail.append(f"worked {worked}")

    report("loss oracles (pt/sft 1e-10, dpo ln2 1e-12, worked 1e-4)", ok, "; ".join(detail))


# -- 4. Gradient checks ----------------------------------------------------------------


def _central_diff(loss_fn, logits, h=1e-6):
    grad = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            up = logits.copy()
            up[i, j] += h
            down = logits.copy()
            down[i, j] -= h
            grad[i, j] = (loss_fn(up) - loss_fn(down)) / (2 * h)
    return grad


def _seqs(rng, vocab, count, max_len=5):
    return [
        tuple(int(t) for t in rng.integers(0, vocab, size=int(rng.integers(1, max_len))))
        for _ in range(count)
    ]


def test_criterion_gradient_checks():
    rng = np.random.default_rng(7)
    vocab = 4
    worst = 0.0
    for _ in range(100):
        logits = rng.standard_normal((vocab + 1, vocab))
        prov = BigramSoftmaxProvider(logits)
        samples = _seqs(rng, vocab, 2)
        pairs = [(_seqs(rng, vocab, 1)[0], _seqs(rng, vocab, 1)[0]) for _ in range(2)]
        x, p, n = _seqs(rng, vocab, 3)
        triples = [(x, p, n)]
        ref = BigramSoftmaxProvider(rng.standard_normal((vocab + 1, vocab)))

        checks = [
            (prov.pt_loss_grad(samples),
             _central_diff(lambda L: tm.pt_loss(BigramSoftmaxProvider(L), samples), logits)),
            (prov.sft_loss_grad(pairs),
             _central_diff(lambda L: tm.sft_loss(BigramSoftmaxProvider(L), pairs), logits)),
            (prov.dpo_loss_grad(ref, triples, beta=0.1),
             _central_diff(
                 lambda L: tm.dpo_loss(BigramSoftmaxProvider(L), ref, triples, beta=0.1),
                 logits,
             )),
        ]
        for analytic, numeric in checks:
            scale = max(np.abs(numeric).max(), 1e-8)
            worst = max(worst, float(np.max(np.abs(analytic - numeric)) / scale))
    report(
        "gradient checks (3 losses x 100 draws, rel err <= 1e-5)",
        worst <= 1e-5,
        f"worst rel err {worst:.2e}",
    )


# -- 5. Mutation single-line property -----------------------------------------------------


def test_criterion_mutation_single_line(accepted_units, corpus_units):
    assert len(corpus_units) >= 30, "fixture corpus must hold at least 30 files"
    rng = random.Random(20240817)
    produced = 0
    ok = True
    detail = ""
    flat_by_unit = {
        u.id: [(ln, k) for ln, kinds in enumerate_sites(u) for k in kinds]
        for u in accepted_units
    }
    usable = [u for u in accepted_units if flat_by_unit[u.id]]
    while produced < 500:
        u = usable[rng.randrange(len(usable))]
        ln, kind = flat_by_unit[u.id][rng.randrange(len(flat_by_unit[u.id]))]
        seed = rng.getrandbits(63)
        try:
            rec = apply_mutation(u, ln, kind, seed)
        except NoAlternativeError:
            continue
        produced += 1
        if rec != apply_mutation(u, ln, kind, seed):
            ok, detail = False, f"seed {seed} not reproducible"
            break
        before = u.text.split("\n")
        after = rec.apply_to(u.text).split("\n")
        changed = sum(a != b for a, b in zip(before, after))
        if len(before) != len(after) or changed != 1:
            ok, detail = False, f"{u.id}:{ln} changed {changed} lines"
            break

    # The taxonomy's worked examples reproduced exactly.
    op_unit = SourceUnit(id="tab1", path="", text="out = a | b;")
    op_forms = {apply_mutation(op_unit, 1, "Op", s).mutated_snippet for s in range(8)}
    if "out = a & b;" not in op_forms:
        ok, detail = False, "operator swap | -> & not reachable"
    signals = extract_referenced_signals("assert(out == in);")
    direct = MutationRecord(
        "t", 1, "out <= in;", "out <= in + 1;", BugType("Non_cond"), frozenset({"out"}), 0
    )
    indirect = MutationRecord(
        "t", 1, "temp <= in;", "temp <= in + 1;", BugType("Non_cond"), frozenset({"temp"}), 0
    )
    if classify_relation(direct, signals) != "Direct":
        ok, detail = False, "Direct example misclassified"
    if classify_relation(indirect, signals) != "Indirect":
        ok, detail = False, "Indirect example misclassified"

    report(
        "mutation single-line property (500 seeded mutations + Table examples)",
        ok and produced == 500,
        detail or f"{produced} mutations over {len(usable)} files",
    )


# -- 6. Split properties --------------------------------------------------------------------


def test_criterion_split_properties():
    rng = random.Random(4242)
    ok = True
    detail = ""
    for trial in range(200):
        units = []
        for i in range(rng.randrange(1, 30)):
            lines = rng.randrange(3, 260)
            text = "\n".join(
                [f"module t{trial}_m{i};"] + [f"// {j}" for j in range(lines - 2)] + ["endmodule"]
            )
            units.append(SourceUnit(id=f"t{trial}_u{i}", path="", text=text))
        seed = rng.getrandbits(40)
        plan = ds.split(units, seed)
        if plan != ds.split(units, seed):
            ok, detail = False, "split not deterministic"
            break
        names_by_bin = {}
        for u in units:
            names_by_bin.setdefault(ds.length_bin(u.line_count), set()).add(
                u.module_names[0]
            )
        for bi, b in enumerate(plan["bins"]):
            names = names_by_bin.get(bi, set())
            train, test = set(b["train"]), set(b["test"])
            if train & test or (train | test) != names:
                ok, detail = False, f"partition violated in bin {bi}"
                break
            if len(train) != (9 * len(names) + 5) // 10:
                ok, detail = False, f"rounding violated in bin {bi}"
                break
        if not ok:
            break
    boundary = ds.length_bin(50) == 0 and ds.length_bin(51) == 1
    report(
        "split properties (200 corpora: partition, round-half-up, seeds; bins 50/51)",
        ok and boundary,
        detail,
    )


# -- 7. Hermetic end-to-end -------------------------------------------------------------------


def test_criterion_hermetic_end_to_end(cli_env, tmp_path):
    start = time.monotonic()
    runner = CliRunner()

    def run_all(tag):
        out = tmp_path / tag
        steps = [
            ["filter", "--config", str(cli_env["config"]), "--out-dir", str(out)],
            [
                "augment",
                "--config",
                str(cli_env["config"]),
                "--manifest",
                str(out / "manifest.jsonl"),
                "--out-dir",
                str(out),
            ],
            [
                "eval",
                str(cli_env["benchmark"]),
                "--config",
                str(cli_env["config"]),
                "--out",
                str(out / "report.json"),
                "--results",
                str(out / "results.jsonl"),
            ],
            [
                "dpo-prep",
                str(out / "results.jsonl"),
                "--benchmark",
                str(cli_env["benchmark"]),
                "--out",
                str(out / "triples.jsonl"),
            ],
        ]
        for argv in steps:
            res = runner.invoke(main, argv, catch_exceptions=False)
            assert res.exit_code == 0, (argv[0], res.output)
        return out

    out1 = run_all("run1")
    out2 = run_all("run2")

    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in (
            "filter_report.jsonl",
            "manifest.jsonl",
            "pt.jsonl",
            "bug.jsonl",
            "svabug.jsonl",
            "sva_eval_machine.jsonl",
            "split_plan.json",
            "report.json",
            "results.jsonl",
            "triples.jsonl",
        )
    )

    def count(path):
        _, rows = ds.strip_meta_header(ds.read_jsonl(path))
        return len(rows)

    counts = {
        "pt": count(out1 / "pt.jsonl"),
        "bug": count(out1 / "bug.jsonl"),
        "svabug": count(out1 / "svabug.jsonl"),
        "eval": count(out1 / "sva_eval_machine.jsonl"),
    }
    _, result_rows = ds.strip_meta_header(ds.read_jsonl(out1 / "results.jsonl"))
    c_vector = [r["c"] for r in result_rows]
    doc = json.loads((out1 / "report.json").read_text())
    expected_rates = {
        k: sum(ev.pass_at_k(20, c, k) for c in E2E_GOLDEN_C_VECTOR)
        / len(E2E_GOLDEN_C_VECTOR)
        for k in (1, 5)
    }
    rates_ok = all(
        abs(doc["overall"][f"pass@{k}"] - expected_rates[k]) < 1e-12 for k in (1, 5)
    )
    triples = count(out1 / "triples.jsonl")
    elapsed = time.monotonic() - start

    ok = (
        identical
        and counts == E2E_GOLDEN_FAMILY_COUNTS
        and c_vector == E2E_GOLDEN_C_VECTOR
        and rates_ok
        and triples == E2E_GOLDEN_TRIPLES
        and elapsed < 60.0
    )
    report(
        "hermetic end-to-end (byte-identical runs, frozen goldens, <60s)",
        ok,
        f"counts={counts}, triples={triples}, {elapsed:.1f}s",
    )


# -- 8. Routing totality ---------------------------------------------------------------------


def _routed(compile_status, verify_status, held_out):
    code = "module m;\ny = 0;\nendmodule"
    rec = MutationRecord("m", 2, "y = 0;", "y = 1;", BugType("Value", "Direct"), frozenset(), 0)
    mut = ds.MutantItem(rec, compile_status, verify_status, buggy_code=code, buggy_sv_code=code)
    item = ds.PipelineItem("m", "ok", code=code, spec="s", mutants=[mut], held_out=held_out)
    bundle = ds.build_records([item])
    outputs = (bundle.pt, bundle.bug, bundle.svabug, bundle.eval_cases, bundle.drops, bundle.errors)
    return sum(map(len, outputs))


def test_criterion_routing_totality():
    ok = True
    detail = ""
    rng = random.Random(11)
    compile_statuses = ["ok", "syntax_error", "tool_error"]
    verify_statuses = ["proven", "assertion_failed", "inconclusive", "tool_error", None]
    for c, v, held_out in itertools.product(compile_statuses, verify_statuses, (False, True)):
        try:
            landed = _routed(c, v, held_out)
        except DomainError:
            # ok+missing-verify is rejected, not silently routed
            if not (c == "ok" and v is None):
                ok, detail = False, f"build_records({c},{v}) raised unexpectedly"
            continue
        # A held-out bug that never trips the assertion is the one outcome
        # with no output.
        silent = held_out and c == "ok" and v in ("proven", "inconclusive")
        if landed != (0 if silent else 1):
            ok, detail = False, f"build_records({c},{v},held_out={held_out}) -> {landed} outputs"
    # fuzz unknown statuses: always rejected loudly
    for _ in range(100):
        bogus = f"status{rng.randrange(1000)}"
        for c, v in ((bogus, "proven"), ("ok", bogus)):
            try:
                _routed(c, v, False)
                ok, detail = False, f"accepted unknown status {bogus}"
            except DomainError:
                pass
    report("routing totality over (compile x verify) statuses", ok, detail)


# -- 9. Report shape --------------------------------------------------------------------------


def test_criterion_report_shape():
    # Build one case per taxonomy row and per length bin.
    cases = []
    results = []
    rng = random.Random(3)
    bug_rows = [
        ("Var", "Direct"),
        ("Value", "Indirect"),
        ("Op", "Direct"),
        ("Cond", "Indirect"),
        ("Non_cond", "Direct"),
    ]
    idx = 0
    for lb in range(5):
        for syn, rel in bug_rows:
            cid = f"case{idx}"
            idx += 1
            cases.append(
                ev.EvalCase(
                    id=cid,
                    source="machine" if idx % 2 else "human",
                    spec="s",
                    buggy_sv_code="module m;\nassert(x);\nendmodule",
                    log="FAIL",
                    golden_buggy_line="a;",
                    golden_corrected_line="b;",
                    bug_syntactic=syn,
                    bug_relation=rel,
                    length_bin=lb,
                )
            )
            results.append(ev.CaseResult(cid, 20, rng.randrange(21), ()))
    rep = ev.aggregate(results, cases, ks=(1, 5), n_target=20)
    hist_ok = len(rep["histogram"]) == 21 and sum(rep["histogram"]) == len(cases)
    bug_keys_ok = set(rep["by_bug_type"]) == set(ev.BUG_TYPE_ORDER)
    bin_keys_ok = set(rep["by_length_bin"]) == set(ds.BIN_LABELS)

    # keys cover exactly what is present: drop a bin and a bug type
    subset_results = [r for r, c in zip(results, cases) if c.length_bin != 2 and c.bug_syntactic != "Var"]
    subset_cases = [c for c in cases if c.length_bin != 2 and c.bug_syntactic != "Var"]
    rep2 = ev.aggregate(subset_results, subset_cases, ks=(1,), n_target=20)
    exact_ok = (
        "(100,150]" not in rep2["by_length_bin"] and "Var" not in rep2["by_bug_type"]
    )
    report(
        "report shape (21 buckets, 7 bug types, 5 bins; keys track input)",
        hist_ok and bug_keys_ok and bin_keys_ok and exact_ok,
        f"histogram={sum(rep['histogram'])}/{len(cases)}",
    )
