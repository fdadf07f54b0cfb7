import csv
import gc
import io
import itertools
import json
import math
import random
import re
import tracemalloc
from dataclasses import asdict, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assertforge.dataset import BIN_LABELS, CASE_ROW, RESULTS_ROW, SOURCES
from assertforge.errors import AssertForgeError, DomainError
from assertforge.evalharness import (
    RETRY_SUFFIXES,
    CaseResult,
    EvalCase,
    Judged,
    ModelResponse,
    aggregate,
    collect_responses,
    judge,
    pass_at_k,
    report_csv,
    solve_prompt,
)
from assertforge.mutate import SYNTACTIC_KINDS
from assertforge.textutil import normalize_line_loose
from assertforge.toolchain import LlmReply, Toolchain, VerifyOutcome


def brute_force_pass_at_k(n, c, k):
    """Oracle: enumerate every k-subset of n samples; count those containing
    at least one of the c correct indices."""
    hits = 0
    total = 0
    correct = set(range(c))
    for subset in itertools.combinations(range(n), k):
        total += 1
        if correct & set(subset):
            hits += 1
    return hits / total


def make_case(cid="case-1", source="machine", syntactic="Op", relation="Direct", lb=0):
    return EvalCase(
        id=cid,
        source=source,
        spec="spec",
        buggy_sv_code="module m;\nout = a & b;\nassert(out == c);\nendmodule",
        log="FAIL step 1",
        golden_buggy_line="out = a & b;",
        golden_corrected_line="out = a | b;",
        bug_syntactic=syntactic,
        bug_relation=relation,
        length_bin=lb,
    )


# -- pass_at_k -----------------------------------------------------------------


def test_pass_at_1_is_c_over_n():
    assert pass_at_k(20, 10, 1) == 0.5


def test_pass_at_k_boundaries():
    assert pass_at_k(20, 0, 5) == 0.0
    assert pass_at_k(5, 5, 3) == 1.0


def test_pass_at_k_single_correct_among_20():
    assert pass_at_k(20, 1, 5) == 0.25
    assert abs(brute_force_pass_at_k(20, 1, 5) - 0.25) < 1e-12


def test_pass_at_k_matches_brute_force_small_n():
    for n in range(1, 13):
        for c in range(0, n + 1):
            for k in range(1, n + 1):
                assert abs(pass_at_k(n, c, k) - brute_force_pass_at_k(n, c, k)) < 1e-12


def test_pass_at_k_is_bit_identical_to_the_fraction_form_up_to_n_60():
    for n in range(1, 61):
        for k in range(1, n + 1):
            total = math.comb(n, k)
            for c in range(n + 1):
                want = float(1 - Fraction(math.comb(n - c, k), total))
                assert pass_at_k(n, c, k).hex() == want.hex(), (n, c, k)


def test_pass_at_k_domain_errors():
    for n, c, k in [(0, 0, 1), (10, -1, 1), (10, 11, 1), (10, 5, 0), (10, 5, 11)]:
        with pytest.raises(DomainError):
            pass_at_k(n, c, k)


@given(
    st.integers(min_value=1, max_value=20).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=0, max_value=n),
            st.integers(min_value=1, max_value=n),
        )
    )
)
def test_pass_at_k_monotone(params):
    n, c, k = params
    if c < n:
        assert pass_at_k(n, c, k) <= pass_at_k(n, c + 1, k)
    if k < n:
        assert pass_at_k(n, c, k) <= pass_at_k(n, c, k + 1)
    assert pass_at_k(n, c, 1) == pytest.approx(c / n, abs=1e-12)
    if c > n - k:
        assert pass_at_k(n, c, k) == 1.0


def test_pass_at_k_monte_carlo_3sigma():
    rng = np.random.default_rng(7)
    draws = 100_000
    for _ in range(25):
        n = 20
        c = int(rng.integers(0, n + 1))
        k = int(rng.integers(1, n + 1))
        exact = pass_at_k(n, c, k)
        sims = rng.hypergeometric(ngood=c, nbad=n - c, nsample=k, size=draws) > 0
        estimate = sims.mean()
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / draws)
        assert abs(estimate - exact) <= 3 * sigma + 1e-12, (n, c, k)


# -- judge ---------------------------------------------------------------------


def resp(buggy, fix, cot="why"):
    return ModelResponse.from_raw(json.dumps({"buggy_line": buggy, "fix": fix, "cot": cot}))


GOLDEN = replace(make_case(), golden_buggy_line="out <= in + 1;",
                 golden_corrected_line="out <= in;")


def test_from_raw_extracts_json_once(monkeypatch):
    import assertforge.evalharness as ev

    calls = []
    real = ev.extract_json_object
    monkeypatch.setattr(ev, "extract_json_object", lambda t: calls.append(t) or real(t))
    r = ModelResponse.from_raw('{"buggy_line": "a", "fix": "b", "cot": null}')
    assert len(calls) == 1
    assert r.valid_json and r.parsed == {"buggy_line": "a", "fix": "b", "cot": None}
    assert ModelResponse.from_raw('{"fix": "b"}').parsed is None


def test_judge_table_row_correct():
    assert judge(resp("out <= in + 1;", "out <= in;"), GOLDEN) == "correct"


def test_judge_wrong_fix_incorrect():
    assert judge(resp("out <= in + 1;", "out <= in - 1;"), GOLDEN) == "incorrect"


def test_judge_loose_whitespace_correct():
    assert judge(resp("out<=in+1;", "out<=in;"), GOLDEN) == "correct"


def test_judge_line_only_flag():
    r = resp("out <= in + 1;", "out <= wrong;")
    assert judge(r, GOLDEN) == "incorrect"
    assert judge(r, GOLDEN, line_only=True) == "correct"


def test_judge_requires_parsed():
    with pytest.raises(DomainError):
        judge(ModelResponse.from_raw("not json"), GOLDEN)


def test_judge_reverify_needs_verifier():
    with pytest.raises(DomainError, match="^reverify mode needs a configured verifier$"):
        judge(resp("a", "b"), GOLDEN, mode="reverify")


def test_judge_reverify_applies_fix():
    seen = {}

    def verifier(source, depth):
        seen["source"] = source
        return VerifyOutcome("proven", "PASS")

    tc = Toolchain(verify_backend=verifier)
    code = "module m;\nalways @(posedge clk)\n  out <= in + 1;\nassert(out == in);\nendmodule"
    verdict = judge(
        resp("out <= in + 1;", "out <= in;"),
        replace(GOLDEN, buggy_sv_code=code),
        mode="reverify",
        toolchain=tc,
    )
    assert verdict == "correct"
    assert "  out <= in;" in seen["source"].split("\n")


REVERIFY_CODE = "module m;\nout <= in + 1;\nassert(out == in);\nendmodule"


def test_judge_reverify_inconclusive_incorrect():
    tc = Toolchain(verify_backend=lambda s, d: VerifyOutcome("inconclusive", "UNKNOWN"))
    right = resp("out <= in + 1;", "out <= in;")
    case = replace(GOLDEN, buggy_sv_code=REVERIFY_CODE)
    assert judge(right, case, mode="reverify", toolchain=tc) == "incorrect"


def test_judge_reverify_tool_error_raises_with_the_log():
    tc = Toolchain(verify_backend=lambda s, d: VerifyOutcome("tool_error", "sby: cannot start"))
    with pytest.raises(AssertForgeError, match="sby: cannot start"):
        judge(resp("out <= in + 1;", "out <= in;"), replace(GOLDEN, buggy_sv_code=REVERIFY_CODE),
              mode="reverify", toolchain=tc)


def test_judge_reverify_failing_proof_incorrect():
    tc = Toolchain(verify_backend=lambda s, d: VerifyOutcome("assertion_failed", "FAIL", 1))
    code = "module m;\nout <= in + 1;\nassert(out == in);\nendmodule"
    verdict = judge(
        resp("out <= in + 1;", "out <= in;"),
        replace(GOLDEN, buggy_sv_code=code),
        mode="reverify",
        toolchain=tc,
    )
    assert verdict == "incorrect"


# -- collect_responses -----------------------------------------------------------


def scripted_solver(texts):
    it = iter(texts)

    def solver(req):
        return LlmReply(next(it), 1)

    return solver


VALID = json.dumps({"buggy_line": "out = a & b;", "fix": "out = a | b;", "cot": "c"})


def test_collect_all_valid():
    case = make_case()
    result = collect_responses(case, scripted_solver([VALID] * 25), n_target=20)
    assert result.n == 20 and result.c == 20
    assert len(result.responses) == 20


def test_collect_alternating_garbage():
    case = make_case()
    texts = ["garbage", VALID] * 25
    result = collect_responses(case, scripted_solver(texts), n_target=20)
    assert result.n == 20
    assert len(result.responses) == 40  # invalid responses retained
    assert sum(1 for r in result.responses if r.verdict == "invalid") == 20


def test_collect_a_reply_nested_too_deep_is_invalid():
    case = make_case()
    texts = ["[" * 200_000, VALID] * 20
    result = collect_responses(case, scripted_solver(texts), n_target=20)
    assert result.n == 20 and result.c == 20
    assert sum(1 for r in result.responses if r.verdict == "invalid") == 20


def test_collect_always_garbage_insufficient():
    case = make_case()
    calls = []

    def solver(req):
        calls.append(req)
        return LlmReply("nope", 1)

    with pytest.raises(AssertForgeError, match="^case case-1: collected 0 of 20 valid responses$"):
        collect_responses(case, solver, n_target=20)
    assert len(calls) == 60


def test_collect_nonces_distinct():
    seen = []

    def solver(req):
        seen.append(req.nonce)
        return LlmReply(VALID, 1)

    collect_responses(make_case("abc"), solver, n_target=5)
    assert seen == [f"abc:{i}" for i in range(5)]
    assert all(req_nonce for req_nonce in seen)


def test_collect_retry_prompt_escalates():
    prompts = []

    def solver(req):
        prompts.append(req.prompt_text)
        return LlmReply("junk" if len(prompts) < 3 else VALID, 1)

    collect_responses(make_case(), solver, n_target=1)
    assert prompts[0] == solve_prompt(make_case())
    assert prompts[1] != prompts[0]  # refined after an invalid reply
    assert prompts[1] == solve_prompt(make_case()) + RETRY_SUFFIXES[1]


def test_collect_valid_json_missing_keys_counts_incorrect():
    texts = [json.dumps({"something": 1})] * 20
    result = collect_responses(make_case(), scripted_solver(texts), n_target=20)
    assert result.n == 20 and result.c == 0
    assert all(r.verdict == "incorrect" for r in result.responses)


def test_collect_keeps_no_copy_of_the_replies():
    """The result may hold the solver's reply texts, but nothing that grows
    with them: no parsed copy of a reply outlives its verdict."""
    cot = "c" * 10_000
    texts = [json.dumps({"buggy_line": "out = a & b;", "fix": "out = a | b;", "cot": f"{cot}{i}"})
             for i in range(40)]
    solver = scripted_solver(texts)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = collect_responses(make_case(), solver, n_target=40)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.n == result.c == 40
    assert held <= 0.1 * sum(map(len, texts))


def test_judged_fields_are_the_results_row_response_keys():
    assert Judged._fields == tuple(RESULTS_ROW["responses"][0])


# -- aggregate ---------------------------------------------------------------------


def fabricated_result(cid, n, c):
    return CaseResult(cid, n, c, responses=())


def test_aggregate_two_cases_mean():
    cases = [make_case("a"), make_case("b")]
    results = [fabricated_result("a", 20, 20), fabricated_result("b", 20, 0)]
    report = aggregate(results, cases, ks=(1,))
    assert report["overall"]["pass@1"] == pytest.approx(0.5)


def test_aggregate_all_perfect():
    cases = [make_case(f"c{i}") for i in range(4)]
    results = [fabricated_result(f"c{i}", 20, 20) for i in range(4)]
    report = aggregate(results, cases, ks=(1, 5))
    assert report["overall"] == {"pass@1": 1.0, "pass@5": 1.0}
    assert report["histogram"][20] == 4 and sum(report["histogram"]) == 4


def test_aggregate_known_c_vector():
    cases = [make_case(f"c{i}") for i in range(4)]
    cs = [0, 1, 10, 20]
    results = [fabricated_result(f"c{i}", 20, c) for i, c in enumerate(cs)]
    report = aggregate(results, cases, ks=(5,))
    expected = sum(brute_force_pass_at_k(20, c, 5) for c in cs) / 4
    assert report["overall"]["pass@5"] == pytest.approx(expected, abs=1e-12)


def test_aggregate_breakdowns_and_histogram():
    cases = [
        make_case("a", source="machine", syntactic="Op", relation="Direct", lb=0),
        make_case("b", source="machine", syntactic="Value", relation="Indirect", lb=1),
        make_case("c", source="human", syntactic="Cond", relation="Direct", lb=0),
    ]
    results = [
        fabricated_result("a", 20, 20),
        fabricated_result("b", 20, 0),
        fabricated_result("c", 20, 10),
    ]
    report = aggregate(results, cases, ks=(1,))
    assert set(report["by_source"]) == {"machine", "human"}
    assert report["by_source"]["machine"]["pass@1"] == pytest.approx(0.5)
    assert set(report["by_bug_type"]) == {"Direct", "Indirect", "Op", "Value", "Cond"}
    assert report["by_bug_type"]["Direct"]["pass@1"] == pytest.approx(0.75)
    assert set(report["by_length_bin"]) == {"(0,50]", "(50,100]"}
    hist = report["histogram"]
    assert len(hist) == 21
    assert sum(hist) == 3
    assert hist[0] == 1 and hist[10] == 1 and hist[20] == 1


def test_aggregate_permutation_invariant():
    rng = random.Random(5)
    cases = [make_case(f"c{i}", lb=i % 5) for i in range(10)]
    results = [fabricated_result(f"c{i}", 20, rng.randrange(21)) for i in range(10)]
    r1 = aggregate(results, cases, ks=(1, 5))
    shuffled = results[:]
    rng.shuffle(shuffled)
    r2 = aggregate(shuffled, cases, ks=(1, 5))
    assert r1 == r2


def test_perfect_solver_all_rates_one():
    cases = [make_case(f"p{i}") for i in range(3)]
    results = []
    for case in cases:
        golden_reply = json.dumps(
            {
                "buggy_line": case.golden_buggy_line,
                "fix": case.golden_corrected_line,
                "cot": "done",
            }
        )
        results.append(collect_responses(case, scripted_solver([golden_reply] * 20)))
    report = aggregate(results, cases, ks=(1, 5))
    assert report["overall"] == {"pass@1": 1.0, "pass@5": 1.0}


def test_never_correct_solver_all_rates_zero():
    cases = [make_case(f"z{i}") for i in range(3)]
    wrong = json.dumps({"buggy_line": "nothing;", "fix": "nothing;", "cot": "?"})
    results = [collect_responses(c, scripted_solver([wrong] * 20)) for c in cases]
    report = aggregate(results, cases, ks=(1, 5))
    assert report["overall"] == {"pass@1": 0.0, "pass@5": 0.0}


def test_aggregate_empty_rejected():
    with pytest.raises(DomainError):
        aggregate([], [], ks=(1,))


def test_aggregate_n_below_k_rejected():
    with pytest.raises(DomainError):
        aggregate([fabricated_result("a", 3, 1)], [make_case("a")], ks=(5,))


def test_eval_case_json_roundtrip():
    case = make_case("rt")
    assert EvalCase.from_json(asdict(case)) == case


@pytest.mark.parametrize("syntactic, relation, message", [
    ("Bogus", "Direct", "unknown syntactic bug type: 'Bogus'"),
    ("Op", "Unknown", "unknown bug relation: 'Unknown'"),
    ("Op", "direct", "unknown bug relation: 'direct'"),
])
def test_eval_case_rejects_a_bug_type_outside_the_taxonomy(syntactic, relation, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make_case(syntactic=syntactic, relation=relation)


def test_eval_case_fields_are_the_readme_case_row():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    [line] = [ln for ln in readme.splitlines() if ln.startswith("| benchmark cases |")]
    readme_fields = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", line))
    names = [f.name for f in fields(EvalCase)]
    assert names == readme_fields
    assert set(names) == set(CASE_ROW) | {"length_bin"}


_TEXT = st.text(max_size=30)


@st.composite
def case_rows(draw):
    return {
        "id": draw(_TEXT),
        "source": draw(st.sampled_from(SOURCES)),
        "spec": draw(_TEXT),
        "buggy_sv_code": draw(_TEXT),
        "log": draw(_TEXT),
        "golden_buggy_line": draw(_TEXT),
        "golden_corrected_line": draw(_TEXT),
        "bug_syntactic": draw(st.sampled_from(SYNTACTIC_KINDS)),
        "bug_relation": draw(st.sampled_from(("Direct", "Indirect"))),
        "length_bin": draw(st.integers(0, 4)),
    }


@settings(max_examples=100, derandomize=True, deadline=None)
@given(case_rows())
def test_eval_case_is_its_row(row):
    case = EvalCase.from_json(row)
    assert asdict(case) == row
    assert json.dumps(asdict(case)) == json.dumps(row)
    assert case.loose_golden == (normalize_line_loose(row["golden_buggy_line"]),
                                 normalize_line_loose(row["golden_corrected_line"]))


def test_report_json_shape():
    doc = aggregate([fabricated_result("a", 20, 10)], [make_case("a")], ks=(1, 5))
    assert set(doc) == {
        "case_count",
        "ks",
        "overall",
        "by_source",
        "by_bug_type",
        "by_length_bin",
        "histogram",
    }
    assert doc["overall"]["pass@1"] == pytest.approx(0.5)
    csv = report_csv(doc)
    assert csv.splitlines()[0] == "table,key,pass@1,pass@5"


def test_report_csv_rows_parse_with_every_length_bin():
    cases = [make_case(f"c{lb}", lb=lb) for lb in range(len(BIN_LABELS))]
    results = [fabricated_result(f"c{lb}", 20, 4 * lb) for lb in range(len(BIN_LABELS))]
    rows = list(csv.reader(io.StringIO(report_csv(aggregate(results, cases, ks=(1, 5))))))
    header, body = rows[0], rows[1:]
    assert all(len(row) == len(header) for row in body)
    assert [row[1] for row in body if row[0] == "length_bin"] == list(BIN_LABELS)
