import random
import re

import pytest

from assertforge.corpus import SourceUnit
from assertforge.errors import NoAlternativeError, ParseFailure
from assertforge.mutate import (
    BugType,
    MutationRecord,
    apply_mutation,
    classify_relation,
    enumerate_sites,
    extract_referenced_signals,
    with_relation,
)


def unit(text, uid="u"):
    return SourceUnit(id=uid, path="", text=text)


# -- enumerate_sites ---------------------------------------------------------


def test_sites_or_line():
    sites = dict(enumerate_sites(unit("out = a | b;")))
    assert set(sites[1]) == {"Op", "Var", "Non_cond"}


def test_sites_value_line():
    sites = dict(enumerate_sites(unit("out = 4'b1010;")))
    assert set(sites[1]) == {"Value", "Var", "Non_cond"}


def test_sites_endmodule_not_a_site():
    assert enumerate_sites(unit("endmodule")) == []


def test_sites_cond_line():
    sites = dict(enumerate_sites(unit("if (valid) out <= in;")))
    assert "Cond" in sites[1] and "Non_cond" in sites[1]


def test_sites_skip_block_comment_lines():
    u = unit("x = a;\n/* c1\nc2 */\ny = b;\n")
    lines = [ln for ln, _ in enumerate_sites(u)]
    assert 2 not in lines and 3 not in lines
    assert 1 in lines and 4 in lines


# -- apply_mutation ----------------------------------------------------------


def all_mutants(u, line, kind, seeds=range(64)):
    out = set()
    for s in seeds:
        out.add(apply_mutation(u, line, kind, s).mutated_snippet)
    return out


def test_op_swap_matches_taxonomy_row():
    muts = all_mutants(unit("out = a | b;"), 1, "Op")
    assert "out = a & b;" in muts
    assert muts <= {"out = a & b;", "out = a ^ b;"}


def test_value_bit_flip_reachable():
    muts = all_mutants(unit("out = 4'b1010;"), 1, "Value")
    assert "out = 4'b1110;" in muts
    # every variant flips exactly one bit
    for m in muts:
        bits = re.search(r"'b([01]+)", m).group(1)
        assert sum(a != b for a, b in zip(bits, "1010")) == 1


def test_cond_negation_reachable():
    muts = all_mutants(unit("if (valid) out <= in;"), 1, "Cond")
    assert "if (!valid) out <= in;" in muts


def test_var_reserved_word_reachable():
    muts = all_mutants(unit("module m;\ninput in;\nout = in;\nendmodule"), 3, "Var")
    assert "out = input;" in muts


def test_edge_swap_reachable():
    u = unit("module m;\nalways @(posedge clk) q <= d;\nendmodule")
    muts = all_mutants(u, 2, "Cond")
    assert "always @(negedge clk) q <= d;" in muts


def test_determinism_same_seed_same_record():
    u = unit("module m;\nout = a + b;\nendmodule")
    for seed in (0, 7, 123456789, 2**62):
        assert apply_mutation(u, 2, "Op", seed) == apply_mutation(u, 2, "Op", seed)


def test_single_line_change_property():
    u = unit("module m;\nreg x;\nalways @(*) x = a + 4'd3;\nendmodule\n")
    for kind in ("Op", "Value", "Var", "Non_cond"):
        rec = apply_mutation(u, 3, kind, 11)
        original = u.text.split("\n")
        mutated = rec.apply_to(u.text).split("\n")
        diffs = [i for i, (a, b) in enumerate(zip(original, mutated)) if a != b]
        assert len(diffs) == 1 and diffs[0] == rec.line - 1


def test_no_alternative_raises():
    # A line with no numbers admits no Value mutation.
    with pytest.raises(NoAlternativeError):
        apply_mutation(unit("out = a;"), 1, "Value", 0)


def test_multi_line_comment_and_string_text_is_never_mutated():
    # Lines 2-3 sit inside or close a block comment, line 5 continues a
    # string. enumerate_sites leaves them out, and apply_mutation finds no
    # code tokens on them to rewrite, though their text looks like code.
    u = unit('x = a;\n/* y = b | c;\n   z = d + 1; */\ns = "one \\\n t = e & f";\n')
    assert [ln for ln, _ in enumerate_sites(u)] == [1]
    for line in (2, 3, 5):
        for kind in ("Var", "Value", "Op", "Cond", "Non_cond"):
            with pytest.raises(NoAlternativeError):
                apply_mutation(u, line, kind, 0)


def test_mutation_record_rejects_identity():
    with pytest.raises(ValueError):
        MutationRecord("u", 1, "x = a;", "x = a;", BugType("Op"), frozenset(), 0)


def test_lhs_targets_on_assignment():
    rec = apply_mutation(unit("out = a | b;"), 1, "Op", 0)
    assert rec.lhs_targets == frozenset({"out"})


def test_lhs_targets_concatenation():
    rec = apply_mutation(unit("assign {cout, sum} = a + b;"), 1, "Op", 0)
    assert rec.lhs_targets == frozenset({"cout", "sum"})


def test_lhs_targets_indexed():
    rec = apply_mutation(unit("mem[addr] <= data | 1;"), 1, "Op", 0)
    assert rec.lhs_targets == frozenset({"mem"})


def test_lhs_targets_governed_by_condition():
    u = unit("module m;\nalways @(posedge clk)\nif (en)\nbegin\nq <= d;\nr <= q;\nend\nendmodule")
    rec = apply_mutation(u, 3, "Cond", 0)
    assert rec.lhs_targets == frozenset({"q", "r"})


def test_lhs_targets_empty_flagged():
    u = unit("module m;\nalways @(posedge clk)\nbegin\nend\nendmodule")
    rec = apply_mutation(u, 2, "Cond", 0)
    assert rec.lhs_targets == frozenset()


# -- classify_relation -------------------------------------------------------

TABLE_SIGNALS = extract_referenced_signals("assert(out == in);")


def test_direct_classification():
    rec = MutationRecord(
        "u", 3, "out <= in;", "out <= in + 1;", BugType("Non_cond"), frozenset({"out"}), 0
    )
    assert classify_relation(rec, TABLE_SIGNALS) == "Direct"


def test_indirect_classification():
    rec = MutationRecord(
        "u", 3, "temp <= in;", "temp <= in + 1;", BugType("Non_cond"), frozenset({"temp"}), 0
    )
    assert classify_relation(rec, TABLE_SIGNALS) == "Indirect"


def test_empty_targets_indirect():
    rec = MutationRecord(
        "u", 3, "x;", "y;", BugType("Var"), frozenset(), 0
    )
    assert classify_relation(rec, TABLE_SIGNALS) == "Indirect"


def test_with_relation_resolves_axis():
    rec = MutationRecord(
        "u", 3, "out <= in;", "out <= in + 1;", BugType("Non_cond"), frozenset({"out"}), 0
    )
    assert with_relation(rec, TABLE_SIGNALS).bug_type == BugType("Non_cond", "Direct")


# -- extract_referenced_signals ----------------------------------------------


def test_signals_simple_assert():
    assert extract_referenced_signals("assert(out == in);") == {"out", "in"}


def test_signals_property_with_clock():
    sva = "assert property (@(posedge clk) a |-> b);"
    got = extract_referenced_signals(sva)
    # Oracle: independent regex identifier scan minus the keyword list.
    from assertforge.corpus import KEYWORDS

    oracle = {
        w
        for w in re.findall(r"[A-Za-z_][A-Za-z0-9_$]*", sva)
        if w not in KEYWORDS and not w.startswith("$")
    }
    assert got == oracle == {"clk", "a", "b"}


def test_signals_constant_assert_empty():
    assert extract_referenced_signals("assert(1);") == frozenset()


def test_signals_unbalanced_parens():
    with pytest.raises(ParseFailure):
        extract_referenced_signals("assert(out == (in);")


# -- batch properties --------------------------------------------------------


def test_cond_only_on_cond_sites(corpus_units):
    for u in corpus_units:
        for line, kinds in enumerate_sites(u):
            if "Cond" in kinds:
                text = u.text.split("\n")[line - 1]
                assert re.search(r"\b(if|case|casex|casez)\b|@", text), (u.id, line, text)


def test_seeded_batch_single_line_and_reproducible(accepted_units):
    rng = random.Random(99)
    produced = 0
    for u in accepted_units:
        sites = enumerate_sites(u)
        flat = [(ln, k) for ln, kinds in sites for k in kinds]
        if not flat:
            continue
        for _ in range(6):
            ln, kind = flat[rng.randrange(len(flat))]
            seed = rng.getrandbits(63)
            try:
                rec = apply_mutation(u, ln, kind, seed)
            except NoAlternativeError:
                continue
            produced += 1
            assert rec == apply_mutation(u, ln, kind, seed)
            orig_lines = u.text.split("\n")
            mut_lines = rec.apply_to(u.text).split("\n")
            assert len(orig_lines) == len(mut_lines)
            assert sum(a != b for a, b in zip(orig_lines, mut_lines)) == 1
    assert produced >= 100


# -- rework guard ------------------------------------------------------------


def test_mutation_lexes_only_the_mutated_line(monkeypatch, corpus_units):
    import assertforge.mutate as m

    calls = {"tokenize": 0, "pool": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(m, "tokenize", counting("tokenize", m.tokenize))
    monkeypatch.setattr(m, "_identifier_pool", counting("pool", m._identifier_pool))
    for u in corpus_units:
        calls.update(tokenize=0, pool=0)
        sites = enumerate_sites(u)
        assert calls == {"tokenize": 0, "pool": 0}, u.id  # sites never need the pool
        for line, kinds in sites:
            calls["tokenize"] = 0
            apply_mutation(u, line, kinds[0], 0)
            assert calls["tokenize"] == 1, (u.id, line)  # the mutated line alone
