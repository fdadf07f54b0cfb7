import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from assertforge.corpus import SourceUnit, tokenize
from assertforge.errors import AssertForgeError, NoAlternativeError
from assertforge.mutate import (
    _BASED_RE,
    MutationRecord,
    _literal_rewrites,
    apply_mutation,
    classify_relation,
    edit,
    enumerate_sites,
    extract_referenced_signals,
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


_LITERALS = st.one_of(
    st.from_regex(_BASED_RE, fullmatch=True),
    st.from_regex(r"[0-9][0-9_]*(\.[0-9][0-9_]*)?([eE][+-]?[0-9]+)?", fullmatch=True),
    st.text(alphabet="0123456789_'sSbBoOdDhHxXzZ?aAfF.eE+-"),
)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_LITERALS)
def test_no_literal_rewrite_is_the_literal_itself(text):
    assert text not in list(_literal_rewrites(text))


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
        MutationRecord(1, "x = a;", "x = a;", "Op", frozenset(), 0)


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


def test_lhs_targets_skip_a_comparison_inside_parentheses():
    u = unit("module m;\nalways @(posedge clk)\nif (en) begin\n"
             "  if (x <= y) q <= d;\nend\nendmodule")
    assert edit(u, 3, "if (!en) begin", 0).lhs_targets == frozenset({"q"})
    rec = apply_mutation(u, 3, "Cond", 0)
    assert rec.lhs_targets == frozenset({"q"})
    assert classify_relation(rec, frozenset({"x"})) == "Indirect"


def test_lhs_targets_keep_an_assignment_in_a_for_header():
    u = unit("module m;\nalways @(posedge clk)\nif (en) begin\n"
             "  for (i = 0; i <= 3; i = i + 1) m[i] <= d;\nend\nendmodule")
    assert edit(u, 3, "if (!en) begin", 0).lhs_targets == frozenset({"i", "m"})


RESET_TEXT = ("module m(input clk, input rst, input en, input d, output reg q, output reg r);\n"
              "always @(posedge clk)\n"
              "  if (rst) begin q <= 0; r <= 0; end\n"
              "  else if (en) q <= d;\n"
              "endmodule")


def test_lhs_targets_come_from_the_statement_that_holds_the_change():
    u = unit(RESET_TEXT)
    by_snippet = {rec.mutated_snippet: rec for rec in
                  (apply_mutation(u, 3, "Value", s) for s in range(8))}
    assert by_snippet["  if (rst) begin q <= 1; r <= 0; end"].lhs_targets == {"q"}
    assert by_snippet["  if (rst) begin q <= 0; r <= 1; end"].lhs_targets == {"r"}
    assert edit(u, 3, "  if (rst) begin q <= 0; r <= ~r; end", 0).lhs_targets == {"r"}


def test_a_condition_edit_gets_every_name_its_block_assigns_on_the_same_line():
    u = unit(RESET_TEXT)
    rec = apply_mutation(u, 3, "Cond", 0)
    assert rec.mutated_snippet == "  if (!rst) begin q <= 0; r <= 0; end"
    assert rec.lhs_targets == {"q", "r"}


def test_op_never_swaps_an_assignment_operator():
    # `r <= 0` as `r < 0` is no statement; a comparison in a later statement still swaps.
    assert "Op" not in dict(enumerate_sites(unit(RESET_TEXT)))[3]
    with pytest.raises(NoAlternativeError):
        apply_mutation(unit(RESET_TEXT), 3, "Op", 0)
    assert all_mutants(unit("q <= 0; r <= a < b;"), 1, "Op") == {
        "q <= 0; r <= a > b;", "q <= 0; r <= a <= b;", "q <= 0; r <= a >= b;"}
    # The first statement `) if (a <= b` assigns, so its `<=` never swaps and
    # its right-hand side `b` is a Non_cond site.
    assert dict(enumerate_sites(unit(") if (a <= b ; c)")))[1] == ("Var", "Cond", "Non_cond")


def test_a_governed_assignment_with_parentheses_in_its_index_keeps_its_target():
    u = unit("module m;\nalways @(posedge clk)\n  if (en)\n    mem[(i+1)] <= d;\nendmodule")
    rec = apply_mutation(u, 3, "Cond", 0)
    assert rec.lhs_targets == {"mem"}
    assert classify_relation(rec, frozenset({"mem"})) == "Direct"


def test_a_governed_for_loop_gets_its_loop_and_body_targets():
    u = unit("module m;\nalways @(posedge clk)\n  if (a)\n"
             "    for (k = 0; k < 4; k = k + 1) a[k] <= a;\nendmodule")
    assert apply_mutation(u, 3, "Cond", 0).lhs_targets == {"k", "a"}


# -- governed statements, read whole -------------------------------------------

GOVERNED_RESET = ("module m(input clk, input rst, input a, input b, input d, "
                  "output reg q, output reg r);\n"
                  "always @(posedge clk)\n"
                  "  if (rst) begin q <= a; r <= b; end\n"
                  "  else q <= d;\n"
                  "endmodule")


def test_an_event_governs_an_if_else_whose_then_branch_is_a_block():
    u = unit(GOVERNED_RESET)
    for seed in range(4):
        rec = apply_mutation(u, 2, "Cond", seed)
        assert rec.mutated_snippet == "always @(negedge clk)"
        assert rec.lhs_targets == {"q", "r"}
        assert classify_relation(rec, frozenset({"r"})) == "Direct"


@pytest.mark.parametrize("kind", ["Var", "Non_cond"])
def test_every_statement_of_a_line_is_a_site(kind):
    # The second statement `r <= b` of line 3 is rewritten too, and such a
    # record's targets are the name that statement then assigns.
    u = unit(GOVERNED_RESET)
    second = [rec for rec in (apply_mutation(u, 3, kind, s) for s in range(400))
              if rec.mutated_snippet.split(";")[1] != " r <= b"]
    assert second
    for rec in second:
        first, stmt, _ = rec.mutated_snippet.split(";")
        assert first == "  if (rst) begin q <= a"
        name = stmt.split("<=")[0].strip()
        # `input` is no name: that statement assigns nothing, so the `if` governs.
        assert rec.lhs_targets == ({name} if name != "input" else {"q", "r"})


CASE_BODY = "  case (s)\n    0: y = a;\n    default: z = b;\n  endcase\n"


@pytest.mark.parametrize("header", ["always @(s or a or b)\n", "always @*\n"])
def test_a_case_condition_governs_every_item(header):
    u = unit("module m(input s, input a, input b, output reg y, output reg z);\n"
             + header + CASE_BODY + "endmodule")
    rec = apply_mutation(u, 3, "Cond", 0)
    assert rec.mutated_snippet == "  case (!s)"
    assert rec.lhs_targets == {"y", "z"}
    assert classify_relation(rec, frozenset({"z"})) == "Direct"


def test_an_event_governs_a_case_with_no_begin():
    u = unit("module m(input clk, input s, input a, input b, output reg y, output reg z);\n"
             "always @(posedge clk)\n" + CASE_BODY + "endmodule")
    assert apply_mutation(u, 2, "Cond", 0).lhs_targets == {"y", "z"}


def test_an_event_governs_an_if_else_with_no_begin():
    u = unit("module m;\nalways @(posedge clk)\n  if (a) q <= b;\n  else r <= c;\nendmodule")
    assert apply_mutation(u, 2, "Cond", 0).lhs_targets == {"q", "r"}


def test_an_event_governs_a_for_that_governs_an_if_else():
    u = unit("module m;\nalways @(posedge clk)\n  for (k = 0; k < 4; k = k + 1)\n"
             "    if (en[k]) q[k] <= d;\n    else r[k] <= 0;\nendmodule")
    assert apply_mutation(u, 2, "Cond", 0).lhs_targets == {"k", "q", "r"}


def test_an_else_if_chain_of_any_depth_is_read_whole():
    chain = "".join(f"  else if (s == {k}) q <= {k};\n" for k in range(1, 3000))
    u = unit("module m;\nalways @(posedge clk)\n  if (s == 0) q <= 0;\n" + chain
             + "  else r <= 1;\nendmodule")
    rec = apply_mutation(u, 2, "Cond", 0)
    assert rec.kind == "Cond" and rec.lhs_targets == {"q", "r"}


def test_a_negated_if_condition_governs_its_else_too():
    # Negating `a` also changes when `r <= c` runs.
    u = unit("module m;\nalways @(posedge clk)\n  if (a) q <= b;\n  else r <= c;\nendmodule")
    rec = apply_mutation(u, 3, "Cond", 0)
    assert rec.mutated_snippet == "  if (!a) q <= b;"
    assert rec.lhs_targets == {"q", "r"}
    assert classify_relation(rec, frozenset({"r"})) == "Direct"


def test_an_else_if_condition_governs_its_own_branches_only():
    u = unit("module m;\nalways @(posedge clk)\n  if (a) p <= 0;\n"
             "  else if (b) q <= 1;\n  else r <= 2;\nendmodule")
    rec = apply_mutation(u, 4, "Cond", 0)
    assert rec.mutated_snippet == "  else if (!b) q <= 1;"
    assert rec.lhs_targets == {"q", "r"}


STATE_CASE = ("module m(input clk, input s, output reg y, output reg z);\n"
              "always @(posedge clk)\n  case (s)\n    IDLE: y = BUSY;\n"
              "    BUSY, WAIT: z = IDLE;\n  endcase\nendmodule")


def test_a_case_item_label_is_no_assigned_name():
    u = unit(STATE_CASE)
    for line, name in ((4, "y"), (5, "z")):
        recs = [apply_mutation(u, line, kind, s) for kind in ("Var", "Non_cond") for s in range(40)]
        kept = [r for r in recs if f" {name} = " in r.mutated_snippet]  # its target not rewritten
        assert kept and {r.lhs_targets for r in kept} == {frozenset({name})}
    negated = apply_mutation(u, 3, "Cond", 0)
    assert negated.mutated_snippet == "  case (!s)"
    assert negated.lhs_targets == {"y", "z"}
    assert classify_relation(negated, frozenset({"IDLE", "BUSY"})) == "Indirect"


def test_a_named_block_name_is_no_assigned_name():
    clocked = unit("module m;\nalways @(posedge clk) begin : blk\n  q <= a + 1;\nend\nendmodule")
    edge = apply_mutation(clocked, 2, "Cond", 0)
    assert edge.mutated_snippet == "always @(negedge clk) begin : blk"
    assert edge.lhs_targets == {"q"}
    assert classify_relation(edge, frozenset({"blk"})) == "Indirect"
    u = unit("module m;\nalways @(posedge clk)\n  if (a) begin : blk q <= b; end\nendmodule")
    assert apply_mutation(u, 3, "Non_cond", 0).lhs_targets == {"q"}
    renamed = [apply_mutation(u, 3, "Var", s).mutated_snippet for s in range(40)]
    assert renamed and all("begin : blk " in m for m in renamed)


def test_a_part_select_keeps_its_name():
    u = unit("module m;\nalways @*\n  x[3:0] = a;\n  {c, d[1:0]} = b;\nendmodule")
    assert apply_mutation(u, 3, "Non_cond", 0).lhs_targets == {"x"}
    assert apply_mutation(u, 4, "Non_cond", 0).lhs_targets == {"c", "d"}


@pytest.mark.parametrize("text, targets", [
    ("always @(posedge clk) begin\n  q <= a;\n  begin r <= b; end\n  s <= c;", {"q", "r", "s"}),
    ("always @(posedge clk)\n  case (x)\n    0: q <= a;\n    1: r <= b;", {"q", "r"}),
    ("always @(posedge clk)\n  if (a\n    q <= b;\n  r <= c;", set()),
], ids=["begin", "case", "paren"])
def test_a_statement_left_open_reads_to_the_end_of_the_unit(text, targets):
    assert apply_mutation(unit(text), 1, "Cond", 0).lhs_targets == targets


def test_edit_returns_none_for_an_edit_that_is_no_bug():
    u = unit("x = a; // note\ny = b; /* spans\nlines */\n")
    assert edit(u, 1, "x  =  a;   // another note", 0) is None
    assert edit(u, 2, "y = ~b; /* spans", 0) is None  # a tainted line
    assert edit(u, 1, "x = ~a;", 0).lhs_targets == {"x"}


def test_lhs_targets_empty_flagged():
    u = unit("module m;\nalways @(posedge clk)\nbegin\nend\nendmodule")
    rec = apply_mutation(u, 2, "Cond", 0)
    assert rec.lhs_targets == frozenset()


# -- classify_relation -------------------------------------------------------

TABLE_SIGNALS = extract_referenced_signals("assert(out == in);")


def test_direct_classification():
    rec = MutationRecord(3, "out <= in;", "out <= in + 1;", "Non_cond", frozenset({"out"}), 0)
    assert classify_relation(rec, TABLE_SIGNALS) == "Direct"


def test_indirect_classification():
    rec = MutationRecord(3, "temp <= in;", "temp <= in + 1;", "Non_cond", frozenset({"temp"}), 0)
    assert classify_relation(rec, TABLE_SIGNALS) == "Indirect"


def test_empty_targets_indirect():
    rec = MutationRecord(3, "x;", "y;", "Var", frozenset(), 0)
    assert classify_relation(rec, TABLE_SIGNALS) == "Indirect"


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
    with pytest.raises(AssertForgeError, match="^unbalanced parentheses in assertion$"):
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


def test_enumerate_sites_analyses_each_untainted_line_once(monkeypatch, corpus_units):
    import assertforge.mutate as m

    analysed = []
    real = m._analyze_tokens
    monkeypatch.setattr(m, "_analyze_tokens", lambda toks: analysed.append(toks[0].line) or real(toks))
    for u in corpus_units + [unit(RESET_TEXT), unit("q <= 0; r <= a < b;\n) if (a <= b ; c)")]:
        analysed.clear()
        enumerate_sites(u)
        lines = {t.line for t in u.tokens} - u.tokens.tainted
        assert sorted(analysed) == sorted(lines), u.id


_LINE_WORDS = ["a", "b", "q", "if", "case", "@", "(", ")", "(", ")", ";", ";", "=", "<=", "<",
               "[", "]", "{", "}", ",", "begin", "end", "1", "+", "posedge", "for"]


def _statement_texts(line):
    """``line`` cut at each ``;`` outside parentheses, the ``;`` left out: the
    offset and text of each statement."""
    out, start, depth = [], 0, 0
    for t in tokenize(line):
        if t.text == ";" and depth == 0:
            out.append((start, line[start : t.col - 1]))
            start = t.col
        depth += (t.text == "(") - (t.text == ")")
    return out + [(start, line[start:])]


def _op_rewrites(text):
    try:
        return all_mutants(unit(text), 1, "Op")
    except NoAlternativeError:
        return set()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(_LINE_WORDS), min_size=1, max_size=24))
@example(") if ( ; a = b )".split())  # a cut crosses the span: `a` opens statement 2
@example("if ( a ) q <= b ; r = 1 ; ; c <= ( d = e )".split())
def test_each_statements_assignment_is_the_one_its_own_analysis_finds(words):
    # Op on a whole line against Op on each of its statements as a unit of its
    # own: the line's one pass skips the same assignment operators.
    line = " ".join(words)
    expected = {line[:at] + m + line[at + len(text):]
                for at, text in _statement_texts(line) for m in _op_rewrites(text)}
    assert _op_rewrites(line) == expected
