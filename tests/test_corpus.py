import random
import re
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assertforge.corpus import (
    SourceUnit,
    classify_rejection,
    filter_units,
    load_corpus_dir,
    tokenize,
)
from conftest import select_accepted
from fixture_corpus import CORPUS_FILES, EXPECTED_ACCEPTED, EXPECTED_REJECTED


def kinds_of(text):
    return [(t.kind, t.text) for t in tokenize(text) if t.kind != "whitespace"]


def test_tokenize_empty():
    assert tokenize("") == ()


def test_tokenize_minimal_module():
    toks = tokenize("module m; endmodule")
    assert kinds_of("module m; endmodule") == [
        ("keyword", "module"),
        ("identifier", "m"),
        ("punctuation", ";"),
        ("keyword", "endmodule"),
    ]
    assert "".join(t.text for t in toks) == "module m; endmodule"


def test_tokenize_operator_kind():
    by_text = {t.text: t.kind for t in tokenize("out = a | b;")}
    assert by_text["|"] == "operator"
    assert by_text["="] == "operator"


def test_tokenize_verilog_keywords_tagged():
    toks = {t.text: t.kind for t in tokenize("always if case assign wire posedge foo")}
    for kw in ("always", "if", "case", "assign", "wire", "posedge"):
        assert toks[kw] == "keyword"
    assert toks["foo"] == "identifier"


def test_tokenize_numbers_and_strings():
    toks = kinds_of('x = 4\'b1010 + 8\'hFF + 42; $display("hi %d", y);')
    texts = {text: kind for kind, text in toks}
    assert texts["4'b1010"] == "number"
    assert texts["8'hFF"] == "number"
    assert texts["42"] == "number"
    assert texts['"hi %d"'] == "string"
    assert texts["$display"] == "other"


def test_tokenize_line_col_tracking():
    toks = tokenize("a\n  bb\n")
    a = next(t for t in toks if t.text == "a")
    bb = next(t for t in toks if t.text == "bb")
    assert (a.line, a.col) == (1, 1)
    assert (bb.line, bb.col) == (2, 3)


def test_roundtrip_fixture_corpus():
    for name, text in CORPUS_FILES.items():
        assert "".join(t.text for t in tokenize(text)) == text, name


@settings(max_examples=200)
@given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=126), max_size=200))
def test_roundtrip_random_ascii(text):
    assert "".join(t.text for t in tokenize(text)) == text


def test_tokenize_builds_each_token_once():
    # Every fixture file joined into one unit of about 16,000 characters. A
    # second copy of the stream while lexing shows as a peak well above what
    # the result holds (1.38x when plain tuples were converted at the end).
    text = "\n".join(CORPUS_FILES.values())
    tokenize(text)  # warm the regex and string caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tokens = tokenize(text)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tokens) > 4000
    assert peak - base <= 1.15 * (live - base)


def test_roundtrip_comment_edge_cases():
    for text in ("// eof comment", "/* unterminated", '"unterminated string', "/**/"):
        assert "".join(t.text for t in tokenize(text)) == text


def test_extract_modules_single():
    u = SourceUnit(id="t", path="", text="module adder; endmodule")
    assert list(u.module_names) == ["adder"]


def test_extract_modules_two_in_order():
    u = SourceUnit(id="t", path="", text="module a; endmodule\nmodule b; endmodule\n")
    assert list(u.module_names) == ["a", "b"]


def test_extract_modules_none():
    u = SourceUnit(id="t", path="", text="endmodule")
    assert list(u.module_names) == []


def test_classify_constant_assign_rejected():
    u = SourceUnit(id="t", path="", text="module m; assign x = 0; endmodule")
    reason = classify_rejection(u)
    assert reason is not None and reason.code == "no_functional_logic"


def test_classify_missing_module_rejected():
    u = SourceUnit(id="t", path="", text="assign x = y;")
    reason = classify_rejection(u)
    assert reason is not None and reason.code == "missing_module_boundary"


def test_classify_always_block_accepted():
    u = SourceUnit(id="t", path="", text="module m; always @(posedge clk) q <= d; endmodule")
    assert classify_rejection(u) is None


def test_classify_computing_assign_accepted():
    u = SourceUnit(id="t", path="", text="module m; assign y = a & b; endmodule")
    assert classify_rejection(u) is None


def test_classify_instantiation_accepted():
    u = SourceUnit(id="t", path="", text="module top; dff u1 (.clk(c), .d(d), .q(q)); endmodule")
    assert classify_rejection(u) is None


def test_classify_is_deterministic(corpus_units):
    for u in corpus_units:
        assert classify_rejection(u) == classify_rejection(u)


def _kept_and_rejected(rows):
    """(accepted ids, [(id, status)] of the rest) from filter report rows."""
    kept = [r["id"] for r in rows if r["status"] == "accepted"]
    rejected = [(r["id"], r["status"]) for r in rows if r["status"] != "accepted"]
    return kept, rejected


def test_dedup_byte_identical():
    a = SourceUnit(id="a", path="", text="module m; always @(x) y = x; endmodule")
    b = SourceUnit(id="b", path="", text="module m; always @(x) y = x; endmodule")
    rows = filter_units([a, b])
    kept, rejected = _kept_and_rejected(rows)
    assert kept == ["a"]
    assert rejected == [("b", "duplicate")]
    assert rows[1]["detail"] == "duplicate of a"


def _strip_comments_ws(text):
    # Independent normalization: regex comment strip, then drop all whitespace.
    text = re.sub(r"//[^\n]*|/\*.*?\*/", "", text, flags=re.DOTALL)
    return re.sub(r"\s+", "", text)


def test_dedup_comment_only_difference():
    plain = "module m;\nalways @(x) y = x;\nendmodule\n"
    commented = "// header\nmodule m;\nalways @(x) y = x; /* tail */\nendmodule\n"
    # Oracle: an independent regex pass says these are the same code.
    assert _strip_comments_ws(plain) == _strip_comments_ws(commented)
    a = SourceUnit(id="a", path="", text=plain)
    b = SourceUnit(id="b", path="", text=commented)
    kept, rejected = _kept_and_rejected(filter_units([a, b]))
    assert kept == ["a"]
    assert rejected[0][1] == "duplicate"


def test_dedup_distinct_modules_kept():
    a = SourceUnit(id="a", path="", text="module m; always @(x) y = x; endmodule")
    b = SourceUnit(id="b", path="", text="module n; always @(x) z = x; endmodule")
    kept, rejected = _kept_and_rejected(filter_units([a, b]))
    assert len(kept) == 2 and not rejected


def test_dedup_idempotent(corpus_units):
    kept = select_accepted(corpus_units, filter_units(corpus_units))
    rows2 = filter_units(kept)
    kept2 = select_accepted(kept, rows2)
    _, rejected2 = _kept_and_rejected(rows2)
    assert kept2 == kept and not rejected2


def test_filter_units_fixture_expectations(corpus_units):
    rows = filter_units(corpus_units)
    by_id = {r["id"]: r for r in rows}
    for uid, code in EXPECTED_REJECTED.items():
        assert by_id[uid]["status"] == code, uid
    for uid in EXPECTED_ACCEPTED:
        assert by_id[uid]["status"] == "accepted", uid
    assert {r["id"] for r in rows if r["status"] == "accepted"} == set(EXPECTED_ACCEPTED)
    assert set(rows[0]) == {"id", "path", "status", "detail"}


def test_filter_units_frees_each_unit_before_reading_the_next(corpus_units):
    texts = [u.text for u in corpus_units]
    refs = []
    alive_when_next_asked = []

    def tracked(unit):
        refs.append(weakref.ref(unit))
        return unit

    def stream():
        for i, text in enumerate(texts):
            if refs:
                alive_when_next_asked.append(refs[-1]() is not None)
            yield tracked(SourceUnit(id=f"u{i}", path="", text=text))

    rows = filter_units(stream())
    assert len(rows) == len(texts)
    assert alive_when_next_asked == [False] * (len(texts) - 1)
    assert refs[-1]() is None


def test_filter_never_lexes(monkeypatch, corpus_dir):
    import assertforge.corpus as c

    lexed = []
    real = c.tokenize

    def counting(text):
        lexed.append(text)
        return real(text)

    monkeypatch.setattr(c, "tokenize", counting)
    rows = filter_units(load_corpus_dir(corpus_dir, []))
    assert len(rows) > 1 and lexed == []


def test_load_corpus_dir_missing_dir_raises_before_iteration(tmp_path):
    with pytest.raises(FileNotFoundError, match="corpus directory not found"):
        load_corpus_dir(tmp_path / "nope", [])


def test_source_unit_invariants(corpus_units):
    for u in corpus_units:
        if u.text:
            assert u.line_count >= 1
        assert u.dedup_key == SourceUnit(id="again", path="", text=u.text).dedup_key


def test_random_snippet_roundtrip_seeded():
    rng = random.Random(1234)
    pieces = ["module", "assign", "x", "=", "4'b1010", "|", "&&", ";", "//c", "\n", " ", '"s"']
    for _ in range(200):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 30)))
        assert "".join(t.text for t in tokenize(text)) == text
