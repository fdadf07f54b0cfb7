import gc
import os
import random
import re
import tracemalloc
import weakref
from pathlib import Path, PurePath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assertforge import corpus
from assertforge.corpus import SourceUnit, filter_units, load_corpus_dir, tokenize
from conftest import select_accepted
from fixture_corpus import CORPUS_FILES, EXPECTED_ACCEPTED, EXPECTED_REJECTED
from test_lexer_differential import assert_positions


def kinds_of(text):
    return [(t.kind, t.text) for t in tokenize(text) if t.kind != "whitespace"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_minimal_module():
    toks = tokenize("module m; endmodule")
    assert kinds_of("module m; endmodule") == [
        ("keyword", "module"),
        ("identifier", "m"),
        ("punctuation", ";"),
        ("keyword", "endmodule"),
    ]
    assert_positions("module m; endmodule", toks)


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


# The round-trip tests: the tokens at their positions, with only whitespace
# and comments between them, give back the text.
def test_roundtrip_fixture_corpus():
    for name, text in CORPUS_FILES.items():
        assert_positions(text, tokenize(text), name)


@settings(max_examples=200)
@given(st.text(alphabet=st.characters(min_codepoint=9, max_codepoint=126), max_size=200))
def test_roundtrip_random_ascii(text):
    assert_positions(text, tokenize(text))


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


def test_a_unit_holds_only_significant_tokens_with_one_str_per_lexeme():
    shared = 0
    for name, text in CORPUS_FILES.items():
        first_of = {}
        for t in SourceUnit(id=name, path="", text=text).tokens:
            assert t.kind not in ("whitespace", "comment"), (name, t)
            shared += t.text in first_of and len(t.text) > 1  # Python caches 1-char strs
            assert first_of.setdefault(t.text, t.text) is t.text, (name, t)
    assert shared > 1000


def test_roundtrip_comment_edge_cases():
    for text in ("// eof comment", "/* unterminated", '"unterminated string', "/**/"):
        assert_positions(text, tokenize(text), text)


def test_extract_modules_single():
    u = SourceUnit(id="t", path="", text="module adder; endmodule")
    assert list(u.module_names) == ["adder"]


def test_extract_modules_two_in_order():
    u = SourceUnit(id="t", path="", text="module a; endmodule\nmodule b; endmodule\n")
    assert list(u.module_names) == ["a", "b"]


def test_extract_modules_none():
    u = SourceUnit(id="t", path="", text="endmodule")
    assert list(u.module_names) == []


def status_of(u):
    """(status, detail) of the filter report row of ``u`` alone."""
    [row] = filter_units([u])
    return row["status"], row["detail"]


def test_classify_constant_assign_rejected():
    u = SourceUnit(id="t", path="", text="module m; assign x = 0; endmodule")
    assert status_of(u) == (
        "no_functional_logic",
        "no procedural block, control flow, computing assign, or instantiation")


def test_classify_missing_module_rejected():
    u = SourceUnit(id="t", path="", text="assign x = y;")
    assert status_of(u) == ("missing_module_boundary", "missing keyword(s): module, endmodule")


def test_classify_always_block_accepted():
    u = SourceUnit(id="t", path="", text="module m; always @(posedge clk) q <= d; endmodule")
    assert status_of(u) == ("accepted", "")


def test_classify_computing_assign_accepted():
    u = SourceUnit(id="t", path="", text="module m; assign y = a & b; endmodule")
    assert status_of(u) == ("accepted", "")


def test_classify_instantiation_accepted():
    u = SourceUnit(id="t", path="", text="module top; dff u1 (.clk(c), .d(d), .q(q)); endmodule")
    assert status_of(u) == ("accepted", "")


def test_classify_is_deterministic(corpus_units):
    for u in corpus_units:
        assert status_of(u) == status_of(u)


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


def test_filter_leaves_the_fixed_kind_table_as_it_was_at_import(corpus_units):
    # Each file's identifiers, numbers and strings are classified and tagged
    # in tables dropped with the file, so filtering never grows a module table.
    at_import = dict(corpus._KIND_OF_LEXEME)
    tagged_at_import = dict(corpus._TAGGED)
    names = [f"sig_{i}_{j}" for i in range(50) for j in range(4)]
    distinct = [SourceUnit(id=f"d{i}", path="", text=(
        f"module m_{i}(input {names[4 * i]}, output {names[4 * i + 1]});\n"
        f"  assign {names[4 * i + 1]} = {names[4 * i]} & {names[4 * i + 2]} | {i}'d{i};\n"
        f'  wire {names[4 * i + 3]}; initial $display("u{i}");\nendmodule\n'))
        for i in range(50)]
    rows = filter_units(corpus_units) + filter_units(distinct)
    assert [r["status"] for r in rows[-50:]] == ["accepted"] * 50
    assert corpus._KIND_OF_LEXEME == at_import
    assert corpus._TAGGED == tagged_at_import
    assert not any(name in table for name in names
                   for table in (corpus._KIND_OF_LEXEME, corpus._TAGGED))


def test_filtering_copies_of_a_large_file_peaks_as_filtering_it_once():
    # A file's lexemes, tagged table and hashed blob die with its iteration:
    # the previous file's, still alive, would add their whole size to the peak.
    text = "\n".join(CORPUS_FILES.values()) * 4  # about 64,000 characters

    def peak_of(k: int) -> int:
        units = (SourceUnit(id=f"u{i}", path="", text=text) for i in range(k))
        tracemalloc.start()
        try:
            rows = filter_units(units)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r["status"] for r in rows] == ["accepted"] + ["duplicate"] * (k - 1)
        return peak

    peak_of(1)  # warm the regex and string caches
    once = peak_of(1)
    assert once > 400_000
    assert peak_of(5) <= once + 16_384


def test_load_corpus_dir_missing_dir_raises_before_iteration(tmp_path):
    with pytest.raises(FileNotFoundError, match="corpus directory not found"):
        load_corpus_dir(tmp_path / "nope", [])


def reference_listing(root, errors: list[dict]) -> list[SourceUnit]:
    """The listing as it was before it held names: every *.v / *.sv ``Path``
    under ``root``, sorted by relative POSIX path, each read by ``read_unit``."""
    root = Path(root)
    paths = sorted((p for p in root.rglob("*") if p.is_file() and p.suffix in (".v", ".sv")),
                   key=lambda p: p.relative_to(root).as_posix())
    units = (corpus.read_unit(p.relative_to(root).as_posix(), p, errors) for p in paths)
    return [u for u in units if u is not None]


@pytest.mark.parametrize("spelling", ["c", "c/", "./c", "absolute"])
def test_load_corpus_dir_lists_as_the_path_listing_did(tmp_path, monkeypatch, spelling):
    c = tmp_path / "c"
    for rel in ("top.v", "Top.v", "b.sv", "a/x.V", "a/inc.svh", "a/README", "a/.hidden.v",
                "a/B.sv", "a/b/deep.sv", "a/b/z.v", "dir.v/in.v", "z/last.v"):
        (c / rel).parent.mkdir(parents=True, exist_ok=True)
        (c / rel).write_text(f"module m; // {rel}\nendmodule\n")
    os.symlink(c / "top.v", c / "link.v")
    os.symlink(c / "missing.v", c / "broken.v")
    os.symlink("loop.v", c / "loop.v")
    os.symlink(c / "a", c / "linkdir")
    monkeypatch.chdir(tmp_path)
    root = c if spelling == "absolute" else spelling
    errors, want_errors = [], []
    got = [(u.id, u.path) for u in load_corpus_dir(root, errors)]
    assert got == [(u.id, u.path) for u in reference_listing(root, want_errors)]
    assert errors == want_errors == []
    ids = [i for i, _ in got]
    assert {"top.v", "b.sv", "a/.hidden.v", "a/b/deep.sv", "dir.v/in.v", "link.v"} <= set(ids)
    assert not any(i.startswith("linkdir/") or i.endswith((".V", ".svh")) for i in ids)


def test_load_corpus_dir_holds_no_path_per_file(tmp_path):
    root = tmp_path / "c"
    for i in range(240):
        (root / f"g{i % 8}").mkdir(parents=True, exist_ok=True)
        (root / f"g{i % 8}" / f"u{i:04d}.v").write_text(f"module m{i}; endmodule\n")

    def live_paths() -> int:
        gc.collect()
        return sum(isinstance(o, PurePath) for o in gc.get_objects())

    before = live_paths()
    units = load_corpus_dir(root, [])
    listed = live_paths()
    first = next(units)
    stepped = live_paths()
    assert first.id == "g0/u0000.v"
    assert listed - before < 5 and stepped - before < 5


def test_source_unit_invariants(corpus_units):
    for u in corpus_units:
        if u.text:
            assert u.line_count >= 1
        key = corpus._dedup_key(corpus._significant_lexemes(u.text))
        assert key == corpus._dedup_key(corpus._significant_lexemes(u.text))


def test_random_snippet_roundtrip_seeded():
    rng = random.Random(1234)
    pieces = ["module", "assign", "x", "=", "4'b1010", "|", "&&", ";", "//c", "\n", " ", '"s"']
    for _ in range(200):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(0, 30)))
        assert_positions(text, tokenize(text), text)
