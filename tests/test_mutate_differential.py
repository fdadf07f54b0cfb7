"""Differential test: mutation-site enumeration against its pre-rework copy.

``_mutate_reference`` is the enumeration as it was before each line was
analysed once and each kind decided by its first rewrite. Sites and records
must match it exactly on the fixture corpus, on wide pipeline modules, on the
benchmark's augment units and on Hypothesis-generated modules.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import _mutate_reference as ref
from assertforge import mutate
from assertforge.corpus import SourceUnit
from assertforge.errors import NoAlternativeError
from fixture_corpus import _wide_module

SEEDS = range(8)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NoAlternativeError:
        return NoAlternativeError


def assert_same_as_reference(unit: SourceUnit) -> None:
    sites = mutate.enumerate_sites(unit)
    assert sites == ref.enumerate_sites(unit), unit.id
    for line, kinds in sites:
        for kind in kinds:
            for seed in SEEDS:
                got = astuple(mutate.apply_mutation(unit, line, kind, seed))
                assert got == ref.apply_mutation(unit, line, kind, seed), (unit.id, line, kind, seed)
        # A kind left out of the site list has no rewrite in either version.
        for kind in set(mutate.SYNTACTIC_KINDS) - set(kinds):
            assert _outcome(mutate.apply_mutation, unit, line, kind, 0) is NoAlternativeError
            assert _outcome(ref.apply_mutation, unit, line, kind, 0) is NoAlternativeError


def test_fixture_corpus_matches_reference(corpus_units):
    for unit in corpus_units:
        assert_same_as_reference(unit)


def test_wide_modules_match_reference():
    for stages in (1, 9, 40):
        text = _wide_module(f"w{stages}", stages, extra="// trailing note")
        assert_same_as_reference(SourceUnit(id=f"wide{stages}", path="", text=text))


@pytest.fixture(scope="module")
def bench_gen():
    """``bench/gen.py``, imported read-only: no bytecode is written there."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        mp.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        yield importlib.import_module("gen")


@pytest.mark.parametrize("seed", [1, 7])
def test_bench_units_match_reference(bench_gen, seed):
    # The reference is slow on these long units: every site list is compared,
    # and the records of every fifth site, at a seed that varies by line.
    for uid, text in bench_gen.units(seed, 40).texts.items():
        unit = SourceUnit(id=uid, path="", text=text)
        sites = mutate.enumerate_sites(unit)
        assert sites == ref.enumerate_sites(unit), uid
        for line, kinds in sites[::5]:
            for kind in kinds:
                got = astuple(mutate.apply_mutation(unit, line, kind, line))
                assert got == ref.apply_mutation(unit, line, kind, line), (uid, line, kind)


# -- generated modules ---------------------------------------------------------

_IDENTS = st.sampled_from(["a", "b", "q", "d0", "sum", "cout", "en", "mem", "x_1", "clk"])
_NUMBERS = st.sampled_from(
    ["0", "1", "12", "1_0", "2.5", "4'b1010", "4'bx1z0", "8'hFf", "8'h?0", "3'o7", "'d5", "2'sb01", "16'd0"]
)
_OPERATORS = st.sampled_from(
    ["|", "&", "^", "+", "-", "==", "!=", "<", ">", "<=", ">=", "<<", ">>", "*", "&&", "||"]
)


@st.composite
def _expr(draw, depth=0):
    form = draw(st.integers(0, 4 if depth < 2 else 1))
    if form == 0:
        return draw(_IDENTS)
    if form == 1:
        return draw(_NUMBERS)
    if form == 2:
        return f"{draw(_expr(depth + 1))} {draw(_OPERATORS)} {draw(_expr(depth + 1))}"
    if form == 3:
        return f"({draw(_expr(depth + 1))})"
    return f"!{draw(_IDENTS)}"


@st.composite
def _target(draw):
    form = draw(st.integers(0, 3))
    if form == 0:
        return draw(_IDENTS)
    if form == 1:
        return f"{draw(_IDENTS)}[{draw(_expr(1))}]"
    if form == 2:
        return f"{{{draw(_IDENTS)}, {draw(_IDENTS)}}}"
    return f"[{draw(_IDENTS)}]"  # assignment with no plain target name


@st.composite
def _line(draw):
    e, t, i = draw(_expr()), draw(_target()), draw(_IDENTS)
    f, u = draw(_expr()), draw(_target())
    edge = draw(st.sampled_from(["posedge", "negedge"]))
    return draw(
        st.sampled_from(
            [
                f"  {t} = {e};",
                f"  assign {t} = {e};",
                f"    {t} <= {e};",
                f"  {t} <= {e}; // {i} note",
                f"  if ({e}) {t} <= {i};",
                f"  if ({e})",
                f"  if ({e}) begin {t} <= {f}; {u} <= {e}; end",
                f"  if ({e}) begin : {i} {t} <= {f}; end : {i}",
                f"  always @({edge} clk) begin : {i}",
                f"  fork : {i} {t} = {e}; join : {i}",
                f"  if ({e})\n    {t}[({f})] <= {e};",
                f"  else if (!{i}) {t} = {e};",
                f"  if ({e}) {t} <= {f}; else {u} <= {i};",
                f"  always @({edge} {i}) if ({e}) {t} <= {f};"
                f" else if ({f}) {u} <= {i}; else {i} = 1;",
                f"  always @({edge} clk) for (k = 0; k < 4; k = k + 1)"
                f" if ({e}) {t} <= {f}; else {u} = 0;",
                f"  while ({e}) {t} = {f};",
                f"  repeat ({e})",
                f"  casez ({e}) {draw(_NUMBERS)}: {t} = {f}; default: {u} = {e}; endcase",
                f"  always @({edge} {i})",
                f"  always @({edge} {i} or {edge} clk) begin",
                "  always @(*) begin",
                f"  case ({e})",
                f"    {draw(_NUMBERS)}: {t} = {e};",
                f"    {i}, {draw(_IDENTS)}: {t} = {e};",
                f"  {i}[{draw(_NUMBERS)}:0] <= {e};",
                "  endcase",
                "  begin",
                "  end",
                "  else",
                f"  wire [7:0] {i} = {e};",
                f"  reg [3:0] {i} [0:7];",
                f"  for (k = 0; k < 4; k = k + 1) {i}[k] <= {e};",
                f"  input = {i};",
                f'  $display("{i}=%d", {e});',
                f"  /* {i}\n     {e} */",
                f"  {i} = {e}; /* tail */",
                "",
                "   ",
            ]
        )
    )


@st.composite
def _module(draw):
    body = draw(st.lists(_line(), min_size=1, max_size=14))
    return "module m (input clk, input [7:0] a, output reg q);\n" + "\n".join(body) + "\nendmodule\n"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_module())
def test_generated_modules_match_reference(text):
    assert_same_as_reference(SourceUnit(id="gen", path="", text=text))


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ab01'bhdx=<>!&|^+-()[]{};@ \t/*\n", max_size=80))
def test_arbitrary_text_matches_reference(text):
    assert_same_as_reference(SourceUnit(id="raw", path="", text=text))
