"""Seeded input generator for the benchmark workloads.

The same seed always gives the same inputs. The sizes fix the structure that
sets the amount of work: how many files or units fall in each length bin and
the line count of each. The seed picks everything else: names, which blocks
fill a module, operators, literals and planted bugs. Runs with different
seeds therefore do comparable work on different text.

The generator does not import assertforge; the program only ever sees the
files and rows written here.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field

WORDS = (
    "acc", "buf", "cnt", "data", "flag", "gate", "hold", "idx", "kick", "load",
    "mask", "nxt", "ptr", "req", "sum", "tmp", "val", "wptr", "xfer", "zone",
)
BINARY_OPS = ("+", "-", "&", "|", "^")
# Upper line bound of length bins 0..3; bin 4 is everything longer.
BIN_UPPER = (50, 100, 150, 200)


def length_bin(line_count: int) -> int:
    for i, upper in enumerate(BIN_UPPER):
        if line_count <= upper:
            return i
    return len(BIN_UPPER)


def spread(count: int, lo: int, hi: int) -> list[int]:
    """``count`` line counts evenly spaced over [lo, hi], independent of seed."""
    if count == 1:
        return [(lo + hi) // 2]
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


class _ModuleWriter:
    """Builds one synthetic module line by line."""

    def __init__(self, rng: random.Random, name: str):
        self.rng = rng
        self.name = name
        self.inputs = [f"{rng.choice(WORDS)}_in{k}" for k in range(4)]
        self.out = f"{rng.choice(WORDS)}_q"
        self.signals = list(self.inputs)
        self.serial = 0

    def _fresh(self, prefix: str) -> str:
        self.serial += 1
        return f"{self.rng.choice(WORDS)}_{prefix}{self.serial}"

    def _operand(self) -> str:
        return self.rng.choice(self.signals)

    def _hex(self) -> str:
        return f"8'h{self.rng.randrange(256):02X}"

    def header(self) -> list[str]:
        ports = ", ".join(f"input [7:0] {i}" for i in self.inputs)
        return [
            f"module {self.name} (input clk, input rst, input en, input [1:0] sel,",
            f"  {ports}, output reg [7:0] {self.out});",
        ]

    def footer(self) -> list[str]:
        return [f"  always @(posedge clk) {self.out} <= {self.signals[-1]};", "endmodule"]

    def block(self, budget: int) -> list[str]:
        """One declaration plus the logic that drives it, at most ``budget`` lines."""
        rng = self.rng
        kinds = [k for k, size in (("seq", 7), ("case", 9), ("cond", 4), ("assign", 2))
                 if size <= budget]
        if not kinds:
            return [f"  // stage {self.serial}"] * budget
        kind = rng.choice(kinds)
        a, b = self._operand(), self._operand()
        op = rng.choice(BINARY_OPS)
        if kind == "assign":
            w = self._fresh("w")
            lines = [f"  wire [7:0] {w};", f"  assign {w} = {a} {op} {b};"]
        elif kind == "seq":
            r = self._fresh("r")
            lines = [
                f"  reg [7:0] {r};",
                "  always @(posedge clk) begin",
                "    if (rst)",
                f"      {r} <= {self._hex()};",
                "    else",
                f"      {r} <= {a} {op} {b};",
                "  end",
            ]
        elif kind == "cond":
            r = self._fresh("r")
            lines = [
                f"  reg [7:0] {r};",
                "  always @(posedge clk)",
                f"    if (en && {a} != 8'd{rng.randrange(1, 200)})",
                f"      {r} <= {b} >> {rng.randrange(1, 4)};",
            ]
        else:
            x = self._fresh("x")
            c = self._operand()
            lines = [
                f"  reg [7:0] {x};",
                "  always @(*) begin",
                "    case (sel)",
                f"      2'b00: {x} = {a} {op} {b};",
                f"      2'b01: {x} = {c} {rng.choice(BINARY_OPS)} {self._hex()};",
                f"      2'b10: {x} = ~{b};",
                f"      default: {x} = 8'd{rng.randrange(256)};",
                "    endcase",
                "  end",
            ]
        self.signals.append(lines[0].split()[-1].rstrip(";"))
        return lines

    def module(self, n_lines: int) -> list[str]:
        head = self.header()
        body: list[str] = []
        budget = n_lines - len(head) - 2  # the footer's two lines
        while len(body) < budget:
            body += self.block(budget - len(body))
        return head + body + self.footer()


def design(rng: random.Random, name: str, n_lines: int) -> str:
    """A module with functional logic, exactly ``n_lines`` lines long."""
    return "\n".join(_ModuleWriter(rng, name).module(n_lines)) + "\n"


def no_logic_design(rng: random.Random, name: str, n_lines: int) -> str:
    """Ports, wires and constant or pass-through assigns only."""
    ins = [f"{rng.choice(WORDS)}_in{k}" for k in range(3)]
    lines = [f"module {name} ({', '.join(f'input [7:0] {i}' for i in ins)}, output [7:0] y);"]
    k = 0
    while len(lines) < n_lines - 2:
        k += 1
        lines.append(f"  wire [7:0] {rng.choice(WORDS)}_t{k};")
        if len(lines) < n_lines - 2:
            rhs = rng.choice(ins) if rng.random() < 0.5 else f"8'h{rng.randrange(256):02X}"
            lines.append(f"  assign {lines[-1].split()[-1].rstrip(';')} = {rhs};")
    lines += [f"  assign y = {ins[0]};", "endmodule"]
    return "\n".join(lines[:n_lines]) + "\n"


def comment_variant(rng: random.Random, text: str) -> str:
    """Same token stream, different comments and whitespace."""
    out = ["// duplicated from another file of the corpus"]
    for line in text.split("\n"):
        if line.startswith("  "):
            line = "    " + line[2:]
        if line and rng.random() < 0.3:
            line += f"  // {rng.choice(WORDS)}"
        out.append(line)
        if rng.random() < 0.1:
            out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# filter-corpus


@dataclass
class Corpus:
    files: dict[str, str]  # relative path -> text
    labels: dict[str, str]  # relative path -> planted filter status

    @property
    def bytes(self) -> int:
        return sum(len(t.encode()) for t in self.files.values())


# Share of accepted originals per length bin, and the line range of each bin.
# These shares, like UNIT_BINS and the duplicate, reject, syntax-error and
# operator-swap rates below, are assumptions with no measured source: neither
# the paper's abstract nor this repository gives a length or defect
# distribution. They set how much of each workload's time falls on long
# units, so the mix is a stated choice, not a model of a real corpus.
CORPUS_BINS = ((0.70, 12, 50), (0.16, 51, 100), (0.06, 101, 150), (0.04, 151, 200),
               (0.04, 201, 400))


def corpus(seed: int, n_files: int) -> Corpus:
    """Mixed-length corpus with planted duplicates and planted rejects.

    Of every 20 files, 16 are distinct accepted designs, 2 duplicate one of
    them (a byte copy or a comment and whitespace variant), 1 has no
    functional logic and 1 lacks `endmodule`.
    """
    rng = random.Random(f"corpus:{seed}")
    n_dup = n_files // 10
    n_nologic = n_files // 20
    n_noend = n_files // 20
    n_orig = n_files - n_dup - n_nologic - n_noend
    lengths = []
    for i, (share, lo, hi) in enumerate(CORPUS_BINS):
        count = round(share * n_orig) if i < len(CORPUS_BINS) - 1 else n_orig - len(lengths)
        lengths += spread(count, lo, hi)
    rng.shuffle(lengths)

    files: dict[str, str] = {}
    labels: dict[str, str] = {}
    originals = []
    for i, n in enumerate(lengths):
        ext = ".sv" if i % 7 == 0 else ".v"
        path = f"g{i // 100:02d}/u{i:05d}{ext}"
        files[path] = design(rng, f"m{seed % 1000}_{i}", n)
        labels[path] = "accepted"
        originals.append(path)
    # Duplicates sort after every original, so the original is the one kept.
    for j in range(n_dup):
        src = rng.choice(originals)
        text = files[src]
        if j % 2:
            text = comment_variant(rng, text)
        path = f"zdup/d{j:05d}.v"
        files[path] = text
        labels[path] = "duplicate"
    rej = spread(n_nologic + n_noend, 12, 300)
    rng.shuffle(rej)
    for j in range(n_nologic):
        path = f"misc/nl{j:05d}.v"
        files[path] = no_logic_design(rng, f"tie{seed % 1000}_{j}", rej.pop())
        labels[path] = "no_functional_logic"
    for j in range(n_noend):
        path = f"misc/ne{j:05d}.v"
        text = design(rng, f"cut{seed % 1000}_{j}", rej.pop())
        files[path] = text.replace("\nendmodule\n", "\n  // unfinished\n")
        labels[path] = "missing_module_boundary"
    return Corpus(files, labels)


# ---------------------------------------------------------------------------
# augment-record

# (share of units, shortest, longest) per length bin; bin 4 is the long tail.
UNIT_BINS = ((0.4, 20, 50), (0.2, 51, 100), (0.15, 101, 150), (0.1, 151, 200),
             (0.15, 201, 420))


@dataclass
class UnitSet:
    texts: dict[str, str]  # unit id -> text, in input order
    syntax_errors: set[str] = field(default_factory=set)


def units(seed: int, n_units: int) -> UnitSet:
    """Accepted designs over all five length bins; one in 25 fails to compile."""
    rng = random.Random(f"units:{seed}")
    lengths = []
    for i, (share, lo, hi) in enumerate(UNIT_BINS):
        count = round(share * n_units) if i < len(UNIT_BINS) - 1 else n_units - len(lengths)
        lengths += spread(count, lo, hi)
    # The units that fail to compile are picked before the shuffle, so their
    # lengths, and with them the mutation work left out, do not depend on
    # the seed.
    plan = [(n, k % 25 == 24) for k, n in enumerate(lengths)]
    rng.shuffle(plan)
    out = UnitSet({})
    for i, (n, broken) in enumerate(plan):
        uid = f"a{i:04d}.v"
        text = design(rng, f"au{seed % 1000}_{i}", n)
        if broken:
            text = text.replace("\nendmodule\n", "\n  assign pending = ;\nendmodule\n")
            out.syntax_errors.add(uid)
        out.texts[uid] = text
    return out


# ---------------------------------------------------------------------------
# eval-replay

_OP_LINE = re.compile(r"^(\s+(?:assign )?\w+ <?= )(\w+) ([+|]) (\w+);$")
_OP_BUG = {"+": "-", "|": "&"}  # swaps the fake solver knows how to undo


def eval_cases(seed: int, n_cases: int) -> list[dict]:
    """Benchmark cases with one planted single-line bug each.

    About three in five bugs are operator swaps that the fake solver's fix
    rules reverse, so some draws are correct; the rest replace an operand,
    which the solver never repairs.
    """
    rng = random.Random(f"eval:{seed}")
    lengths = spread(n_cases, 14, 70)
    rng.shuffle(lengths)
    cases = []
    for i, n in enumerate(lengths):
        while True:
            writer = _ModuleWriter(rng, f"ev{seed % 1000}_{i}")
            lines = writer.module(n)
            sites = [k for k, l in enumerate(lines) if _OP_LINE.match(l)]
            if sites:
                break
        k = rng.choice(sites)
        prefix, a, op, b = _OP_LINE.match(lines[k]).groups()
        if rng.random() < 0.6:
            buggy, kind = f"{prefix}{a} {_OP_BUG[op]} {b};", "Op"
        else:
            other = next(s for s in writer.inputs + [writer.out] if s not in (a, b))
            buggy, kind = f"{prefix}{other} {op} {b};", "Var"
        original = lines[k]
        lines[k] = buggy
        lines.insert(len(lines) - 1, f"  assert property ({writer.out} == {writer.inputs[0]});")
        step = rng.randrange(1, 20)
        cases.append(
            {
                "id": f"case{seed % 1000}-{i:05d}",
                "source": "machine",
                "spec": f"Module {writer.name}: registers and combinational logic as written.",
                "buggy_sv_code": "\n".join(lines) + "\n",
                "log": f"BMC depth 20: FAIL\nassertion violated at step {step}\n",
                "golden_buggy_line": buggy,
                "golden_corrected_line": original,
                "bug_syntactic": kind,
                "bug_relation": rng.choice(("Direct", "Indirect")),
                "length_bin": length_bin(n),
            }
        )
    return cases


def write_jsonl(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
