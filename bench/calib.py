"""Machine-speed reference for the benchmark's timings.

On the shared 2-core virtual machine this benchmark was built on, the same
code ran up to 1.75 times slower for stretches of tens of seconds to minutes
while other tenants loaded the host, so the raw time of a run depended more
on when it ran than on the program. The reference job measures the
machine's speed at the moment: it is the benchmark's own code, never calls
the program, and does the same kind of interpreter work (generating Verilog
text, lexing it with a regular expression, counting, JSON and hashing).

Each timed step is run between two reference jobs, and its time is reported
at reference speed: measured seconds times ``REFERENCE_S`` over the mean of
the two reference times. A change to the program moves that figure exactly
as much as the measured time, because the reference job does not depend on
the program. A change to this file or to ``gen.corpus`` changes the unit, so
it is a change of the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import re
import time

import gen

# Seconds the reference job takes on the machine the reported times refer
# to: about its median on a 2-core Intel Xeon virtual machine with
# Python 3.11. It fixes the unit, like the length of a metre.
REFERENCE_S = 0.1

_TOKEN = re.compile(r"\s+|//[^\n]*|[A-Za-z_]\w*|\d+'[bhd][0-9a-fA-F]+|\d+|.")
_EXPECTED: dict[str, str] = {}


def _job() -> str:
    corpus = gen.corpus(0, 240)
    h = hashlib.sha256()
    for path in sorted(corpus.files):
        counts: dict[str, int] = {}
        for tok in _TOKEN.findall(corpus.files[path]):
            if not tok.isspace():
                counts[tok] = counts.get(tok, 0) + 1
        h.update(json.dumps(sorted(counts.items())).encode())
    return h.hexdigest()


def reference_s() -> float:
    """Seconds the reference job takes now; checks that it did the same work."""
    t = time.perf_counter()
    digest = _job()
    elapsed = time.perf_counter() - t
    if _EXPECTED.setdefault("digest", digest) != digest:
        raise RuntimeError("the reference job gave a different result")
    return elapsed


def scale(measured_s: float, ref_before: float, ref_after: float) -> float:
    """``measured_s`` at reference speed, from the reference times around it."""
    return measured_s * REFERENCE_S / ((ref_before + ref_after) / 2)
