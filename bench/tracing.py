"""Span tracing from outside the program, and the per-layer metrics.

``Tracer.install`` rebinds each traced function at every import site inside
the ``assertforge`` package, so a call made through any module's name for it
is recorded. Spans (id, parent id, name, start, end) are kept in memory and
written out once the traced repetition ends. A span's self time is its
duration minus the time its child spans cover; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import collections
import functools
import itertools
import sys
import time
from pathlib import Path

# (owner, attribute, span name). The owner is a module, a class in it, or an
# object in it such as a click command.
TARGETS = (
    ("assertforge.cli", "filter_cmd.callback", "cli.filter"),
    ("assertforge.cli", "augment.callback", "cli.augment"),
    ("assertforge.cli", "eval_cmd.callback", "cli.eval"),
    ("assertforge.corpus", "load_corpus_dir", "corpus.load_corpus_dir"),
    ("assertforge.corpus", "tokenize", "corpus.tokenize"),
    ("assertforge.corpus", "filter_units", "corpus.filter_units"),
    ("assertforge.mutate", "enumerate_sites", "mutate.enumerate_sites"),
    ("assertforge.mutate", "apply_mutation", "mutate.apply_mutation"),
    ("assertforge.pipeline", "run_augment", "pipeline.run_augment"),
    ("assertforge.toolchain", "Toolchain.compile_check", "toolchain.compile_check"),
    ("assertforge.toolchain", "Toolchain.formal_verify", "toolchain.formal_verify"),
    ("assertforge.toolchain", "Toolchain.llm_call", "toolchain.llm_call"),
    ("assertforge.toolchain", "request_digest", "toolchain.request_digest"),
    ("assertforge.toolchain", "ReplayCache.get", "toolchain.cache.get"),
    ("assertforge.toolchain", "ReplayCache.put", "toolchain.cache.put"),
    ("assertforge.dataset", "split", "dataset.split"),
    ("assertforge.dataset", "build_records", "dataset.build_records"),
    ("assertforge.dataset", "write_jsonl", "dataset.write_jsonl"),
    ("assertforge.dataset", "read_jsonl", "dataset.read_jsonl"),
    ("assertforge.evalharness", "collect_responses", "evalharness.collect_responses"),
    ("assertforge.evalharness", "ModelResponse.from_raw", "evalharness.ModelResponse.from_raw"),
    ("assertforge.evalharness", "judge", "evalharness.judge"),
    ("assertforge.evalharness", "aggregate", "evalharness.aggregate"),
    ("assertforge.evalharness", "pass_at_k", "evalharness.pass_at_k"),
    ("assertforge.textutil", "extract_json_object", "textutil.extract_json_object"),
    ("assertforge.textutil", "parse_solution_reply", "textutil.parse_solution_reply"),
)

# mutate lexes through its own imported name for tokenize; its calls are
# reported apart from the corpus loader's.
SITE_NAMES = {("assertforge.mutate", "tokenize"): "mutate.tokenize"}

BACKEND = "toolchain.backend"
TOOL_CALLS = ("toolchain.compile_check", "toolchain.formal_verify", "toolchain.llm_call")


def _tokenize_bytes(tracer, args, kwargs, result):
    tracer.counters["corpus.tokenize.bytes"] += len(args[0])


def _kept(tracer, args, kwargs, result):
    tracer.counters["mutate.apply_mutation.kept"] += len(result)


def _cache_hit(tracer, args, kwargs, result):
    tracer.counters["toolchain.cache.get.hits"] += result is not None


def _cache_put_bytes(tracer, args, kwargs, result):
    cache, key = args[0], args[1]
    tracer.counters["toolchain.cache.put.bytes"] += (Path(cache.dir) / f"{key}.json").stat().st_size


def _write_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counters["dataset.write_jsonl.bytes"] += Path(path).stat().st_size


def _valid_reply(tracer, args, kwargs, result):
    tracer.counters["evalharness.valid_replies"] += result.valid_json


# Functions whose results are counted without a span, so that their caller's
# self time is not split.
COUNTED = (("assertforge.pipeline", "engine_bug_candidates", _kept),)

AFTER = {
    "corpus.tokenize": _tokenize_bytes,
    "toolchain.cache.get": _cache_hit,
    "toolchain.cache.put": _cache_put_bytes,
    "dataset.write_jsonl": _write_bytes,
    "evalharness.ModelResponse.from_raw": _valid_reply,
}


class Tracer:
    """Records spans and counters for one traced repetition."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = collections.defaultdict(float)
        # Per open span: [child_s, span id, excluded_s]. excluded_s is time the
        # counting hooks spent inside the span; it is kept out of every
        # enclosing span's duration, so the hooks do not inflate a layer.
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, after=None):
        """``fn`` with each call recorded as a span called ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start - frame[2]
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                    parent[2] += frame[2]
                spans.append((frame[1], parent[1] if parent else 0, name, start, end))
            if after is not None:
                hook_start = clock()
                after(self, args, kwargs, result)
                if parent is not None:
                    parent[2] += clock() - hook_start
            return result

        return traced

    def _count(self, fn, after):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(self, args, kwargs, result)
            return result

        return counted

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module_name, attr, after in COUNTED:
            module = sys.modules[module_name]
            self._rebind(module, attr, self._count(getattr(module, attr), after))
        for module_name, path, name in TARGETS:
            module = sys.modules[module_name]
            *owner_path, attr = path.split(".")
            owner = functools.reduce(getattr, owner_path, module)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, name, AFTER.get(name)))
                else:
                    wrapped = self.wrap(raw, name, AFTER.get(name))
                self._rebind(owner, attr, wrapped)
            elif owner is module:
                original = getattr(module, attr)
                for site_name, site in list(sys.modules.items()):
                    if site_name.split(".")[0] != "assertforge":
                        continue
                    if getattr(site, attr, None) is original:
                        site_span = SITE_NAMES.get((site_name, attr), name)
                        after = AFTER.get(site_span)
                        self._rebind(site, attr, self.wrap(original, site_span, after))
            else:
                self._rebind(owner, attr, self.wrap(getattr(owner, attr), name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")

    # -- readings ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _overhead_us(t: Tracer) -> float:
    calls = sum(t.calls(n) for n in TOOL_CALLS)
    ours = sum(t.total_s(n) for n in TOOL_CALLS) - t.total_s(BACKEND)
    return _ratio(ours, calls) * 1e6


def _responses(t: Tracer) -> int:
    return t.calls("evalharness.ModelResponse.from_raw")


# One row per per-layer metric: name, unit, better, the end-to-end metric and
# workload it is expected to move, and how to read it from a Tracer. Ratios
# name their base. The trace.* rows come from the run, not from a Tracer.
LAYER_METRICS: list[tuple[str, str, str, str, object]] = []


def _metric(name, unit, better, moves, read=None):
    LAYER_METRICS.append((name, unit, better, moves, read))


def _span_metrics(span, moves, *stats):
    for stat in stats:
        if stat == "calls":
            _metric(f"{span}.calls", "count", "lower", moves, lambda t, s=span: t.calls(s))
        else:
            _metric(f"{span}.self_s", "s", "lower", moves, lambda t, s=span: t.self_s(s))


_FILTER = "wall_s@filter-corpus"
_AUGMENT = "wall_s@augment-record"
_EVAL = "items_per_s@eval-replay"

_span_metrics("corpus.load_corpus_dir", _FILTER, "self_s")
_span_metrics("corpus.tokenize", _FILTER + ", " + _AUGMENT, "calls", "self_s")
_metric("corpus.tokenize.mb_per_s", "MB/s", "higher", _FILTER + ", " + _AUGMENT,
        lambda t: _ratio(t.counter("corpus.tokenize.bytes") / 1e6, t.total_s("corpus.tokenize")))
_span_metrics("corpus.filter_units", _FILTER, "self_s")
_span_metrics("mutate.tokenize", _AUGMENT, "calls", "self_s")
_span_metrics("mutate.enumerate_sites", _AUGMENT, "calls", "self_s")
_span_metrics("mutate.apply_mutation", _AUGMENT, "calls", "self_s")
_metric("mutate.apply_mutation.useful_ratio", "ratio", "higher",
        _AUGMENT + " (base: mutate.apply_mutation.calls)",
        lambda t: _ratio(t.counter("mutate.apply_mutation.kept"), t.calls("mutate.apply_mutation")))
for _tool in TOOL_CALLS:
    _span_metrics(_tool, _AUGMENT + ", " + _EVAL, "calls", "self_s")
_span_metrics(BACKEND, _AUGMENT, "calls", "self_s")
_metric("toolchain.overhead_us_per_call", "us", "lower",
        _AUGMENT + ", " + _EVAL + " (base: tool calls; backend excluded)", _overhead_us)
_span_metrics("toolchain.request_digest", _EVAL, "calls", "self_s")
_span_metrics("toolchain.cache.get", _EVAL, "calls", "self_s")
_metric("toolchain.cache.get.hit_ratio", "ratio", "higher",
        _EVAL + " (base: toolchain.cache.get.calls)",
        lambda t: _ratio(t.counter("toolchain.cache.get.hits"), t.calls("toolchain.cache.get")))
_span_metrics("toolchain.cache.put", _AUGMENT, "calls", "self_s")
_metric("toolchain.cache.put.bytes", "bytes", "lower", _AUGMENT,
        lambda t: t.counter("toolchain.cache.put.bytes"))
_span_metrics("dataset.split", _AUGMENT, "self_s")
_span_metrics("dataset.build_records", _AUGMENT, "self_s")
_span_metrics("dataset.write_jsonl", _FILTER + ", " + _EVAL, "calls", "self_s")
_metric("dataset.write_jsonl.bytes", "bytes", "lower", _FILTER + ", " + _EVAL,
        lambda t: t.counter("dataset.write_jsonl.bytes"))
_span_metrics("dataset.read_jsonl", _EVAL, "self_s")
_span_metrics("pipeline.run_augment", _AUGMENT, "self_s")
_span_metrics("evalharness.collect_responses", _EVAL, "calls", "self_s")
_span_metrics("evalharness.ModelResponse.from_raw", _EVAL, "calls", "self_s")
_span_metrics("evalharness.judge", _EVAL, "calls", "self_s")
_span_metrics("evalharness.aggregate", _EVAL, "self_s")
_span_metrics("evalharness.pass_at_k", _EVAL, "calls")
_metric("evalharness.valid_json_ratio", "ratio", "higher",
        _EVAL + " (base: evalharness.ModelResponse.from_raw.calls, one per solver call)",
        lambda t: _ratio(t.counter("evalharness.valid_replies"), _responses(t)))
for _fn in ("textutil.extract_json_object", "textutil.parse_solution_reply"):
    _span_metrics(_fn, _EVAL, "calls")
    _metric(f"{_fn}.calls_per_response", "count", "lower",
            _EVAL + " (base: evalharness.ModelResponse.from_raw.calls)",
            lambda t, f=_fn: _ratio(t.calls(f), _responses(t)))
_span_metrics("cli.filter", _FILTER, "self_s")
_span_metrics("cli.augment", _AUGMENT, "self_s")
_span_metrics("cli.eval", _EVAL, "self_s")
_metric("trace.overhead_s", "s", "lower", "none: traced wall_s minus untraced wall_s")
_metric("trace.overhead_share", "ratio", "lower", "none: trace.overhead_s / untraced wall_s")
_metric("trace.spans", "count", "lower", "none: spans recorded in one traced repetition")


# How a reading in each unit converts to reference speed, given the factor
# that converts measured seconds; counts, ratios and bytes do not change.
_AT_REFERENCE_SPEED = {"s": lambda v, f: v * f, "us": lambda v, f: v * f,
                       "MB/s": lambda v, f: v / f}


def layer_readings(t: Tracer, factor: float) -> dict[str, float]:
    """Every Tracer-derived per-layer metric of one traced repetition, with
    times and rates at reference speed (``factor``: see ``calib.scale``)."""
    return {
        name: _AT_REFERENCE_SPEED.get(unit, lambda v, f: v)(read(t), factor)
        for name, unit, _, _, read in LAYER_METRICS
        if read is not None
    }
