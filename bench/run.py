"""Hermetic benchmark of assertforge's filter, augment and eval paths.

    python3 bench/run.py --workload filter-corpus --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 22 --trace 1

Run it from the repository root. It needs no EDA tool and no LLM endpoint:
inputs come from the benchmark's own seeded generator, tools are in-process
fakes or a replay cache recorded during set-up. One process, one thread, one
client in a closed loop. The workload sets up three times, then repeats
until --seconds have passed (at least three times); times are medians.
Two more, untimed repetitions run under tracemalloc for the memory metric,
the smaller of their peaks. Every timed step runs between two runs of a
fixed reference job, and its time is reported at reference speed (see
calib.py); the measured times are printed beside it and kept in the run
record.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics, including the tracing
overhead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 1 when an output
check fails. ``--workload all`` runs every workload, each in a fresh
interpreter, and fails when any of them fails. Each run also writes a record
with machine metadata and output digests under .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")
RECORDS = Path(".bench_out")
WORKLOAD_NAMES = ("filter-corpus", "augment-record", "eval-replay")
MIN_REPS = 3
MIN_TRACE_REPS = 4  # alternating untraced and traced
SETUP_REPS = 3
MEM_REPS = 2

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "items/s",
    "peak_mem_mb": "MiB",
    "ok_ratio": "ratio",
}


@dataclass
class Rep:
    """One repetition: its wall time as measured and at reference speed."""

    traced: bool
    raw_s: float | None  # None for the untimed memory repetition
    ref_s: float | None
    outcome: object  # workloads.Outcome
    readings: dict | None  # per-layer readings of a traced repetition


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the same code on small inputs, for the self-test")
    return p.parse_args(argv)


def _git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    """Digest of the package sources; identifies the code when git is absent."""
    h = hashlib.sha256()
    for p in sorted((SRC / "assertforge").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def machine(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": _git_rev(),
        "source_digest": _source_digest(),
        "seed": seed,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_all(args) -> int:
    """Every workload in its own interpreter; fails when any of them fails."""
    status, summary = 0, []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            status = 1
        summary.append((name, proc.returncode, result))
    print("summary:")
    for name, code, result in summary:
        verdict = "ok" if code == 0 and result and result["correct"] else "FAILED"
        print(f"  {name:15s} exit {code}  {verdict}")
    print(json.dumps({name: result for name, _, result in summary}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "assertforge" / "__init__.py").is_file():
        print(f"assertforge sources not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import assertforge.cli  # noqa: F401  (the package as a user loads it)
    import calib
    import tracing
    import workloads

    import_s = time.perf_counter() - t0
    if not Path(assertforge.cli.__file__).resolve().is_relative_to(SRC):
        print(f"assertforge imported from outside {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    base = WORK / args.workload
    shutil.rmtree(base, ignore_errors=True)
    # refs[k] and refs[k + 1] are the reference job's times right before and
    # right after timed step k; the import is step 0 and has only the after.
    refs = [calib.reference_s()]
    setups = []  # (raw s, reference s)
    n_setups = SETUP_REPS if args.trace == 0 else 1  # set-up time is an end-to-end metric
    for i in range(n_setups):
        last = i == n_setups - 1
        target = base / ("in" if last else f"discard{i}")
        gc.collect()
        t = time.perf_counter()
        inputs = wl.setup(target)
        raw = time.perf_counter() - t
        refs.append(calib.reference_s())
        setups.append((raw, calib.scale(raw, refs[-2], refs[-1])))
        if not last:
            shutil.rmtree(target, ignore_errors=True)

    reps: list[Rep] = []
    last_tracer = None
    start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        wl.reset()
        gc.collect()
        tracer = tracing.Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        t = time.perf_counter()
        try:
            wl.run(tracer)
            wall = time.perf_counter() - t
            raised = None
        except Exception:
            wall = time.perf_counter() - t
            raised = traceback.format_exc()
        finally:
            if tracer is not None:
                tracer.uninstall()
        refs.append(calib.reference_s())
        factor = calib.scale(1.0, refs[-2], refs[-1])
        if raised is None:
            outcome = wl.collect()
        else:
            outcome = workloads.Outcome(wl.items, wl.items, "", [f"run raised:\n{raised}"])
        readings = None
        if tracer is not None:
            readings, last_tracer = tracing.layer_readings(tracer, factor), tracer
        reps.append(Rep(traced, wall, wall * factor, outcome, readings))
        if raised is not None:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.raw_s for r in reps)
        enough = len(reps) >= (MIN_TRACE_REPS if args.trace else MIN_REPS)
        if enough and elapsed + typical > args.seconds:
            break

    peaks = []  # MiB
    if args.trace == 0 and raised is None:
        # Memory is read apart from the timed repetitions, because tracing
        # allocations slows them; set-up allocations are not counted. One
        # repetition can hold a one-off allocation whose timing depends on
        # the process's history: pathlib interns every path part, and the
        # interpreter's table of interned strings is rebuilt, about 0.9 MiB
        # at once, every several repetitions. Such allocations only add, so
        # the smallest peak of MEM_REPS repetitions leaves them out.
        for _ in range(MEM_REPS):
            wl.reset()
            gc.collect()
            tracemalloc.start()
            try:
                wl.run(None)
                peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
                outcome = wl.collect()
            except Exception:
                outcome = workloads.Outcome(wl.items, wl.items, "",
                                            [f"memory repetition raised:\n{traceback.format_exc()}"])
            finally:
                tracemalloc.stop()
            reps.append(Rep(False, None, None, outcome, None))
            if outcome.problems:
                break

    problems = [p for r in reps for p in r.outcome.problems]
    digests = {r.outcome.digest for r in reps}
    if len(digests) != 1:
        problems.append(f"output digests differ across repetitions: {sorted(digests)}")
    attempted = sum(r.outcome.attempted for r in reps)
    failed = sum(r.outcome.failed for r in reps)
    plain = [r for r in reps if not r.traced and r.raw_s is not None]
    walls = [r.ref_s for r in plain]

    if args.trace == 0:
        metrics = {
            "setup_s": calib.scale(import_s, refs[0], refs[0])
            + statistics.median(ref_s for _, ref_s in setups),
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(r.outcome.attempted / r.ref_s for r in plain),
            "peak_mem_mb": min(peaks, default=0.0),
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = E2E_UNITS
        samples = {"setup_s": len(setups), "wall_s": len(walls),
                   "items_per_s": len(walls), "peak_mem_mb": len(peaks), "ok_ratio": attempted}
    else:
        traced_reps = [r for r in reps if r.traced]
        if not traced_reps:  # the run failed before its first traced repetition
            last_tracer = tracing.Tracer()
            traced_reps = [Rep(True, None, statistics.median(walls), None,
                               tracing.layer_readings(last_tracer, 1.0))]
        metrics = {
            name: statistics.median(r.readings[name] for r in traced_reps)
            for name in traced_reps[0].readings
        }
        untraced_wall = statistics.median(walls)
        metrics["trace.overhead_s"] = statistics.median(r.ref_s for r in traced_reps) - untraced_wall
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced_wall
        metrics["trace.spans"] = len(last_tracer.spans)
        units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
        samples = {name: len(traced_reps) for name in metrics}
        bases = {name: moves for name, _, _, moves, _ in tracing.LAYER_METRICS}

    # Human-readable report, then the machine-readable last line.
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}  "
          f"inputs {json.dumps(inputs)}")
    raw_walls = [r.raw_s for r in plain]
    print(f"  set-up {n_setups}x: " + ", ".join(_fmt(raw) for raw, _ in setups)
          + f" s (+ import {_fmt(import_s)} s) measured, "
          + ", ".join(_fmt(ref_s) for _, ref_s in setups) + " s at reference speed")
    print(f"  untraced wall_s measured: fastest {_fmt(min(raw_walls))}, median "
          f"{_fmt(statistics.median(raw_walls))}, slowest {_fmt(max(raw_walls))} s; at reference "
          f"speed: median {_fmt(statistics.median(walls))} s; over {len(walls)} repetitions")
    print(f"  reference job: fastest {_fmt(min(refs))}, median {_fmt(statistics.median(refs))}, "
          f"slowest {_fmt(max(refs))} s over {len(refs)} runs "
          f"(REFERENCE_S {_fmt(calib.REFERENCE_S)} s)")
    print(f"  repetitions: {len(plain)} untraced"
          + (f", {len(reps) - len(plain)} traced" if args.trace else "")
          + f"; {wl.item} attempted {attempted}, failed {failed}")
    for name, value in metrics.items():
        line = f"  {name:48s} {_fmt(value):>12s} {units[name]:8s} n={samples[name]}"
        if args.trace:
            line += f"  -> {bases[name]}"
        print(line)
    print(f"  output digest {sorted(digests)[0][:16]} "
          f"({'identical' if len(digests) == 1 else 'DIFFERS'} across {len(reps)} repetitions)")
    for p in problems[:20]:
        print(f"  CHECK FAILED: {p}")

    RECORDS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "why": wl.why,
        "size": args.size,
        "trace": args.trace,
        "machine": machine(args.seed),
        "inputs": inputs,
        "import_s": import_s,
        "setups": [{"measured_s": raw, "reference_s": ref_s} for raw, ref_s in setups],
        "reference_job_s": refs,
        "repetitions": [
            {"traced": r.traced, "measured_s": r.raw_s, "reference_s": r.ref_s,
             "digest": r.outcome.digest}
            for r in reps
        ],
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RECORDS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        last_tracer.write_spans(RECORDS / f"{stem}.spans.tsv")
    shutil.rmtree(base, ignore_errors=True)

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
