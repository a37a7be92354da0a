"""Benchmark runner for pantsarc: one workload, one seed, one JSON result.

    python3 bench/run.py --workload engine-short --seed 1 --seconds 25 --trace 0

Runs from a source checkout; the package is imported from ``src/`` next
to this directory, and nothing needs building.  With ``--trace 0`` the
run prints the end-to-end metrics, with ``--trace 1`` the per-layer
metrics from a separate traced run.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
exit code is 0 only when every checked output was correct.  See
bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = Path(__file__).resolve().parent / "out"

WARMUP_POLICY = ("no untimed warm-up: every input is repeated and its fastest "
                 "repeat is kept, so slow first repeats (cold caches, the first "
                 "pooled census) never count")


def load_library():
    """The package under test as a namespace of the calls the benchmark
    makes, or None when this checkout holds no ``src/pantsarc``."""
    if not (SRC / "pantsarc" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    # the package re-exports functions under some module names (census)
    census, cli, intersect, lowlying, planar, words = (
        importlib.import_module(f"pantsarc.{name}") for name in
        ("census", "cli", "intersect", "lowlying", "planar", "words"))

    return SimpleNamespace(
        parse_word=words.parse_word, inverse=words.inverse,
        relabel=words.relabel,
        endpoint_items=planar.endpoint_items, DECISIONS=planar.DECISIONS,
        self_intersection=intersect.self_intersection, trace=intersect.trace,
        resolve_chain=intersect.resolve_chain,
        witness=lowlying.witness,
        load_reference_words=lowlying.load_reference_words,
        census=census.census, census_task=census._census_task,
        census_tasks=census._first_letter_tasks,
        count_words=census.count_words,
        load_reference_minmax=census.load_reference_minmax,
        cli_main=cli.main)


def _fresh_python(args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    return perf_counter() - t, proc


def setup_probe(ctx):
    """Wall time of one fresh ``python -m pantsarc intersect``."""
    want = '{"word":"1BABA2","i":2}\n'
    seconds, proc = _fresh_python(["-m", "pantsarc", "intersect", "1BABA2"])
    ctx.outcome(proc.returncode == 0 and proc.stdout == want,
                f"intersect 1BABA2 printed {proc.stdout!r}")
    return seconds


def import_probe(ctx, reps):
    """Fastest time to import the CLI module in a fresh process."""
    code = ("import time; t = time.perf_counter(); import pantsarc.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(reps):
        _, proc = _fresh_python(["-c", code])
        ctx.outcome(proc.returncode == 0, f"importing pantsarc.cli failed: "
                    f"{proc.stderr.strip()[-200:]}")
        if proc.returncode == 0:
            times.append(float(proc.stdout))
    return min(times, default=math.nan)


def peak_rss_mb():
    """Peak resident memory of the largest single process: this one or
    any child it waited for.  Pooled census workers count only when one
    of them outgrew this process; their memory is not summed."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024


def environment(args, nproc):
    """What the result depends on besides the code: machine and inputs."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "pantsarc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc,
        "census_jobs": nproc, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(), "commit": commit,
        "source_sha256": digest.hexdigest(), "warmup": WARMUP_POLICY,
    }


def run(lib, workload, seed, seconds, traced, size="full"):
    """Run one workload; returns its Context with checks and metrics."""
    nproc = len(os.sched_getaffinity(0))
    ctx = workloads.Context(lib, workloads.SIZES[size], random.Random(seed),
                            seconds, traced, nproc)
    if traced:
        ctx.metric("cli.import_s", import_probe(ctx, ctx.size.process_reps), "s")
    else:
        ctx.setup_probe = lambda: setup_probe(ctx)
    workloads.WORKLOADS[workload](ctx)
    if not traced:
        ctx.metric("setup_s", min(ctx.setup_times), "s")
        ctx.metric("peak_rss_mb", peak_rss_mb(), "MB")
    return ctx


def _self_time_lines(tracer):
    by_layer = {}
    for name, (ns, count) in tracer.self_ns().items():
        layer = name.split(".", 1)[0]
        total, n = by_layer.get(layer, (0, 0))
        by_layer[layer] = (total + ns, n + count)
    whole = sum(ns for ns, _ in by_layer.values()) or 1
    return [f"self time {layer:<10} {ns / 1e9:9.4f} s {100 * ns / whole:5.1f}% "
            f"{n} spans" for layer, (ns, n) in sorted(by_layer.items())]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    lib = load_library()
    if lib is None:
        print(f"error: no package source at {SRC / 'pantsarc'}", file=sys.stderr)
        return 2
    ctx = run(lib, args.workload, args.seed, args.seconds, args.trace == 1)

    print("env " + json.dumps(environment(args, ctx.nproc), sort_keys=True))
    for name, value, unit, note in ctx.lines:
        print(f"{name} = {value:.6g} {unit}  ({note})")
    if ctx.tracer is not None:
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"spans-{args.workload}.jsonl.gz"
        ctx.tracer.write(path)
        print("\n".join(_self_time_lines(ctx.tracer)))
        print(f"spans: {len(ctx.tracer)} written to {path.relative_to(ROOT)}")
    for name, (value, unit) in ctx.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {ctx.failed / max(ctx.attempted, 1):.6g} "
          f"({ctx.failed} failed of {ctx.attempted} checked)")
    for what in ctx.failures:
        print(f"FAILED: {what}", file=sys.stderr)
    print(json.dumps({
        "correct": ctx.correct, "attempted": ctx.attempted, "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in ctx.metrics.items()}}))
    return 0 if ctx.correct else 1


if __name__ == "__main__":
    sys.exit(main())
