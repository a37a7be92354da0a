"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at the tiny size, untraced and traced, and checks
that each run passes its gate and reports exactly the metrics that
BENCHMARK.json names.  Then injects a wrong answer into each workload
and checks that the gate fails, checks that a run that checked nothing
fails, and checks that the command exits non-zero without a result when
the package source is missing.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import run
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def faulty(lib):
    """The library with wrong answers injected: words running from
    boundary 1 to boundary 2 count one crossing too many, and the CLI
    prints one byte too many."""
    def self_intersection(w):
        return lib.self_intersection(w) + (w.start == 1 and w.end == 2)

    def cli_main(argv):
        code = lib.cli_main(argv)
        print()
        return code

    return SimpleNamespace(**{**vars(lib), "self_intersection": self_intersection,
                              "cli_main": cli_main})


def check(ok, what):
    if not ok:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main():
    lib = run.load_library()
    check(lib is not None, "the package source is present")
    for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
        names = {m["name"] for m in SPEC[kind]}
        for name in workloads.WORKLOADS:
            ctx = run.run(lib, name, 1, 1, traced, "tiny")
            check(ctx.correct and ctx.failed == 0,
                  f"{name} trace={int(traced)} passes its gate "
                  f"({ctx.attempted} checked)")
            check(set(ctx.metrics) == names,
                  f"{name} trace={int(traced)} reports the {kind} metrics")

    bad = faulty(lib)
    for name in workloads.WORKLOADS:
        ctx = run.run(bad, name, 1, 1, False, "tiny")
        check(not ctx.correct and ctx.failed > 0,
              f"{name} fails its gate on an injected wrong answer "
              f"({ctx.failed} of {ctx.attempted} failed)")

    empty = workloads.Context(lib, workloads.SIZES["tiny"], None, 1, False, 1)
    check(not empty.correct, "a run that checked nothing is not correct")

    argv = [sys.executable, str(HERE / "run.py"), "--workload", "engine-short",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
    last = json.loads(proc.stdout.splitlines()[-1])
    check(proc.returncode == 0
          and set(last) == {"correct", "attempted", "failed", "metrics"},
          "the command prints the result object last and exits 0")

    # a directory holding only BENCHMARK.json and the benchmark's files
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", *argv[3:]],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "without the package source the command fails and prints no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
