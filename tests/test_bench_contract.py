"""The calls the benchmark makes into the package, made once each at a
tiny size, so that a renamed or re-shaped function fails here rather
than only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

from pantsarc.census import census, count_words

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_library_contract(capsys, monkeypatch):
    # the runner imports its sibling modules by name and puts the source
    # tree on sys.path; both changes are undone after the test
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    lib = runner.load_library()
    assert lib is not None

    tasks = lib.census_tasks()
    assert len(tasks) == 8
    hist = lib.census_task(5, *tasks[0])
    assert sum(hist.values()) == count_words(5) // len(tasks)

    w = lib.parse_word("1BABA2")
    cells = lib.trace(w).cells
    assert cells[(3, 5)] == "1" and cells[(1, 3)] == "X"
    chain = lib.resolve_chain(w, 1, 3)
    assert (1, 3) in chain.members

    rows = lib.load_reference_words()
    assert rows and all(isinstance(i, int) for _, i in rows)
    report = census(5)
    assert lib.load_reference_minmax()[5] == (report.min_i, report.max_i)

    assert lib.cli_main(["census", "--length", "4"]) == 0
    assert capsys.readouterr().out.startswith('{"word_length":4,')
