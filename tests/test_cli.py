import contextlib
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from pantsarc import cli, planar
from pantsarc.census import (CENSUS_SIZE_LIMIT, _POOL_MIN_WORDS, CensusReport,
                             count_words, enumerate_words)
from pantsarc.cli import main
from pantsarc.intersect import Trace
from pantsarc.lowlying import witness


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_intersect_json_is_exact(capsys):
    code, out, err = run(capsys, "intersect", "1BABA2")
    assert code == 0
    assert out == '{"word":"1BABA2","i":2}\n'
    assert err == ""


def test_intersect_text(capsys):
    code, out, _ = run(capsys, "intersect", "1BABA2", "--format", "text")
    assert code == 0
    assert out == "i(1BABA2) = 2\n"


def test_intersect_trace(capsys):
    code, out, _ = run(capsys, "intersect", "1BABA2", "--trace")
    payload = json.loads(out)
    assert code == 0
    assert payload["i"] == 2
    assert payload["segments"] == ["1B", "bA", "aB", "bA", "a2"]
    assert payload["grid"]["3,5"] == "1"
    assert payload["grid"]["1,3"] == "X"


def test_intersect_trace_text_shows_grid(capsys):
    _, out, _ = run(capsys, "intersect", "1BABA2", "--trace", "--format", "text")
    assert "total = 2" in out
    assert "w1=1B" in out


# sha256 of the stdout of `intersect WORD --trace`, JSON and text
TRACE_SHA256 = {
    "1BABA2": ("21a0a011fbcc59bf886e3333bddfff4c1829741bb16b996fbbabfdf0e69714f3",
               "eaccc65aa398bb4e4f35d11a394109cd783ddbe3d0ee6d331192c559b268d19b"),
    "1baB1": ("ee326aa8473711d1d72bda417e607eb29abe9d9dd307d9b055e9b9fc996f482f",
              "2fcba8f48096ac350a7c29e70306e6d1db415acc1d4d92ec9a05238554e363f9"),
    # one segment: no pairs, a header line of spaces only
    "12": ("7840e1b7bbd4b44bc6b1d1856d1168bb20184615eea8502eb38a5a04eddfcf3f",
           "cec70d87e683b395ec7b9bf1ca0c798e448e00ef40a516d954517fc62abad545"),
    # two segments: one pair
    "1b1": ("4e20bc31db431fc8f0c313d03705a9597729a7e9a07e7f1d9f2535cb4fea46f3",
            "e38a975e5be49f2a39fce29cab5ce9ff7438a95466a805e73c40a40fd928997c"),
    # the witness word for N = 1000
    "witness": ("18365f65d3f3c5df92ee66bd28debfe055509b425e33f00cc25c501afb003ca8",
                "14ddccf5cf85b09643323eea9994cbb5d67e065e1e7ae1d000a0440a66f3707e"),
}


@pytest.mark.parametrize("name", sorted(TRACE_SHA256))
def test_intersect_trace_bytes_are_stable(capsys, name):
    word = str(witness(1000).word) if name == "witness" else name
    for fmt, want in zip(("json", "text"), TRACE_SHA256[name]):
        code, out, _ = run(capsys, "intersect", word, "--trace", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, (name, fmt)


def test_intersect_trace_text_builds_no_cells(capsys, monkeypatch):
    def unread(self):
        raise AssertionError("the text path read Trace.cells")

    monkeypatch.setattr(Trace, "cells", property(unread))
    code, out, _ = run(capsys, "intersect", "1BABA2", "--trace", "--format", "text")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRACE_SHA256["1BABA2"][1]


def test_intersect_trace_json_builds_no_cells(capsys, monkeypatch):
    # the JSON payload is streamed row by row from Trace.grid
    def unread(self):
        raise AssertionError("the JSON path read Trace.cells")

    monkeypatch.setattr(Trace, "cells", property(unread))
    word = str(witness(1000).word)
    code, out, _ = run(capsys, "intersect", word, "--trace", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRACE_SHA256["witness"][0]


def test_intersect_imports_no_unused_stdlib():
    # a fresh process pays for every module the package imports; of
    # these the commands need none, or only for a pooled census or a
    # continued fraction; the packaged data files are read next to the
    # module, so the two commands that read them import nothing either
    unused = ("dataclasses", "inspect", "multiprocessing", "fractions",
              "importlib.resources", "typing")
    commands = (["intersect", "1BABA2"], ["fixtures"], ["tables", "--verify"])
    code = ("import sys; from pantsarc import cli; "
            f"codes = [cli.main(argv) for argv in {commands!r}]; "
            f"print(codes, [m for m in {unused!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    lines = proc.stdout.splitlines()
    assert lines[0] == '{"word":"1BABA2","i":2}', proc.stderr
    assert lines[-1] == "[0, 0, 0] []", proc.stderr


@pytest.mark.parametrize("fmt", ("json", "text"))
def test_intersect_prices_the_word_once(capsys, monkeypatch, fmt):
    calls = []
    price = cli.self_intersection

    def counting(w):
        calls.append(w)
        return price(w)

    monkeypatch.setattr(cli, "self_intersection", counting)
    code, out, _ = run(capsys, "intersect", "1BABA2", "--format", fmt)
    assert code == 0 and "2" in out
    assert len(calls) == 1


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "1BABA2")
    assert code == 0
    assert json.loads(out)["valid"] is True

    code, out, _ = run(capsys, "validate", "1aa2")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False and "error" in payload


def test_invalid_word_is_exit_1(capsys):
    code, out, err = run(capsys, "intersect", "1aa2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_usage_error_is_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["intersect"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1


def test_unknown_subcommand_is_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_main_builds_the_parser_once(monkeypatch):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    for argv in (["intersect", "1BABA2"], ["validate", "12"],
                 ["intersect", "1aa2"], ["cf", "2,1,1"]):
        main(argv)
    with pytest.raises(SystemExit):
        main(["census", "--jobs", "x"])
    assert len(built) == 1
    # build_parser itself still gives a new parser on every call
    assert build_parser() is not build_parser()


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--length", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 7
    assert payload["words"][0] == "12"

    code, out, _ = run(capsys, "enumerate", "--length", "4", "--count-only")
    assert json.loads(out) == {"word_length": 4, "count": 48}

    code, out, _ = run(capsys, "enumerate", "--length", "2",
                       "--count-only", "--format", "text")
    assert out == "7\n"


def test_enumerate_streams_the_list_bytes(capsys):
    for n in range(2, 9):
        words = [str(w) for w in enumerate_words(n)]
        payload = {"word_length": n, "count": count_words(n), "words": words}
        code, out, _ = run(capsys, "enumerate", "--length", str(n))
        assert code == 0
        assert out == json.dumps(payload, separators=(",", ":")) + "\n"
        code, out, _ = run(capsys, "enumerate", "--length", str(n),
                           "--format", "text")
        assert code == 0
        assert out == "\n".join(words) + "\n"


def test_census_contains_reference_extremes(capsys):
    code, out, _ = run(capsys, "census", "--length", "4")
    assert code == 0
    assert '"min_i":1,"max_i":3' in out
    payload = json.loads(out)
    assert payload["word_count"] == 48
    assert payload["histogram"] == [[1, 8], [2, 32], [3, 8]]


def test_census_histogram_file(capsys, tmp_path):
    target = tmp_path / "hist.csv"
    code, out, _ = run(capsys, "census", "--length", "4",
                       "--histogram", str(target))
    assert code == 0
    assert target.read_text() == "i,count\n1,8\n2,32\n3,8\n"


def test_census_deterministic_across_jobs(capsys):
    # at the first length that starts a pool, so that --jobs 2 runs the
    # tasks in worker processes
    wl = str(next(wl for wl in range(2, CENSUS_SIZE_LIMIT + 1)
                  if count_words(wl) >= _POOL_MIN_WORDS))
    _, out1, _ = run(capsys, "census", "--length", wl, "--jobs", "1")
    _, out2, _ = run(capsys, "census", "--length", wl, "--jobs", "2")
    assert out1 == out2


def test_census_keeps_nothing_per_call():
    # the command keeps nothing from one call to the next, so a process
    # running many grows only by what its caller keeps of their output
    argv = ["census", "--length", "8", "--jobs", "1"]
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(argv) == 0
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                main(argv)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024


def test_census_rejects_bad_jobs(capsys):
    for bad in ("0", "-3"):
        code, out, err = run(capsys, "census", "--length", "4", "--jobs", bad)
        assert code == 1 and out == ""
        assert err.startswith("error:") and bad in err
    code, out, _ = run(capsys, "census", "--length", "4", "--jobs", "1")
    assert code == 0 and json.loads(out)["word_count"] == 48


def test_census_warns_above_the_size_limit(capsys, monkeypatch):
    calls = []

    def stub(*args, **kwargs):
        calls.append((args, kwargs))
        return CensusReport(args[0], 1, 0, 0, {0: 1})

    monkeypatch.setattr(cli, "census", stub)
    code, _, err = run(capsys, "census", "--length", "17", "--jobs", "1")
    assert code == 0
    assert err.startswith("warning: census at word length 17 exceeds ")
    assert calls == [((17,), {"jobs": 1, "allow_large": True})]


def _cap_address_space():
    # 512 MB for the child and the pool workers it forks, which inherit
    # it: a histogram list of 30000 * 30001 / 2 entries, 3.6 GB, cannot
    # be allocated under it
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


def test_census_deeper_than_the_recursion_limit_is_refused():
    # the search recurses once per letter: past the recursion limit its
    # first descent fails at once, and a task that deep is refused before
    # its histogram is allocated, as invalid input and not as a defect
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for length, jobs in (("1100", "1"), ("30000", "1"), ("30000", "2")):
        proc = subprocess.run(
            [sys.executable, "-m", "pantsarc", "census", "--length", length,
             "--jobs", jobs], env=env, capture_output=True, text=True,
            timeout=30, preexec_fn=_cap_address_space)
        assert proc.returncode == 1 and proc.stdout == "", proc.stderr
        warning, error = proc.stderr.splitlines()
        assert warning.startswith(
            f"warning: census at word length {length} exceeds ")
        # both tasks are refused, and the first is named, pooled or not
        assert error == (f"error: census task ({length}, 1, 3) is deeper "
                         "than the recursion limit")


@pytest.mark.parametrize("argv", [("spectrum", "--max", "-5"),
                                  ("cover", "--max", "-1"),
                                  ("cover", "--max", "x")])
def test_verification_bound_must_be_natural(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and argv[-1] in err


def test_family_verify(capsys):
    code, out, _ = run(capsys, "family", "--id", "Z3", "--n", "1", "--verify")
    payload = json.loads(out)
    assert code == 0
    assert payload["pass"] is True
    assert payload["i_computed"] == payload["i"] == 23
    assert payload["max_quotient"] == 2


def test_family_without_required_m(capsys):
    code, _, err = run(capsys, "family", "--id", "Z1", "--n", "1")
    assert code == 1
    assert "m" in err


def test_witness(capsys):
    code, out, _ = run(capsys, "witness", "14")
    payload = json.loads(out)
    assert code == 0
    assert list(payload) == ["N", "family", "n", "m", "word",
                             "i_computed", "cf", "max_quotient"]
    assert payload["family"] == "Z3"
    assert payload["i_computed"] == 14
    assert payload["max_quotient"] <= 2


def test_spectrum(capsys):
    code, out, _ = run(capsys, "spectrum", "--max", "60")
    payload = json.loads(out)
    assert code == 0
    assert payload == {"max": 60, "checked": 61, "failures": [], "pass": True}


def test_cover(capsys):
    code, out, _ = run(capsys, "cover", "--max", "300")
    payload = json.loads(out)
    assert code == 0
    assert payload["gaps"] == []
    assert payload["pass"] is True
    assert all(payload["identities"].values())


def test_cover_keeps_no_value_set():
    # the family values go into one byte per value as they are made, so
    # the command holds that table and not a set of every value
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(["cover", "--max", "100000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.extended
def test_cover_at_ten_million(capsys):
    code, out, err = run(capsys, "cover", "--max", str(10**7))
    assert code == 0 and err == ""
    assert out == ('{"max":10000000,"gaps":[],"identities":{"Z1":true,'
                   '"Z2":true,"Z3":true,"Z4":true,"Z5":true},"pass":true}\n')


def test_tables(capsys):
    code, out, _ = run(capsys, "tables", "--verify")
    payload = json.loads(out)
    assert code == 0
    assert payload["pass"] is True
    assert payload["pairs"] == 408


def test_cf(capsys):
    code, out, _ = run(capsys, "cf", "2,1,1")
    assert code == 0
    assert json.loads(out)["value"] == "2/5"

    code, _, err = run(capsys, "cf", "2,x")
    assert code == 1 and err.startswith("error:")

    code, _, err = run(capsys, "cf", "2,0,1")
    assert code == 1


def test_fixtures_packaged(capsys):
    code, out, _ = run(capsys, "fixtures")
    payload = json.loads(out)
    assert code == 0
    assert payload == {"file": "packaged", "rows": 79,
                       "failures": [], "pass": True}


def test_fixtures_report_failures(capsys, tmp_path):
    bad = tmp_path / "rows.csv"
    bad.write_text("word,expected_i\n1BABA2,2\n3aB1,5\n")
    code, out, err = run(capsys, "fixtures", "--file", str(bad))
    payload = json.loads(out)
    assert code == 2
    assert err.startswith("FAIL:") and "3aB1" in err
    assert payload["pass"] is False
    assert payload["failures"] == [
        {"word": "3aB1", "expected": 5, "computed": 3}]


def test_fixtures_without_rows_fail(capsys, tmp_path):
    empty = tmp_path / "rows.csv"
    empty.write_text("word,expected_i\n# no rows yet\n")
    code, out, err = run(capsys, "fixtures", "--file", str(empty))
    assert code == 2
    assert err == f"FAIL: no fixture rows in {empty}\n"
    assert json.loads(out) == {"file": str(empty), "rows": 0,
                               "failures": [], "pass": False}


@pytest.mark.parametrize("row", ["1BABA2", "1BABA2,two"])
def test_fixtures_name_a_malformed_row(capsys, tmp_path, row):
    bad = tmp_path / "rows.csv"
    bad.write_text(f"word,expected_i\n3aB1,3\n{row}\n")
    code, out, err = run(capsys, "fixtures", "--file", str(bad))
    assert code == 1 and out == ""
    assert err == f"error: fixture row {row!r} is not word,integer\n"


def test_fixtures_name_a_row_that_fails_to_parse(capsys, tmp_path):
    bad = tmp_path / "rows.csv"
    bad.write_text("word,expected_i\n3aB1,3\n1aA2,3\n")
    code, out, err = run(capsys, "fixtures", "--file", str(bad))
    assert code == 1 and out == ""
    assert err == ("error: fixture row '1aA2,3': crossing 'a' retracts "
                   "into boundary 1 (position 1)\n")


@pytest.fixture
def off_by_one(monkeypatch):
    """The CLI's engine, made to count one crossing too many."""
    price = cli.self_intersection
    monkeypatch.setattr(cli, "self_intersection", lambda w: price(w) + 1)


def test_spectrum_reports_failures(capsys, off_by_one):
    code, out, err = run(capsys, "spectrum", "--max", "20")
    payload = json.loads(out)
    assert code == 2
    assert err.startswith("FAIL:")
    assert payload["pass"] is False
    assert [f["N"] for f in payload["failures"]] == list(range(21))
    assert all(f["i_computed"] == f["N"] + 1 for f in payload["failures"])


def test_witness_reports_failure(capsys, off_by_one):
    code, out, err = run(capsys, "witness", "5")
    payload = json.loads(out)
    assert code == 2
    assert err.startswith("FAIL:")
    assert payload["N"] == 5 and payload["i_computed"] == 6


@pytest.mark.parametrize("argv", [("witness", "5"), ("spectrum", "--max", "5")])
def test_witness_above_the_quotient_bound_fails(capsys, monkeypatch, argv):
    # a witness that counts right but is only 3-low-lying
    def high(target):
        wit = witness(target)
        return wit._replace(quotients=wit.quotients + (3,))

    monkeypatch.setattr(cli, "witness", high)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("FAIL:")
    payload = json.loads(out)
    if argv[0] == "witness":
        assert payload["i_computed"] == 5 and payload["max_quotient"] == 3
    else:
        assert [f["max_quotient"] for f in payload["failures"]] == [3] * 6


def test_family_verify_reports_failure(capsys, off_by_one):
    code, out, err = run(capsys, "family", "--id", "Z1", "--n", "1",
                         "--m", "1", "--verify")
    payload = json.loads(out)
    assert code == 2
    assert err.startswith("FAIL:")
    assert payload["pass"] is False
    assert payload["i_computed"] == payload["i"] + 1


def test_tables_reports_a_missing_pair(capsys, monkeypatch):
    reference = cli.load_reference_pairs()
    dropped = min(reference)
    verdict = reference.pop(dropped)
    monkeypatch.setattr(cli, "load_reference_pairs", lambda: reference)
    code, out, err = run(capsys, "tables", "--verify")
    payload = json.loads(out)
    assert code == 2
    assert err.startswith("FAIL:")
    assert payload["pass"] is False
    assert payload["mismatches"] == [{"pair": list(dropped),
                                      "regenerated": verdict.name,
                                      "reference": None}]


def test_tables_checks_the_engines_decision_table(capsys, monkeypatch):
    # one entry of the table the count reads, flipped: (ab, BA) cross
    s, t = planar.SEGMENT_LABELS["ab"], planar.SEGMENT_LABELS["BA"]
    packed = (s.fr << 3 | s.to) << 6 | t.fr << 3 | t.to
    table = bytearray(planar.DECISIONS)
    table[packed] = planar.Classification.NON_INTERSECTING.value
    monkeypatch.setattr(planar, "DECISIONS", bytes(table))
    code, out, err = run(capsys, "tables", "--verify")
    assert code == 2
    assert err.startswith("FAIL: 1 mismatches, first pair ['ab', 'BA']:")
    assert json.loads(out)["mismatches"] == [{"pair": ["ab", "BA"],
                                              "regenerated": "NON_INTERSECTING",
                                              "reference": "INTERSECTING"}]


def test_cover_reports_a_missing_value(capsys, monkeypatch):
    members = cli.value_set_members

    def short(family, limit):
        values = set(members(family, limit))
        return values - {max(values)}

    monkeypatch.setattr(cli, "value_set_members", short)
    code, out, err = run(capsys, "cover", "--max", "50")
    payload = json.loads(out)
    assert code == 2
    assert err.startswith("FAIL:")
    assert payload["pass"] is False
    assert not any(payload["identities"].values())


def test_fixtures_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "fixtures", "--file", str(tmp_path / "no.csv"))
    assert code == 1
    assert err.startswith("error:")
