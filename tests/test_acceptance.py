"""The eleven headline acceptance checks, one pass/fail line each.

Every check reports its verdict in the "acceptance checklist" section
printed after the test table, where pytest's capture cannot hide it.
Wall-clock budgets are asserted with perf_counter; they are generous
on a warm machine but real, so a quadratic regression in the engine
fails the gate.
"""

import functools
import hashlib
import io
import itertools
import json
import multiprocessing
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from pantsarc import cli
from pantsarc.census import census, enumerate_words, length_bounds, load_reference_minmax
from pantsarc.intersect import _strand_side, _walk_chain, self_intersection, trace
from pantsarc.lowlying import (
    family_intersections,
    family_quotients,
    family_word,
    load_reference_words,
)
from pantsarc.planar import (
    DECISIONS,
    SEGMENT_LABELS,
    Classification,
    _shapes,
    load_reference_pairs,
    regenerate_tables,
)
from pantsarc.words import (
    inverse,
    is_positive,
    parse_word,
    positivize,
    relabel,
    seam_counts,
)

from circle_oracle import chords_cross, item_points, second_strand_left
from conftest import ACCEPTANCE_LINES


def criterion(number, summary):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_LINES.append(f"criterion {number}: FAIL - {summary}")
                raise
            ACCEPTANCE_LINES.append(f"criterion {number}: PASS - {summary}")
        return wrapper
    return deco


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


GRID_1BABA2 = {
    (1, 2): "0", (1, 3): "X", (1, 4): "0", (1, 5): "1",
    (2, 3): "0", (2, 4): "X", (2, 5): "0",
    (3, 4): "0", (3, 5): "1",
    (4, 5): "0",
}


@criterion(1, "worked example: i(1BABA2) = 2 with the pinned trace grid")
def test_worked_example():
    rc, out, _ = run_cli("intersect", "1BABA2")
    assert rc == 0
    assert json.loads(out) == {"word": "1BABA2", "i": 2}
    t = trace(parse_word("1BABA2"))
    assert t.total == 2
    assert t.cells == GRID_1BABA2
    w = parse_word("1BABA2")
    self_intersection(w)
    t0 = time.perf_counter()
    for _ in range(100):
        self_intersection(w)
    assert (time.perf_counter() - t0) / 100 < 1e-3


@criterion(2, "all 408 decidable segment pairs regenerate exactly")
def test_table_regeneration():
    t0 = time.perf_counter()
    fresh = regenerate_tables()
    packaged = load_reference_pairs()
    assert fresh == packaged
    assert len(fresh) == 408
    assert time.perf_counter() - t0 < 1.0


@criterion(3, "census extremes match the reference at word lengths 2..12")
def test_census_reference(census_by_length):
    reference = load_reference_minmax()
    for wl in range(2, 13):
        report = census_by_length[wl]
        assert (report.min_i, report.max_i) == reference[wl], wl


# word count, sum of i, sum of i^2 and the SHA-256 of
# json.dumps(report.histogram_pairs()) at word lengths 13-16; the
# length-16 row is also ROADMAP item 14's table
CENSUS_MOMENTS = {
    13: (944_784, 21_505_292, 506_385_100,
         "14ed2fa705cc942734ad94ae762ee8cdf1cb4a193d2f8c5d044778d3e81c12f0"),
    14: (2_834_352, 74_207_248, 2_007_604_320,
         "2e0773417e38fae4e34463e91a6fffab595f366ad634d138587c430ee3694323"),
    15: (8_503_056, 253_583_364, 7_806_592_524,
         "d2597ee37134d7c159885b4b566baf5f1d952695eb2158e1e7ce684a717ff114"),
    16: (25_509_168, 859_307_448, 29_852_772_832,
         "f8f2335987c4d5911a034a6d7440bea7cf94c0e12045f0ceb69b9c17b670f450"),
}


@pytest.mark.extended
@criterion(3, "census extremes and histogram pins at word lengths 13..16 (extended)")
def test_census_reference_extended():
    t0 = time.perf_counter()
    reference = load_reference_minmax()
    for wl in range(13, 17):
        report = census(wl)
        assert (report.min_i, report.max_i) == reference[wl], wl
        pairs = report.histogram_pairs()
        digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
        assert (report.word_count, sum(i * n for i, n in pairs),
                sum(i * i * n for i, n in pairs), digest) == CENSUS_MOMENTS[wl], wl
    assert time.perf_counter() - t0 < 600


@criterion(4, "ladder families meet their closed forms for n = 0..30")
def test_ladder_families():
    t0 = time.perf_counter()
    for n in range(31):
        assert self_intersection(family_word("F1", n)) == n
        assert self_intersection(family_word("F2", n)) == n * n + 2 * n
        assert self_intersection(family_word("F3", n)) == n
        assert self_intersection(family_word("F4", n)) == n * n + 3 * n + 1
        t = trace(family_word("F1", n))
        assert t.total == n
        assert sum(1 for v in t.cells.values() if v == "1") == n
    assert time.perf_counter() - t0 < 5.0


@criterion(5, "quadratic families meet their closed forms with quotients <= 2")
def test_quadratic_families():
    t0 = time.perf_counter()
    jobs = []
    for n in range(16):
        for m in range(1, 16):
            jobs.append(("Z1", n, m))
            jobs.append(("Z2", n, m))
    for n in range(16):
        for fam in ("Z3", "Z4", "Z5"):
            jobs.append((fam, n, None))
    jobs.append(("C2", 0, None))
    jobs.append(("C7", 0, None))
    for fam, n, m in jobs:
        w = family_word(fam, n, m)
        assert self_intersection(w) == family_intersections(fam, n, m), (fam, n, m)
        q = family_quotients(fam, n, m)
        assert q and min(q) >= 1 and max(q) <= 2, (fam, n, m)
    assert time.perf_counter() - t0 < 30.0


@criterion(6, "packaged fixtures reproduce (79 rows; 11 catalogued errata rows excluded)")
def test_word_fixtures():
    t0 = time.perf_counter()
    rows = load_reference_words()
    assert len(rows) == 79
    for text, expected in rows:
        assert self_intersection(parse_word(text)) == expected, text
    assert time.perf_counter() - t0 < 1.0


@criterion(7, "spectrum witnesses realize every count through 1000")
def test_spectrum():
    t0 = time.perf_counter()
    rc, out, _ = run_cli("spectrum", "--max", "1000")
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["checked"] == 1001
    assert payload["failures"] == []
    assert time.perf_counter() - t0 < 30.0


@criterion(8, "family value sets cover 0..100000 with no gap")
def test_cover():
    t0 = time.perf_counter()
    rc, out, _ = run_cli("cover", "--max", "100000")
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["gaps"] == []
    assert all(payload["identities"].values())
    assert time.perf_counter() - t0 < 10.0


@criterion(9, "exhaustive property sweep over word length <= 10")
def test_property_sweep():
    t0 = time.perf_counter()
    pool = []
    ivals = {}
    for wl in range(2, 11):
        for w in enumerate_words(wl):
            pool.append(w)
            ivals[str(w)] = self_intersection(w)
    for w in pool:
        n = ivals[str(w)]
        assert ivals[str(inverse(w))] == n
        assert ivals[str(relabel(w))] == n
        lo, hi = length_bounds(w.word_length)
        assert lo <= n <= hi
        if is_positive(w):
            assert n >= max(seam_counts(w)) - 1
        p = positivize(w)
        assert p.word_length == w.word_length
        assert seam_counts(p) == seam_counts(w)
        assert ivals[str(p)] <= n
        # the chains partition the pairs: decided pairs from DECISIONS,
        # each undecidable one's chain walked once from the word's shapes
        sc = _shapes(w)
        T = len(sc)
        assigned = {}
        for pq in itertools.combinations(range(T), 2):
            if pq in assigned:
                continue
            p, q = pq
            if DECISIONS[sc[p] << 6 | sc[q]] != 2:
                members = (pq,)
            else:
                members = _walk_chain(sc, p, q)[0]
            assert pq in members
            for member in members:
                assert assigned.setdefault(member, members) == members
        assert len(assigned) == T * (T - 1) // 2
    assert time.perf_counter() - t0 < 120.0


@criterion(10, "classification and side convention agree with the circle oracle")
def test_circle_oracle_agreement():
    t0 = time.perf_counter()
    points = item_points()
    for (name1, name2), verdict in load_reference_pairs().items():
        s1, s2 = SEGMENT_LABELS[name1], SEGMENT_LABELS[name2]
        crossing = chords_cross(points, s1, s2)
        assert crossing == (verdict is Classification.INTERSECTING), (name1, name2)
    rng = random.Random(1010)
    for _ in range(1000):
        shared = rng.randrange(8)
        item1, item2 = rng.sample([k for k in range(8) if k != shared], 2)
        into = rng.random() < 0.5
        pts = item_points(rng, jitter=0.3)
        assert (_strand_side(shared, into, item1, item2)
                == second_strand_left(pts, shared, into, item1, item2))
    assert time.perf_counter() - t0 < 1.0


@criterion(11, "census report is byte-identical across worker counts")
def test_census_determinism(monkeypatch):
    # length 12 is the first length whose census starts a pool
    started = []
    pool = multiprocessing.Pool
    monkeypatch.setattr(multiprocessing, "Pool",
                        lambda n: started.append(n) or pool(n))
    rc1, out1, _ = run_cli("census", "--length", "12", "--jobs", "1")
    assert started == []
    rc8, out8, _ = run_cli("census", "--length", "12", "--jobs", "8")
    assert len(started) == 1
    assert rc1 == 0 and rc8 == 0
    assert out1 == out8
