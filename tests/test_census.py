import multiprocessing
import re
from collections import Counter
from itertools import product

import pytest

from pantsarc.census import (
    BudgetExceeded,
    CENSUS_SIZE_LIMIT,
    _POOL_MIN_WORDS,
    _census_task,
    _first_letter_tasks,
    census,
    conjectured_max,
    count_words,
    enumerate_words,
    length_bounds,
    load_reference_minmax,
    max_witness,
)
from pantsarc.intersect import _count_tree, self_intersection
from pantsarc.words import LETTER_CHARS, WordError, parse_word

# every function of a word length refuses the same lengths, each with
# the one message for it
TOO_SHORT = "^a word has at least two symbols$"
REFUSED_LENGTHS = {1: TOO_SHORT, 0: TOO_SHORT, -1: TOO_SHORT,
                   4.5: r"^a word length is an integer, got 4\.5$",
                   4.0: r"^a word length is an integer, got 4\.0$"}

# the (start, first crossing) tasks, grouped into their orbits under
# relabelling (1 <-> 2, a <-> b) and mirroring (a <-> A, b <-> B)
TASK_ORBITS = tuple(
    tuple((int(t[0]), LETTER_CHARS.index(t[1])) for t in orbit)
    for orbit in (("1B", "1b", "2A", "2a"), ("3A", "3B", "3a", "3b")))


def test_count_formula():
    assert [count_words(wl) for wl in range(2, 8)] == [7, 16, 48, 144, 432, 1296]
    for wl, message in REFUSED_LENGTHS.items():
        with pytest.raises(ValueError, match=message):
            count_words(wl)


def test_count_matches_enumeration():
    for wl in range(2, 8):
        assert len(list(enumerate_words(wl))) == count_words(wl)
    for wl, message in REFUSED_LENGTHS.items():
        words = enumerate_words(wl)
        with pytest.raises(ValueError, match=message):
            next(words)


def _parses(text):
    try:
        parse_word(text)
    except WordError:
        return False
    return True


def test_enumeration_is_sorted_and_valid():
    for wl in (2, 3, 5, 6):
        texts = [str(w) for w in enumerate_words(wl)]
        assert texts == sorted(texts)
        assert len(set(texts)) == len(texts)
        for text in texts:
            assert str(parse_word(text)) == text
            assert parse_word(text).word_length == wl
    # the successor table the walk steps admits exactly what the parser does
    for wl in range(2, 7):
        accepted = {text for text in map("".join, product("123aAbB", repeat=wl))
                    if _parses(text)}
        assert {str(w) for w in enumerate_words(wl)} == accepted


def test_enumeration_runs_past_the_recursion_limit():
    # the walk keeps its own stack, so 2998 letters need no 2998 frames
    words = enumerate_words(3000)
    head = "1B" + "A" * 2997
    assert [str(next(words)), str(next(words))] == [head + "2", head + "3"]


def test_bare_words_enumerated():
    assert [str(w) for w in enumerate_words(2)] == [
        "12", "13", "21", "23", "31", "32", "33"]


def test_simple_words_are_valid_and_simple():
    # every arc with no self-crossing at all, up to free homotopy
    for text in ("12", "13", "21", "23", "31", "32", "33",
                 "1b1", "1B1", "2a2", "2A2"):
        assert self_intersection(parse_word(text)) == 0


def test_census_report_is_consistent(census_by_length):
    for wl, report in census_by_length.items():
        assert report.word_length == wl
        assert report.word_count == count_words(wl)
        assert sum(report.histogram.values()) == report.word_count
        assert report.min_i == min(report.histogram)
        assert report.max_i == max(report.histogram)


def test_census_matches_reference_extremes(census_by_length):
    reference = load_reference_minmax()
    for wl, report in census_by_length.items():
        assert (report.min_i, report.max_i) == reference[wl]


def test_reference_covers_lengths_2_to_16():
    reference = load_reference_minmax()
    assert sorted(reference) == list(range(2, 17))
    assert reference[4] == (1, 3)
    assert reference[10] == (4, 24)
    assert reference[12] == (5, 35)
    assert reference[16] == (7, 63)


# the first length large enough for a pool
POOLED_LENGTH = next(wl for wl in range(2, CENSUS_SIZE_LIMIT + 1)
                     if count_words(wl) >= _POOL_MIN_WORDS)


@pytest.fixture
def pools_started(monkeypatch):
    """The size of each pool the census starts, in order."""
    started = []
    pool = multiprocessing.Pool
    monkeypatch.setattr(multiprocessing, "Pool",
                        lambda n: started.append(n) or pool(n))
    return started


def test_census_is_deterministic_across_workers(pools_started):
    # one side runs the tasks in worker processes
    wl = POOLED_LENGTH
    assert census(wl, jobs=1) == census(wl, jobs=2)
    assert pools_started == [2]


def test_census_pools_from_the_crossover(pools_started):
    # the first length large enough for a pool, and the one below it
    wl = POOLED_LENGTH
    assert census(wl - 1, jobs=2) == census(wl - 1, jobs=1)
    assert pools_started == []
    assert census(wl, jobs=2) == census(wl, jobs=1)
    assert pools_started == [2]


def test_task_orbits_share_one_histogram(census_by_length):
    assert sorted(sum(TASK_ORBITS, ())) == sorted(_first_letter_tasks())
    for wl in range(3, 13):
        hists = {t: _census_task(wl, *t) for t in _first_letter_tasks()}
        for orbit in TASK_ORBITS:
            assert all(hists[t] == hists[orbit[0]] for t in orbit), (wl, orbit)
        assert census_by_length[wl].histogram == dict(sum(hists.values(), Counter()))


def test_tasks_match_the_word_engine():
    # the pool maps the engine's tree walk itself, pickled by its name
    assert _census_task is _count_tree
    # every task histogram, word by word against the single-word engine
    for wl in range(3, 11):
        by_task = {t: Counter() for t in _first_letter_tasks()}
        for w in enumerate_words(wl):
            by_task[w.start, w.letters[0]][self_intersection(w)] += 1
        for task, hist in by_task.items():
            assert _census_task(wl, *task) == hist, (wl, task)


def test_count_tree_refuses_a_task_with_no_word():
    # too short for a first crossing, an endpoint clash (1a), codes out
    # of range, which would otherwise read as other symbols, and fields
    # that are not integers
    for task in ((2, 1, 3), (1, 1, 3), (3, 1, 0), (4, 1, 5), (4, 0, 1),
                 (4, 4, 1), (10.0, 1, 3), (10, 1.0, 3), (10, 1, 3.0),
                 ("10", 1, 3)):
        with pytest.raises(ValueError,
                           match=rf"^census task {re.escape(str(task))} has no word: "):
            _count_tree(*task)


def test_count_tree_keeps_only_counts_that_occur():
    # the tree walk tallies into a list, one entry per possible count;
    # Counter == ignores a zero entry, so test_tasks_match_the_word_engine
    # cannot see one, and census() would read it as an extreme
    for wl in range(3, 13):
        for task in _first_letter_tasks():
            hist = _count_tree(wl, *task)
            assert type(hist) is Counter
            assert 0 not in hist.values(), (wl, task)
            assert sum(hist.values()) == count_words(wl) // 8, (wl, task)


def test_census_rejects_nonpositive_jobs():
    # a non-int is refused up front at every size, not by the pool
    for bad in (0, -2, 1.5, "2"):
        for wl in (4, 12):
            with pytest.raises(ValueError, match="jobs must be a positive "
                               f"integer, got {re.escape(repr(bad))}$"):
                census(wl, jobs=bad)


def test_census_budget_guard():
    with pytest.raises(BudgetExceeded, match="word length 16 cover "
                       "76,527,504 words or more"):
        census(17)
    for wl, message in REFUSED_LENGTHS.items():
        with pytest.raises(ValueError, match=message):
            census(wl)


def test_histogram_pairs_sorted(census_by_length):
    pairs = census_by_length[8].histogram_pairs()
    assert pairs == sorted(pairs)
    assert all(count > 0 for _, count in pairs)


def test_length_bounds_frame_the_census(census_by_length):
    for wl, report in census_by_length.items():
        lo, hi = length_bounds(wl)
        assert lo <= report.min_i <= report.max_i <= hi
        if wl % 2 == 1:  # odd crossing count: the floor is attained
            assert report.min_i == lo
    for wl, message in REFUSED_LENGTHS.items():
        with pytest.raises(ValueError, match=message):
            length_bounds(wl)


def test_conjectured_max_attained(census_by_length):
    for wl, report in census_by_length.items():
        assert report.max_i == conjectured_max(wl)


def test_max_witness_words():
    for wl in range(2, 17):
        w = max_witness(wl)
        assert str(parse_word(str(w))) == str(w)
        assert w.word_length == wl
        assert self_intersection(w) == conjectured_max(wl)
    for call in (conjectured_max, max_witness):
        for wl, message in REFUSED_LENGTHS.items():
            with pytest.raises(ValueError, match=message):
                call(wl)
