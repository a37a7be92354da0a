import itertools
import multiprocessing
import random
import tracemalloc

import pytest
from hypothesis import given

from pantsarc.census import enumerate_words, length_bounds
from pantsarc.intersect import (
    AlignmentOverrun,
    Chain,
    _kernel_tables,
    _strand_side,
    resolve_chain,
    self_intersection,
    trace,
)
from pantsarc.lowlying import witness
from pantsarc.planar import endpoint_items, segments
from pantsarc.words import (
    ArcWord, inverse, is_positive, parse_word, positivize, relabel, seam_counts)

import oracle_modular
from circle_oracle import item_points, second_strand_left
from conftest import arc_words, random_word

TABLE_GRID_1BABA2 = {
    (1, 2): "0", (1, 3): "X", (1, 4): "0", (1, 5): "1",
    (2, 3): "0", (2, 4): "X", (2, 5): "0",
    (3, 4): "0",
    (3, 5): "1",
    (4, 5): "0",
}


def test_worked_example():
    assert self_intersection(parse_word("1BABA2")) == 2


def test_worked_example_grid():
    t = trace(parse_word("1BABA2"))
    assert t.total == 2
    assert t.labels == ("1B", "bA", "aB", "bA", "a2")
    assert t.cells == TABLE_GRID_1BABA2


def test_known_values():
    assert self_intersection(parse_word("12")) == 0
    assert self_intersection(parse_word("3aB1")) == 3
    assert self_intersection(parse_word("1bAbAbA3")) == 15


def test_simple_words_have_no_crossings():
    for text in ("12", "13", "21", "23", "31", "32", "33",
                 "1b1", "1B1", "2a2", "2A2"):
        assert self_intersection(parse_word(text)) == 0


def test_resolve_chain_of_the_worked_example():
    w = parse_word("1BABA2")
    c = resolve_chain(w, 1, 3)
    assert c.members == ((1, 3), (2, 4), (3, 5))
    assert c.decision == 1 and c.parallel and not c.free_end
    assert c.terminal == (3, 5)
    assert resolve_chain(w, 1, 5) == Chain(((1, 5),), False, False, 1)
    assert resolve_chain(w, 1, 2) == Chain(((1, 2),), False, False, 0)
    with pytest.raises(ValueError):
        resolve_chain(w, 3, 3)
    with pytest.raises(ValueError):
        resolve_chain(w, 0, 2)


def test_chain_is_the_same_from_every_member():
    w = parse_word("1BABA2")
    chain = resolve_chain(w, 1, 3)
    for i, j in chain.members:
        assert resolve_chain(w, i, j) == chain


@given(arc_words())
def test_chains_partition_all_pairs(w):
    T = len(w.letters) + 1
    seen = {}
    for i in range(1, T):
        for j in range(i + 1, T + 1):
            members = resolve_chain(w, i, j).members
            assert (i, j) in members
            for pair in members:
                assert seen.setdefault(pair, members) == members
    assert len(seen) == T * (T - 1) // 2


@given(arc_words())
def test_trace_matches_the_count(w):
    t = trace(w)
    T = len(w.letters) + 1
    assert t.total == self_intersection(w)
    assert len(t.cells) == T * (T - 1) // 2
    assert sum(1 for v in t.cells.values() if v == "1") == t.total
    assert set(t.cells.values()) <= {"0", "1", "X"}


@given(arc_words())
def test_chain_terminal_carries_the_digit(w):
    t = trace(w)
    for (i, j), cell in t.cells.items():
        chain = resolve_chain(w, i, j)
        if cell == "X":
            assert (i, j) != chain.terminal
        else:
            assert (i, j) == chain.terminal
            assert cell == str(chain.decision)


@given(arc_words())
def test_invariant_under_inverse_and_relabel(w):
    n = self_intersection(w)
    assert self_intersection(inverse(w)) == n
    assert self_intersection(relabel(w)) == n
    # the mirror: every crossing reversed
    assert self_intersection(ArcWord(w.start, tuple(c ^ 1 for c in w.letters), w.end)) == n


@given(arc_words())
def test_length_bounds_hold(w):
    lo, hi = length_bounds(w.word_length)
    assert lo <= self_intersection(w) <= hi


@given(arc_words())
def test_positivize_never_increases_crossings(w):
    assert self_intersection(positivize(w)) <= self_intersection(w)


def _positivize_every_other(word_length, offset):
    for w in itertools.islice(enumerate_words(word_length), offset, None, 2):
        positivize(w)


@pytest.mark.extended
def test_positivize_never_increases_through_length_12():
    # the exhaustive check the positivize docstring states; positivize
    # raises on a word whose rewrites both raise the count, and the
    # property sweep of the acceptance suite covers lengths up to 10
    halves = [(wl, offset) for wl in (11, 12) for offset in (0, 1)]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        pool.starmap(_positivize_every_other, halves)


@given(arc_words())
def test_positive_words_meet_the_seam_floor(w):
    p = positivize(w)
    assert is_positive(p)
    counts = seam_counts(p)
    assert self_intersection(p) >= max(counts) - 1


def test_render_shows_the_total():
    text = trace(parse_word("1BABA2")).render()
    assert text.splitlines()[-1] == "total = 2"
    assert "w1=1B" in text


def test_side_convention_against_circle_oracle():
    rng = random.Random(1010)
    for _ in range(1000):
        shared = rng.randrange(8)
        item1, item2 = rng.sample([x for x in range(8) if x != shared], 2)
        into = rng.random() < 0.5
        points = item_points(rng, jitter=0.3)
        assert _strand_side(shared, into, item1, item2) == \
            second_strand_left(points, shared, into, item1, item2)


@pytest.fixture(scope="module")
def hyperbolic():
    return oracle_modular.fitting_conventions()[0]


def test_hyperbolic_oracle_agrees_exhaustively(hyperbolic):
    for wl in range(2, 8):
        for w in enumerate_words(wl):
            assert (oracle_modular.self_intersection(str(w), hyperbolic)
                    == self_intersection(w)), str(w)


def test_hyperbolic_oracle_agrees_on_samples(hyperbolic):
    rng = random.Random(23)
    for wl in (10, 12, 14, 17):
        for _ in range(20):
            w = random_word(rng, wl)
            n = self_intersection(w)
            assert oracle_modular.self_intersection(str(w), hyperbolic) == n, str(w)
            # the mirror, on which the census orbit reduction rests
            mirror = ArcWord(w.start, tuple(c ^ 1 for c in w.letters), w.end)
            assert oracle_modular.self_intersection(str(mirror), hyperbolic) == n, str(w)


def _chains(w):
    """Every chain of the word, each resolved once by walking it member
    by member from the first of its pairs met row by row."""
    T = len(w.letters) + 1
    chains, seen = [], set()
    for pair in itertools.combinations(range(1, T + 1), 2):
        if pair not in seen:
            chain = resolve_chain(w, *pair)
            assert seen.isdisjoint(chain.members), (str(w), pair)
            seen.update(chain.members)
            chains.append(chain)
    return chains


def test_count_matches_trace_and_chain_walks():
    # the stepped count against trace's row-stepped grid, whose tables
    # come from the same builder _rows run the other way, on every word
    # through length 10 and on long words; and against the chain walks
    # behind resolve_chain, the independent check, which share only
    # _strand_side with either, on every word through length 8 and on
    # random words of lengths 11-30; the words of lengths 1000-3000
    # carry the most prices and hand-ons per step
    rng = random.Random(4)
    words = [w for wl in range(2, 11) for w in enumerate_words(wl)]
    words += [random_word(rng, rng.randrange(50, 301)) for _ in range(20)]
    walked = [w for wl in range(2, 9) for w in enumerate_words(wl)]
    walked += [random_word(rng, rng.randrange(11, 31)) for _ in range(20)]
    words += [random_word(rng, rng.randrange(1000, 3001)) for _ in range(4)]
    for w in words + walked[-20:]:
        assert self_intersection(w) == trace(w).total, str(w)
    for w in walked:
        assert self_intersection(w) == sum(
            chain.decision for chain in _chains(w)), str(w)


def test_kernel_rows_price_or_hand_on():
    # one row per shape; on every entry a residual byte can reach, a
    # row holds a price of 0 or 1 or hands a verdict on in bit 6 or 7,
    # never both: entries in {0, 1, 0x40, 0x80} are what make the
    # count's popcount under & ones and its one hand-on mask exact
    rows = _kernel_tables()
    assert len(rows) == 64
    for row in rows:
        assert len(row) == 256
        assert set(row[:128]) <= {0, 1, 0x40, 0x80}


def test_count_holds_one_residual_at_a_time():
    # the count keeps O(T) bytes: a residual and its translate, never
    # the rows of earlier steps; all T - 1 rows of this word joined
    # would hold about 4.5 MB
    word = witness(10**6).word
    T = len(word.letters) + 1
    tracemalloc.start()
    try:
        n = self_intersection(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T == 2997 and n == 10**6
    assert peak < 64 << 10, peak


def test_labels_and_render_through_length_10():
    # the label table against the segments' own labels, and the
    # one-translate render against a join of the letters, which
    # parses back to the word
    for wl in range(2, 11):
        for w in enumerate_words(wl):
            assert trace(w).labels == tuple(s.label() for s in segments(w))
            text = str(w)
            mid = "".join("aAbB"[c] for c in w.letters)
            assert text == f"{w.start}{mid}{w.end}"
            assert parse_word(text) == w


def test_trace_cells_follow_the_chain_walks():
    # every cell of every word through length 9: "X" exactly on a
    # chain's members other than its terminal, the chain's verdict there
    for wl in range(2, 10):
        for w in enumerate_words(wl):
            cells = trace(w).cells
            chains = _chains(w)
            assert sum(len(chain.members) for chain in chains) == len(cells)
            for chain in chains:
                for pair in chain.members:
                    want = str(chain.decision) if pair == chain.terminal else "X"
                    assert cells[pair] == want, (str(w), pair)


def test_trace_keeps_one_copy_of_the_grid():
    # the grid is the one stored form of a trace: at T = 801 a dict
    # keyed by pairs would peak near 28 MiB, the grid near 1 MiB
    word = witness(10**5).word
    T = len(word.letters) + 1
    tracemalloc.start()
    try:
        t = trace(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T == 801
    assert peak < 4 << 20, peak
    assert len(t.grid) == T * (T - 1) // 2
    assert t.grid == "".join(t.cells.values())


def test_free_chain_is_never_charged():
    # 1baB1 starts and ends on the boundary-1 stretch: the chain through
    # (1, 4) merges into it at both word ends and carries a 0 at (2, 3)
    t = trace(parse_word("1baB1"))
    assert t.cells[(1, 4)] == "X"
    assert t.cells[(2, 3)] == "0"
    chain = resolve_chain(parse_word("1baB1"), 1, 4)
    assert chain.free_end and chain.members == ((1, 4), (2, 3))


def test_non_reduced_words_are_rejected():
    # hand-built words, parse_word bypassed: every start, end and letter
    # string through 6 crossings, endpoint clashes included, through the
    # engine and through the planar model's readers of the segments
    for crossings in range(7):
        for letters in itertools.product(range(4), repeat=crossings):
            undone = next((k for k in range(1, crossings)
                           if letters[k] == letters[k - 1] ^ 1), None)
            for start, end in itertools.product((1, 2, 3), repeat=2):
                w = ArcWord(start, letters, end)
                if undone is None:
                    assert self_intersection(w) == trace(w).total, str(w)
                    continue
                for call in (self_intersection, trace,
                             lambda w: resolve_chain(w, 1, 2), segments,
                             lambda w: endpoint_items(w.start, w.letters, w.end)):
                    with pytest.raises(AlignmentOverrun) as err:
                        call(w)
                    assert str(err.value).startswith(f"{w}: ")
                    assert f"(position {undone + 1})" in str(err.value)
