"""Exhaustive censuses of arc words, grouped by word length.

Where the intersect module prices a single word, this module walks
every valid word of a given length and tallies the distribution of
self-intersection numbers.  Words sharing a prefix share every
segment pair inside that prefix, so the walk is a depth-first search
over letters that carries a running subtotal per tree node instead of
re-pricing each word from scratch; the intersect module's
``_count_tree`` runs it, with the word engine's rows and step.

The search, ``enumerate_words`` and the task split all walk the
planar module's successor table, ``_SUCCESSORS``.  It codes symbols
as the intersect module does, letters 0-3 and boundary digit d as
d + 3, and lists for each symbol the letters and the closing digits
that may follow it, in ASCII order, each with the shape of the
segment between the two.

The search splits into eight independent tasks keyed by the starting
boundary and the first crossing.  Two symmetries of the pants permute
them: relabelling the legs (boundaries 1 <-> 2, cutting arcs a <-> b)
and the mirror, which swaps the case of every letter (a <-> A,
b <-> B).  Together they split the tasks into two orbits of four,
{1B, 1b, 2A, 2a} and {3A, 3B, 3a, 3b}, and map the words of a task one
to one onto the words of every other task in its orbit.  A census
therefore prices one task per orbit and counts each of its words four
times.  The remaining two tasks spread over two worker processes when
the census is large enough to repay starting them; the merged
histogram does not depend on the number of workers.

That the four tasks of an orbit share one histogram is a property of
the true self-intersection number: relabelling is a homeomorphism of
the pants, and so is the mirror, the reflection that fixes both
cutting arcs pointwise and reverses the direction of every crossing;
a homeomorphism preserves the minimal number of self-crossings.
For this engine the invariance is empirical: the test suite checks
that the four histograms of each orbit agree at every word length from
3 to 12.
"""

from __future__ import annotations

import os
from collections import Counter, namedtuple

from .intersect import _count_tree
from .lowlying import family_intersections, family_word
from .planar import _SUCCESSORS
from .words import ArcWord, _data_lines


class BudgetExceeded(RuntimeError):
    """A census was requested beyond the supported size without opting in."""


def _crossings(word_length):
    """The crossing count L = word_length - 2 of a word of that length."""
    if not isinstance(word_length, int):
        raise ValueError(f"a word length is an integer, got {word_length!r}")
    if word_length < 2:
        raise ValueError("a word has at least two symbols")
    return word_length - 2


def count_words(word_length: int) -> int:
    """Number of valid words of the given length, counted directly.

    Crossing-free words contribute 7; with one crossing there are 16
    words, and each further crossing multiplies the count by 3.
    """
    L = _crossings(word_length)
    if L == 0:
        return 7
    return 16 * 3 ** (L - 1)


def enumerate_words(word_length: int):
    """Yield every valid word of the given length in ASCII order.

    The walk keeps its own stack, one iterator per letter placed, so a
    long word costs no Python frame per letter.
    """
    L = _crossings(word_length)
    letters = [0] * L
    for start in (1, 2, 3):
        # stack[k] runs over the letters that may sit at position k
        stack = []
        prev = start + 3
        while True:
            if len(stack) < L:
                stack.append(iter(_SUCCESSORS[prev][0]))
            else:
                for end, _ in _SUCCESSORS[prev][1]:
                    yield ArcWord(start, tuple(letters), end - 3)
            # the next letter, at the deepest position that has one left
            while stack:
                nxt = next(stack[-1], None)
                if nxt is not None:
                    break
                stack.pop()
            else:
                break
            prev = letters[len(stack) - 1] = nxt[0]


# one (start, first crossing) task per orbit, with letter codes
# a = 0, A = 1, b = 2, B = 3: 1B stands for {1B, 1b, 2A, 2a} and 3A
# for {3A, 3B, 3a, 3b}
_ORBIT_REPRESENTATIVES = ((1, 3), (3, 1))
_ORBIT_SIZE = 4


def _first_letter_tasks():
    return [(start, c) for start in (1, 2, 3)
            for c, _ in _SUCCESSORS[start + 3][0]]


# the histogram over all words of one (start, first crossing) task; the
# pool pickles it by its own name, pantsarc.intersect._count_tree
_census_task = _count_tree


class CensusReport(namedtuple("CensusReport",
                              "word_length word_count min_i max_i histogram")):
    """Distribution of self-intersection numbers at one word length."""

    __slots__ = ()

    def histogram_pairs(self):
        """The histogram as a sorted list of [value, count] pairs."""
        return [[i, self.histogram[i]] for i in sorted(self.histogram)]


# beyond this length a census covers count_words(17) = 76,527,504 words
# or more, three times as many with each further symbol
CENSUS_SIZE_LIMIT = 16

# below this many words a census runs in-process: starting a pool of two
# workers costs more than it saves (2 Intel Xeon vCPUs, medians of three
# sets of 20 alternating in-process pairs: 104,976 words at length 11
# took 19-24 ms pooled, 16 ms serial; 314,928 at length 12 32-51 ms
# pooled, 43-56 ms serial, pooled faster in 13-20 of 20; 944,784 at
# length 13 89-124 ms pooled, 132-148 ms serial)
_POOL_MIN_WORDS = 200_000


def census(word_length: int, jobs: int | None = None,
           allow_large: bool = False) -> CensusReport:
    """Tally self-intersection numbers over all words of one length.

    ``jobs`` bounds the number of worker processes (default: the
    logical CPU count).  No pool is started for a census of fewer than
    _POOL_MIN_WORDS words, where one would cost more than it saves, and
    none holds more workers than there are tasks.  Lengths above
    CENSUS_SIZE_LIMIT are refused unless ``allow_large`` is set.
    """
    L = _crossings(word_length)
    if word_length > CENSUS_SIZE_LIMIT and not allow_large:
        raise BudgetExceeded(
            f"censuses beyond word length {CENSUS_SIZE_LIMIT} cover "
            f"{count_words(CENSUS_SIZE_LIMIT + 1):,} words or more; "
            "pass allow_large=True to run one anyway")
    if jobs is None:
        jobs = os.cpu_count() or 1
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    if L == 0:
        hist = Counter({0: count_words(2)})
    else:
        tasks = [(word_length, start, first)
                 for start, first in _ORBIT_REPRESENTATIVES]
        if jobs > 1 and count_words(word_length) >= _POOL_MIN_WORDS:
            from multiprocessing import Pool

            with Pool(min(jobs, len(tasks))) as pool:
                results = [pool.apply_async(_census_task, t) for t in tasks]
                # waited on in task order, so a refusal names the first task
                parts = [r.get() for r in results]
        else:
            parts = [_census_task(*t) for t in tasks]
        hist = Counter()
        for part in parts:
            for i, n in part.items():
                hist[i] += _ORBIT_SIZE * n
    count = sum(hist.values())
    return CensusReport(word_length, count, min(hist), max(hist), dict(hist))


def length_bounds(word_length: int):
    """Proved bounds (lower, upper) on i over words of one length.

    With L crossings every arc satisfies
    ceil(L / 2) - 1 <= i <= L (L + 1) / 2 (lower bound clamped at 0).
    The lower bound is attained for odd L; the upper is far from tight.
    """
    L = _crossings(word_length)
    return max(0, (L + 1) // 2 - 1), L * (L + 1) // 2


def _max_ladder(word_length: int):
    """Family and n of the ladder word with L = word_length - 2 crossings."""
    L = _crossings(word_length)
    return ("F2" if L % 2 == 0 else "F4"), L // 2


def conjectured_max(word_length: int) -> int:
    """Conjectured largest i at one word length, matching every census run.

    It is the closed form of the ladder member ``max_witness`` returns,
    floor(L^2 / 4) + L with L crossings; that no word exceeds it is
    empirical, not proved.
    """
    return family_intersections(*_max_ladder(word_length))


def max_witness(word_length: int) -> ArcWord:
    """A word attaining the conjectured maximum: F2 at even L, F4 at odd L."""
    return family_word(*_max_ladder(word_length))


def load_reference_minmax() -> dict:
    """The packaged census extremes, word length -> (min i, max i)."""
    out = {}
    for line in _data_lines("census_minmax.csv"):
        if line.startswith("word_length"):
            continue
        wl, lo, hi = line.split(",")
        out[int(wl)] = (int(lo), int(hi))
    return out
