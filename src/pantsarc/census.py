"""Exhaustive censuses of arc words, grouped by word length.

Where the intersect module prices a single word, this module walks
every valid word of a given length and tallies the distribution of
self-intersection numbers.  Words sharing a prefix share every
segment pair inside that prefix, so the walk is a depth-first search
over letters that carries a running subtotal per tree node instead of
re-pricing each word from scratch.

Each undecidable pair belongs to a chain (see the intersect module)
and the chain must be charged exactly once.  The search charges it at
the member whose larger segment index is largest, because that member
is completed last: for a chain whose strands run parallel this is the
forward-most member, for antiparallel strands it is the rearmost one,
and a chain that merges into a boundary stretch is never charged at
all, which is also its correct price.

The children of a tree node share their newest segment s's start
fr[s] and every earlier segment; only to[s] differs between them.  A
chain's verdict compares its two divergence ends, and only one of them
reads to[s]: the rear end of a parallel chain lies behind (p, s), the
front end of an antiparallel one between p and s.  The search keeps
the end no child can move in a *residual byte* per earlier segment p,
its 6-bit shape fr << 3 | to plus that verdict bit, and prices every
child with one ``bytes.translate`` of the residual through a table for
the child's shape and a count of the ones, both in C.  No chain is
walked: the chain through (p, s) runs on through (p - 1, s - 1) or
(p + 1, s - 1), a pair of the parent node, so a node's residual is one
table step from its parent's, settled once for all of its children.
The charging rule is the one above, unchanged: the tables give each
chain its verdict at the same member, and every word's total equals
the word engine's.  The single-word engine's AlignmentOverrun for
colliding antiparallel strands cannot arise here: strands collide only
where to[P] == fr[Q] with Q - P <= 2, but a segment starts on the far
side of the cutting arc its predecessor ends on, and Q - P == 2 needs
a letter followed by its inverse, while the search grows reduced words
only.

The search splits into eight independent tasks keyed by the starting
boundary and the first crossing.  Two symmetries of the pants permute
them: relabelling the legs (boundaries 1 <-> 2, cutting arcs a <-> b)
and the mirror, which swaps the case of every letter (a <-> A,
b <-> B).  Together they split the tasks into two orbits of four,
{1B, 1b, 2A, 2a} and {3A, 3B, 3a, 3b}, and map the words of a task one
to one onto the words of every other task in its orbit.  A census
therefore prices one task per orbit and counts each of its words four
times.  The remaining tasks may spread over worker processes; the
merged histogram does not depend on the number of workers.

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

import functools
import os
from collections import Counter
from dataclasses import dataclass
from multiprocessing import Pool

from .planar import CORNER_ITEM, DECISIONS, EDGE_ITEM, FAR_WAIST_ITEM
from .words import ArcWord, _CLASHING_FAMILY

# every arc with no self-crossing at all, up to free homotopy
SIMPLE_WORDS = ("12", "13", "21", "23", "31", "32", "33", "1b1", "1B1", "2a2", "2A2")

# letter codes in the ASCII order of their characters: A, B, a, b
_LEX_CODES = (1, 3, 0, 2)

# admissible closing digits by family of the last crossing, ascending
_ENDS_FOR_FAMILY = ((2, 3), (1, 3))

# shapes of the last segment after the last letter, in the order of
# the closing digits
_CLOSING_SHAPES = tuple(
    tuple(EDGE_ITEM[last ^ 1] << 3
          | (CORNER_ITEM[end] if end != 3 else FAR_WAIST_ITEM[last ^ 1])
          for end in _ENDS_FOR_FAMILY[last >> 1])
    for last in range(4))

# crossing-free words, already in ASCII order
_BARE_WORDS = ("12", "13", "21", "23", "31", "32", "33")


class BudgetExceeded(RuntimeError):
    """A census was requested beyond the supported size without opting in."""


def count_words(word_length: int) -> int:
    """Number of valid words of the given length, counted directly.

    Crossing-free words contribute 7; with one crossing there are 16
    words, and each further crossing multiplies the count by 3.
    """
    if word_length < 2:
        raise ValueError("a word has at least two symbols")
    if word_length == 2:
        return 7
    return 16 * 3 ** (word_length - 3)


def enumerate_words(word_length: int):
    """Yield every valid word of the given length in ASCII order."""
    if word_length < 2:
        raise ValueError("a word has at least two symbols")
    if word_length == 2:
        for text in _BARE_WORDS:
            yield ArcWord(int(text[0]), (), int(text[1]))
        return
    L = word_length - 2
    letters = [0] * L

    def grow(k):
        if k == L:
            for end in _ENDS_FOR_FAMILY[letters[-1] >> 1]:
                yield ArcWord(start, tuple(letters), end)
            return
        banned = letters[k - 1] ^ 1 if k else None
        for c in _LEX_CODES:
            if c == banned:
                continue
            if k == 0 and c >> 1 == _CLASHING_FAMILY.get(start):
                continue
            letters[k] = c
            yield from grow(k + 1)

    for start in (1, 2, 3):
        yield from grow(0)


# one (start, first crossing) task per orbit, with letter codes
# a = 0, A = 1, b = 2, B = 3: 1B stands for {1B, 1b, 2A, 2a} and 3A
# for {3A, 3B, 3a, 3b}
_ORBIT_REPRESENTATIVES = ((1, 3), (3, 1))
_ORBIT_SIZE = 4


def _first_letter_tasks():
    tasks = []
    for start in (1, 2, 3):
        for c in _LEX_CODES:
            if c >> 1 != _CLASHING_FAMILY.get(start):
                tasks.append((start, c))
    return tasks


# a residual byte describes an earlier segment p as seen from segment
# s: the shape fr[p] << 3 | to[p] in bits 0-5 and, in this bit, the
# verdict at the end of p's chain with s that no child of s can move
_SHARED = 64

# decided verdicts kept, undecidable pairs cleared
_UNCHAINED = bytes((0, 1)).ljust(256, b"\0")


def _price_row(cs):
    """What the pair (p, s) adds, per residual byte of p, when segment s
    has shape cs: the decided verdict, 0 for a chain charged at another
    member, else the chain's verdict, in the branch order of the rule."""
    fs, ts = cs >> 3, cs & 7
    decided = DECISIONS[cs::64]
    row = bytearray(256)
    row[:64] = row[64:128] = decided.translate(_UNCHAINED)
    for shape in range(64):
        fp, tp = shape >> 3, shape & 7
        if decided[shape] < 2 or tp == ts:
            # decided, or parallel strands that continue forward
            continue
        if fp == fs:
            # forward-most member of a parallel chain; the shared bit
            # is the rear verdict
            front = (ts - fp) % 8 > (tp - fp) % 8
            row[shape], row[shape | _SHARED] = front, not front
        elif fp != ts:
            # rearmost member of an antiparallel chain; the shared bit
            # is the front verdict (with fp == ts the strands continue
            # rearward, or merge into one boundary stretch)
            rear = (ts - tp) % 8 < (fp - tp) % 8
            row[shape], row[shape | _SHARED] = rear, not rear
    return bytes(row)


def _step_row(qs):
    """What the residual byte of p seen from segment q = s - 1, of shape
    qs, settles of the residual seen from segment s.

    A segment starts on the far side of the cutting arc its predecessor
    ends on, so fr[x + 1] == fr[s] exactly when to[x] == to[q].  Bits
    0-5 keep p's shape.  Bit 7 is the shared (rear) verdict of the
    parallel chain whose forward-most member is (p + 1, s), and bit 6
    the shared (front) verdict of the antiparallel chain whose rearmost
    member is (p - 1, s).  Each chain runs on through (p, q), whose
    shared bit it copies, or diverges there, where it is read off.
    """
    fq, tq = qs >> 3, qs & 7
    row = bytearray(256)
    for shape in range(64):
        fp, tp = shape >> 3, shape & 7
        out, copied = shape, 0
        if tp == tq:
            if fp == fq:
                copied |= 128
            elif (fq - tp) % 8 < (fp - tp) % 8:
                out |= 128
        if fp == tq:
            if tp == fq:
                copied |= 64
            elif (fq - fp) % 8 > (tp - fp) % 8:
                out |= 64
        row[shape] = out
        row[shape | _SHARED] = out | copied
    return bytes(row)


@functools.cache
def _kernel_tables():
    """The census kernel's step and price tables, one row per segment
    shape, built on first use."""
    return (tuple(_step_row(shape) for shape in range(64)),
            tuple(_price_row(shape) for shape in range(64)))


def _census_task(word_length, start, first):
    """Histogram over all words of one (start, first crossing) job."""
    steps, prices = _kernel_tables()
    L = word_length - 2
    from_bytes = int.from_bytes
    # fields of a stepped residual read as one little-endian integer
    own = from_bytes(b"\x3f" * L, "little")
    ahead = from_bytes(b"\x80" * L, "little")
    behind = from_bytes(b"\x40" * L, "little")
    hist = Counter()

    def grow(k, prev, qs, parent, subtotal):
        # parent is the residual seen from segment k - 1, of shape qs;
        # the children of this node share segment k's start, so one
        # step prices every chain they share
        y = from_bytes(parent.translate(steps[qs]), "little")
        residual = (y & own | (y & ahead) << 7 | (y & behind) >> 8
                    | qs << 8 * (k - 1)).to_bytes(k, "little")
        if k == L:
            for cs in _CLOSING_SHAPES[prev]:
                hist[subtotal + residual.translate(prices[cs]).count(1)] += 1
            return
        f = EDGE_ITEM[prev ^ 1] << 3
        for c in _LEX_CODES:
            if c == prev ^ 1:
                continue
            cs = f | EDGE_ITEM[c]
            grow(k + 1, c, cs, residual,
                 subtotal + residual.translate(prices[cs]).count(1))

    head = CORNER_ITEM[start] if start != 3 else FAR_WAIST_ITEM[first]
    grow(1, first, head << 3 | EDGE_ITEM[first], b"", 0)
    return hist


def _census_task_args(args):
    return _census_task(*args)


@dataclass(frozen=True)
class CensusReport:
    """Distribution of self-intersection numbers at one word length."""

    word_length: int
    word_count: int
    min_i: int
    max_i: int
    histogram: dict

    def histogram_pairs(self):
        """The histogram as a sorted list of [value, count] pairs."""
        return [[i, self.histogram[i]] for i in sorted(self.histogram)]

    def as_dict(self):
        return {
            "word_length": self.word_length,
            "word_count": self.word_count,
            "min_i": self.min_i,
            "max_i": self.max_i,
            "histogram": self.histogram_pairs(),
        }


def _resolve_jobs(jobs):
    """The census worker count: ``jobs``, else the ARC_JOBS environment
    variable, else the logical CPU count; anything but a positive
    integer raises ValueError naming the bad value."""
    source = "jobs"
    if jobs is None:
        text = os.environ.get("ARC_JOBS")
        if text is None:
            return os.cpu_count() or 1
        source = "ARC_JOBS"
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError(f"ARC_JOBS must be a positive integer, "
                             f"got {text!r}") from None
    if jobs < 1:
        raise ValueError(f"{source} must be a positive integer, got {jobs}")
    return jobs


# beyond this length a census is hours of work, not minutes
CENSUS_SIZE_LIMIT = 16


def census(word_length: int, jobs: int | None = None,
           allow_large: bool = False) -> CensusReport:
    """Tally self-intersection numbers over all words of one length.

    ``jobs`` selects the number of worker processes (default: the
    ARC_JOBS environment variable, else the logical CPU count).  Lengths
    above CENSUS_SIZE_LIMIT are refused unless ``allow_large`` is set.
    """
    if word_length < 2:
        raise ValueError("a word has at least two symbols")
    if word_length > CENSUS_SIZE_LIMIT and not allow_large:
        raise BudgetExceeded(
            f"censuses beyond word length {CENSUS_SIZE_LIMIT} take hours; "
            "pass allow_large=True to run one anyway")
    jobs = _resolve_jobs(jobs)
    if word_length == 2:
        hist = Counter({0: 7})
    else:
        tasks = [(word_length, start, first)
                 for start, first in _ORBIT_REPRESENTATIVES]
        if jobs > 1:
            with Pool(min(jobs, len(tasks))) as pool:
                parts = pool.map(_census_task_args, tasks)
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
    L = word_length - 2
    if L < 0:
        raise ValueError("a word has at least two symbols")
    return max(0, (L + 1) // 2 - 1), L * (L + 1) // 2


def conjectured_max(word_length: int) -> int:
    """Conjectured largest i at one word length, matching every census run.

    With L crossings this is L^2/4 + L for even L and (L^2 - 1)/4 + L
    for odd L.
    """
    L = word_length - 2
    if L < 0:
        raise ValueError("a word has at least two symbols")
    return L * L // 4 + L


def max_witness(word_length: int) -> ArcWord:
    """A word attaining the conjectured maximum at its length."""
    L = word_length - 2
    if L < 0:
        raise ValueError("a word has at least two symbols")
    if L % 2 == 0:
        if L == 0:
            return ArcWord(1, (), 3)
        return ArcWord(1, (2, 1) * (L // 2), 3)
    return ArcWord(3, (2, 1) * (L // 2) + (2,), 3)


def check_conjectured_max(word_length: int) -> bool:
    """Whether the witness word really attains the conjectured maximum."""
    from .intersect import self_intersection

    return self_intersection(max_witness(word_length)) == conjectured_max(word_length)


def load_reference_minmax() -> dict:
    """The packaged census extremes, word length -> (min i, max i)."""
    import importlib.resources

    text = (importlib.resources.files("pantsarc")
            .joinpath("data/census_minmax.csv").read_text())
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line or line.startswith("word_length"):
            continue
        wl, lo, hi = line.split(",")
        out[int(wl)] = (int(lo), int(hi))
    return out
