"""Minimal self-intersection numbers of arcs.

The arc's word is turned into the chord diagram of the planar module;
each unordered pair of chords then either visibly crosses, visibly
does not, or is undecidable because the two chords meet in a side of a
cutting arc.  An undecidable pair is resolved by sliding both strands
across the shared side, segment by segment, until they diverge (or
merge into a boundary stretch).  The pairs visited while sliding form
a *chain*; the whole chain contributes at most one crossing, namely
exactly when the two divergence ends fall on opposite sides of the
strands' common corridor.

Within a chain the two strands either run in the same direction along
the word (parallel) or in opposite directions (antiparallel); which
one is forced by how the shared side is approached.

One rule settles every chain: ``_chain_ends`` gives, for an
undecidable pair, whether its strands run parallel and the verdict at
each end of its chain that lies at the pair, through ``_strand_side``
alone.  One builder, ``_rows``, makes every byte table below from it,
for a column of the count or a row of ``trace``.  ``resolve_chain``
walks a chain member by member, through ``_walk_chain``, to list the
pairs it drags along; ``trace`` walks only the one chain that can merge
into a boundary stretch at both word ends, through the same
``_walk_chain``, in O(T).

The count charges each chain once, at the member whose larger segment
index is largest, because that member is reached last: the
forward-most member of a parallel chain, the rearmost member of an
antiparallel one.  A chain that merges into a boundary stretch is
never charged, which is also its correct price.  Two loops step the
same rows with the same step: ``_extend`` walks one path, a word, and
``_count_tree`` walks every path of the census's search tree.  Each
sees the earlier segments p of its newest segment s as *residual
bytes*: p's 6-bit shape fr << 3 | to plus, in bit 6, the verdict at
the end of p's chain with s that does not read to[s].  The residual
is read as one little-endian integer, segment s - 1 in its low byte.
Each segment shape has one row, indexed by the residual byte, and all
pairs (p, s) go through one ``bytes.translate`` of the residual through
the row of s's shape.  Bit 0 of the result is the price of (p, s).
Bits 6 and 7 hand the verdict on where the chain through (p, s) runs
on, through (p + 1, s + 1) when parallel (bit 6) or (p - 1, s + 1)
when antiparallel (bit 7); the two never share an entry with a price
of 1, so every entry a residual reaches is 0, 1, 0x40 or 0x80.  The
step reads the result as one integer y, and the residual seen from
s + 1 is the shapes of segments 0 to s and one mask ``kept`` of bit 6
in every byte over y | y << 15: bit 6 stays in its byte, bit 7 lands
on bit 6 two bytes up, and bits 0 and 6 land on bits 7 and 5, outside
the mask.  A word of T segments takes T - 1 steps of at most T
bytes, all in C.

The step that prices every pair (p, s) is column s.  The state after
it is the pair (y, total): y read off its translate, which hands the
verdicts on, and the prices summed so far; the shapes come from the
word.  ``_extend(sc, k, y, total)`` steps columns k to T - 1 from the
state left after column k - 1, so a word is priced from its prefix's
state.  The state after column H - 1 depends on the first H shapes
alone, so ``_head``, one ``functools.cache`` over ``_extend``, keeps
the state after a word's head, its first min(T, H) segments with
H = 6, from the first word that opens with it; ``self_intersection``
steps on from there.  Only valid words get past ``planar._shapes``, so
the cache keeps at most 3,887 states: 1,944 heads of longer words, 8
opening segments each followed by 3^5 letter paths, and the 1,943
words of at most H segments, each its own head.
``_count_tree`` writes the step inline, in a node's loop over children.

The children of a search-tree node share their newest segment s's start
fr[s] and every earlier segment; only to[s] differs between them.  The
residual holds only the chain ends no child can move, so a node builds
it once and steps each child from it: one translate through the row of
the child's shape, read as one integer y, gives the child ``_extend``'s
state (y, total), the node's prices plus the ones of y, and its
residual.  One cache, ``_steps()``, holds each symbol's letter children
from ``planar._SUCCESSORS`` with their rows; the root is the opening
digit's entry with only the first letter kept, and an empty residual.
A child at the last letter has only the two closing digits every
letter has: ``_steps()`` merges their rows into one *end-pair row* per
letter, bit 0 the price against the first digit's segment and bit 1
against the second's, so its parent prices both words in its own loop
with one more translate, read as one integer z, and no call: the first
word adds the ones of z in bit 0 of every byte, the second the rest.

The shapes of a word come from one translate too, ``planar._shapes``
of the symbol pairs through ``planar._PAIR_SHAPES``.

The steps presume a reduced and taut word.  A crossing undone by its
reverse leaves a segment from a side to itself, where a chain can
collide with itself, and an endpoint clash one that retracts.
``planar._shapes`` rejects a word ``parse_word`` refuses with
AlignmentOverrun, so the count, ``trace``, ``resolve_chain`` and the
planar model's ``segments`` and ``endpoint_items`` all refuse it before
they look at any pair; the tree grows valid words only, from
``planar._SUCCESSORS``, and ``_count_tree`` refuses a task with none.
The strands of a reduced word never collide, which needs to[P] ==
fr[Q] with Q - P <= 2, and only a first segment starts and only a last
one ends on a boundary stretch, so only the free chain through
(0, T - 1) runs on at a word end.
``tests/test_planar.py::test_pair_shapes_keep_chains_in_range`` checks
these facts on every symbol pair and window ``_PAIR_SHAPES`` allows,
so ``_walk_chain`` needs no guard.

``trace`` keeps the whole pair grid as one string of cells, row by
row, and puts a chain's digit at its forward-most member.  It steps
rows instead of columns, because a row completes both kinds of chain
exactly there.  Row p holds one residual byte per later segment q,
with the rear verdict of the chain through (p, q) in bit 6.  One
translate through the trace row of p's shape gives its cells, as a
digit in bit 0 or bit 1 set where the chain runs on past (p, q), and
the verdicts handed on in bits 6 and 7.  Read as an integer y, the
row gives row p + 1 through one mask of y | y >> 17; one last
translate writes the cells as the ASCII bytes 0, 1 and X.  At most one
chain merges into a boundary stretch at both word ends: the chain
through (0, T - 1), when the first segment is the last one reversed.
Its rear verdict means nothing, so after the pass ``trace`` finds its
front member with ``_walk_chain`` and sets that cell to 0.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import Counter, namedtuple

from .planar import _FROM, _LABELS, _SUCCESSORS, _TO, DECISIONS, _shapes
from .words import ArcWord


def self_intersection(w: ArcWord) -> int:
    """Minimal number of self-crossings of the arc described by ``w``.

    Raises AlignmentOverrun, naming the word, for a word built by hand
    that ``parse_word`` refuses.
    """
    sc = _shapes(w)
    return _extend(sc, H, *_head(sc[:H]))[1]


def _strand_side(shared, into, item1, item2):
    if item1 == item2:
        raise ValueError("strands at the same item have not diverged")
    r1 = (item1 - shared) % 8
    r2 = (item2 - shared) % 8
    return (r2 < r1) if into else (r2 > r1)


# the ASCII trace cell of each row entry, by its low two bits
_CELLS = b"01X\0" * 64


def _chain_ends(ps, qs):
    """The chain through the undecidable pair (p, q), p < q, of shapes ps
    and qs: whether its strands run parallel, and the verdict at its
    rear end and at its front end, each None where the chain runs on
    past (p, q) instead of ending there.  The strands share an item at
    (p, q), so the chain runs on past it at least one way, and at least
    one of the two is None.

    At the rear end the strands share to[p] and part at fr[p] and fr[q]
    (parallel) or to[q] (antiparallel); at the front end they share
    fr[p] and part at to[p] and to[q] (parallel) or fr[q]
    (antiparallel).  The whole chain adds one crossing exactly when the
    two verdicts differ.
    """
    fp, tp, fq, tq = ps >> 3, ps & 7, qs >> 3, qs & 7
    parallel = tp == tq or fp == fq
    at_rear, at_front = (fq, tq) if parallel else (tq, fq)
    rear = None if fp == at_rear else _strand_side(tp, True, fp, at_rear)
    front = None if tp == at_front else _strand_side(fp, False, tp, at_front)
    return parallel, rear, front


def _rows(s, later):
    """The row of a segment of shape s, indexed by the residual byte of a
    partner segment: an earlier one when ``later`` (a column of the count),
    else a later one (a row of ``trace``).  The byte holds the partner's
    shape and, in bit 6, the verdict at the end of its chain with s that
    this direction reaches first.

    Bit 0 of an entry holds a decided pair's verdict, or on a chain that
    ends at the pair at the end this direction reaches last (the end that
    reads to[s] for a column, the front end for a row) whether that end's
    verdict differs from the other end's.  A chain that runs on there
    instead hands the other end's verdict on to its next member, where
    the partner is one segment on (bit 6, a parallel chain) or one
    segment back (bit 7, an antiparallel one); in a row its entry also
    sets bit 1, the cell X.  The two never share an entry, so in a
    column every entry is 0, 1, 0x40 or 0x80.
    """
    # DECISIONS is symmetric, so one slice serves both directions
    decided = DECISIONS[s << 6:(s + 1) << 6]
    row = bytearray((decided * 2).ljust(256, b"\0"))
    runs_on = 0 if later else 2
    for x in range(64):
        if decided[x] < 2:
            continue
        parallel, rear, front = _chain_ends(x, s) if later else _chain_ends(s, x)
        # the end reached last, and the one bit 6 holds
        here, there = (rear, front) if later and not parallel else (front, rear)
        for y in (x, x | 64):
            far = y >> 6 if there is None else there
            if here is not None:
                row[y] = far != here
            else:
                row[y] = (far << 6 if parallel else far << 7) | runs_on
    return bytes(row)


@functools.cache
def _tables(later):
    """The rows of every segment shape, built on first use: over earlier
    partners for ``self_intersection`` and ``_count_tree`` when
    ``later``, else over later partners for ``trace``."""
    return tuple([_rows(s, later) for s in range(64)])


@functools.cache
def _steps():
    """The letter children (c, cs, row, pair) of each symbol code, built
    on first use from ``_SUCCESSORS`` and ``_tables(True)``: the letter,
    the shape of the segment to it, that shape's row and the letter's
    end-pair row, bit 0 of an entry set where its first closing digit's
    row holds a 1 and bit 1 where its second one's does."""
    rows = _tables(True)
    pairs = [bytes([(rows[a][x] == 1) | (rows[b][x] == 1) << 1
                    for x in range(256)])
             for (_, a), (_, b) in (ends for _, ends in _SUCCESSORS[:4])]
    return tuple([tuple([(c, cs, rows[cs], pairs[c]) for c, cs in letters])
                  for letters, _ in _SUCCESSORS])


def _extend(sc, k, y, total):
    """Step columns k to T - 1 of the segment shapes ``sc`` of a reduced
    word from the state (y, total) left after column k - 1, and return
    the state after column T - 1; the empty state, after column 0, is
    (0, 0) at k = 1."""
    T = len(sc)
    rows = _tables(True)
    from_bytes = int.from_bytes
    # a step's prices sit in bit 0 of each byte of y, its kept verdicts
    # in bit 6
    ones = from_bytes(b"\x01" * T, "little")
    kept = ones << 6
    # the shapes seen from segment s are the top s bytes of the word's
    # shapes read big-endian
    shapes = from_bytes(sc, "big")
    shift = 8 * (T - k + 1)
    for s in range(k, T):
        shift -= 8
        residual = (shapes >> shift | (y | y << 15) & kept).to_bytes(s, "little")
        y = from_bytes(residual.translate(rows[sc[s]]), "little")
        total += (y & ones).bit_count()
    return y, total


# a word's head is its first min(T, H) segments: 1,944 heads open the
# longer words and the 1,943 shorter ones are their own, so ``_head``
# keeps at most 3,887 states, about 0.8 MB with their keys
H = 6


@functools.cache
def _head(head):
    """The state after the last column of a word's head ``head``."""
    return _extend(head, 1, 0, 0)


def _count_tree(word_length, start, first):
    """Histogram of the counts of every word of the given length that
    starts with the boundary digit ``start`` and the letter ``first``;
    ValueError, naming the task, for a task with no word or too deep.

    Each node steps its children from ``_steps()``, the root the opening
    digit's child at the first letter, and prices a child at the last
    letter in its own loop.  A task has no word when that root is empty.
    The leaves tally into a flat list indexed by the count, which
    CPython updates faster than a ``Counter``: a word of L crossings has
    L + 1 segments, so at most L (L + 1) / 2 self-crossings (the upper
    bound of ``census.length_bounds``), and every count indexes a list
    of L (L + 1) / 2 + 1 entries; an IndexError would be a fault of the
    rows.  The histogram is returned as a ``Counter`` of the nonzero
    entries."""
    steps = _steps()
    root = (tuple([t for t in steps[start + 3] if t[0] == first])
            if all(isinstance(x, int) for x in (word_length, start, first))
            and 0 < start < 4 else ())
    task = f"census task ({word_length!r}, {start!r}, {first!r})"
    if not root or word_length < 3:
        raise ValueError(f"{task} has no word: it needs an integer length "
                         "of 3 or more, a boundary digit 1-3 and a letter "
                         "code 0-3 that may follow it")
    L = word_length - 2
    # grow recurses once per letter: refuse before hist is allocated
    if L >= sys.getrecursionlimit():
        raise ValueError(f"{task} is deeper than the recursion limit")
    from_bytes = int.from_bytes
    ones = from_bytes(b"\x01" * L, "little")
    kept = ones << 6
    hist = [0] * (L * (L + 1) // 2 + 1)

    def grow(k, residual, shapes, subtotal, children):
        # residual: segments 0 to k - 2 seen from segment k - 1, whose
        # start the children share; shapes: segments k - 2 down to 0;
        # subtotal: the prices of their pairs
        for c, cs, row, pair in children:
            y = from_bytes(residual.translate(row), "little")
            total = subtotal + (y & ones).bit_count()
            seen = shapes << 8 | cs
            child = (seen | (y | y << 15) & kept).to_bytes(k, "little")
            if k < L:
                grow(k + 1, child, seen, total, steps[c])
            else:
                # the last letter: both closing words in one translate,
                # bit 0 the first closing digit, bit 1 the second
                z = from_bytes(child.translate(pair), "little")
                a = (z & ones).bit_count()
                hist[total + a] += 1
                hist[total + z.bit_count() - a] += 1

    try:
        grow(1, b"", 0, 0, root)
    except RecursionError:
        raise ValueError(f"{task} is deeper than the recursion limit") from None
    return Counter({i: n for i, n in enumerate(hist) if n})


class Chain(namedtuple("Chain", "members parallel free_end decision")):
    """A resolved segment pair: the members it drags along and the
    verdict shared by all of them.  Member pairs are 1-based.  A
    decidable pair stands alone as a one-member chain with its own
    verdict; ``parallel`` is False for those."""

    __slots__ = ()


def _walk_chain(sc, p0, q0):
    """Members and verdict of the chain through the undecidable (p0, q0)
    of a word with segment shapes ``sc`` from ``planar._shapes``, which
    accepts only words ``parse_word`` accepts.

    The partner strand q steps by dq, +1 on a parallel chain and -1 on
    an antiparallel one, and is read through ``back`` at the rear end
    and ``ahead`` at the front end.  On such a word only the free chain
    through (0, T - 1) runs on at p == 0, and no chain runs past the
    last segment or collides with itself (see the module docstring), so
    the walk needs no guard but ``p and``.
    """
    fr, to = sc.translate(_FROM), sc.translate(_TO)
    parallel = to[p0] == to[q0] or fr[p0] == fr[q0]
    back, ahead, dq = (fr, to, 1) if parallel else (to, fr, -1)
    p, q = p0, q0
    while p and fr[p] == back[q]:
        p -= 1
        q -= dq
    bp, bq = p, q
    # same boundary stretch at both word ends: a free end
    free = fr[p] == back[q]
    p, q = p0, q0
    while to[p] == ahead[q]:
        p += 1
        q += dq
    # (p, q) is the front member now
    # tuples are built from lists, not generators: tuple() resizes a
    # tuple grown from a generator, and the resized tuples pile up in
    # CPython's per-size tuple free lists, so a process that traces
    # many words grows by megabytes
    members = tuple([(bp + k, bq + k * dq) for k in range(p - bp + 1)])
    if free:
        decision = 0
    else:
        rear = _strand_side(to[bp], True, fr[bp], back[bq])
        front = _strand_side(fr[p], False, to[p], ahead[q])
        decision = int(rear != front)
    return members, parallel, free, decision


def resolve_chain(w: ArcWord, i: int, j: int) -> Chain:
    """Resolve the chain through the segment pair (i, j).

    Indices are 1-based positions along the word's segment list.  A
    pair decidable from its endpoints comes back as a singleton chain
    carrying its own verdict; an undecidable pair drags in the whole
    chain it belongs to.
    """
    sc = _shapes(w)
    T = len(sc)
    if not (isinstance(i, int) and isinstance(j, int) and 1 <= i < j <= T):
        raise ValueError(f"need integers 1 <= i < j <= {T}, got ({i!r}, {j!r})")
    p, q = i - 1, j - 1
    c = DECISIONS[sc[p] << 6 | sc[q]]
    if c != 2:
        return Chain(((i, j),), False, False, c)
    members, parallel, free, decision = _walk_chain(sc, p, q)
    return Chain(tuple([(a + 1, b + 1) for a, b in members]),
                 parallel, free, decision)


class Trace(namedtuple("Trace", "word labels grid total")):
    """The full pair grid behind one self-intersection count.

    ``grid`` holds one cell "0", "1" or "X" per 1-based pair (i, j),
    i < j, row by row in ``itertools.combinations`` order: decided pairs
    carry their contribution, chain members defer to the forward-most
    member of their chain, which carries the digit for the whole chain
    and is the only place a chain can add to the total.
    """

    __slots__ = ()

    @property
    def cells(self) -> dict:
        """The grid's cells keyed by pair (i, j), built on each access."""
        pairs = itertools.combinations(range(1, len(self.labels) + 1), 2)
        return dict(zip(pairs, self.grid))


def trace(w: ArcWord) -> Trace:
    """Evaluate the word and keep the whole pair grid for inspection.

    Raises AlignmentOverrun, naming the word, for a word built by hand
    that ``parse_word`` refuses.
    """
    sc = _shapes(w)
    T = len(sc)
    table = _tables(False)
    from_bytes = int.from_bytes
    # row p holds segments p + 1 to T - 1, one byte each, read as a
    # little-endian integer: the shapes are the word's shapes read
    # little-endian past byte p, a parallel chain's verdict stays in its
    # byte and an antiparallel one moves two bytes down; the last byte
    # of a row never hands a parallel verdict on, since to[T - 1] is a
    # boundary stretch, so the row shrinks by one byte
    kept = from_bytes(b"\x40" * T, "little")
    shapes = from_bytes(sc, "little")
    # the empty row before row 0 hands no verdict on: only the free chain
    # runs on into row 0, fixed below
    rows = [b""]
    for p in range(T - 1):
        shapes >>= 8
        # under the one mask bit 6 of a row entry stays in its byte and
        # bit 7 lands on bit 6 two bytes down; bits 0 and 1, the cell,
        # and bit 6 shifted land on bits 7, 0 and 5, all masked off
        y = from_bytes(rows[-1], "little")
        rows.append((shapes | (y | y >> 17) & kept).to_bytes(
            T - 1 - p, "little").translate(table[sc[p]]))
    grid = bytearray().join(rows).translate(_CELLS)
    if sc[0] == (sc[-1] & 7) << 3 | sc[-1] >> 3:
        # the first segment is the last one reversed (so T > 1, as
        # fr != to): the free chain through (0, T - 1) is never charged
        p, q = _walk_chain(sc, 0, T - 1)[0][-1]
        grid[p * (2 * T - p - 1) // 2 + q - p - 1] = ord("0")
    labels = tuple([_LABELS[s] for s in sc])
    return Trace(str(w), labels, grid.decode(), grid.count(b"1"))
