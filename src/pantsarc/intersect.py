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
never charged, which is also its correct price.  The count runs along
the word one segment s at a time and sees every earlier segment p as a
*residual byte*: p's 6-bit shape fr << 3 | to plus, in bit 6, the
verdict at the end of p's chain with s that does not read to[s].
Each segment shape has one row, indexed by the residual byte, and all
pairs (p, s) go through one ``bytes.translate`` of the residual through
the row of s's shape.  Bit 0 of the result is the price of (p, s).
Bits 6 and 7 hand the verdict on where the chain through (p, s) runs
on, through (p + 1, s + 1) when parallel (bit 6) or (p - 1, s + 1)
when antiparallel (bit 7); the two never share an entry with a price
of 1, so every entry a residual reaches is 0, 1, 0x40 or 0x80.  The
step reads the result as one integer y, which the next step needs
anyway, and what all pairs add is the popcount of y under a mask of
the bit 0s.  The residual seen from s + 1 is the shapes of segments 0
to s and one mask of y | y << 15: bit 6 stays in its byte, bit 7 lands
on bit 6 two bytes up, and every other bit falls outside the mask.
``_count`` steps a word of T segments in T steps of T bytes, all in C.
The census module prices its search trees with the same rows.

The shapes of a word come from one translate too, ``planar._shapes``
of the symbol pairs through ``planar._PAIR_SHAPES``.

The steps presume a reduced word.  A crossing undone by its reverse
leaves a segment that starts and ends on one side, where a chain can
collide with itself.  ``planar._shapes`` rejects such a word with
AlignmentOverrun, so the count, ``trace``, ``resolve_chain`` and the
planar model's ``segments`` and ``endpoint_items`` all refuse it before
they look at any pair.  The strands of a reduced word never collide:
that needs to[P] == fr[Q] with Q - P <= 2, but a segment starts on the
far side of the cutting arc its predecessor ends on, and Q - P == 2
needs a letter followed by its inverse.

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
terminal member with ``_walk_chain`` and sets that cell to 0.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .planar import _FROM, _LABELS, _TO, DECISIONS, AlignmentOverrun, _shapes
from .words import ArcWord


def self_intersection(w: ArcWord) -> int:
    """Minimal number of self-crossings of the arc described by ``w``.

    Raises AlignmentOverrun, naming the word, for a word with a crossing
    undone by its reverse (one built without ``parse_word``).
    """
    return _count(_shapes(w))


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
def _kernel_tables():
    """The count's rows, one per segment shape, built on first use."""
    return tuple([_rows(s, True) for s in range(64)])


@functools.cache
def _trace_tables():
    """The rows of ``trace``, one per segment shape, built on first use."""
    return tuple([_rows(s, False) for s in range(64)])


def _count(sc):
    """Self-intersection count from the segment shapes of a reduced word."""
    T = len(sc)
    rows = _kernel_tables()
    from_bytes = int.from_bytes
    # the residual seen from segment k holds segments k - 1 down to 0,
    # one byte each, read as a little-endian integer: the shapes are
    # the top k bytes of the word's shapes read big-endian, a parallel
    # chain's verdict stays in its byte and an antiparallel one moves
    # two bytes up
    ones = from_bytes(b"\x01" * T, "little")
    kept = ones << 6
    shapes = from_bytes(sc, "big")
    shift = 8 * T
    # the residual seen from segment 0 is empty; y is the previous
    # translate read as an integer, each byte 0, 1, 0x40 or 0x80, so
    # its prices are the popcount of y & ones, and under the one mask
    # bit 6 stays in its byte, bit 7 lands on bit 6 two bytes up, and
    # bits 0 and 6 land on bits 7 and 5, masked off
    y = total = 0
    for k in range(1, T):
        shift -= 8
        residual = (shapes >> shift | (y | y << 15) & kept).to_bytes(k, "little")
        y = from_bytes(residual.translate(rows[sc[k]]), "little")
        total += (y & ones).bit_count()
    return total


class Chain(namedtuple("Chain", "members parallel free_end decision")):
    """A resolved segment pair: the members it drags along and the
    verdict shared by all of them.  Member pairs are 1-based.  A
    decidable pair stands alone as a one-member chain with its own
    verdict; ``parallel`` is False for those."""

    __slots__ = ()

    @property
    def terminal(self):
        """The forward-most member, which carries the chain's digit."""
        return self.members[-1]


def _walk_chain(sc, p0, q0):
    """Members and verdict of the chain through the undecidable (p0, q0)
    of a word with segment shapes ``sc``."""
    fr, to = sc.translate(_FROM), sc.translate(_TO)
    T = len(sc)
    parallel = to[p0] == to[q0] or fr[p0] == fr[q0]
    free = False
    p, q = p0, q0
    if parallel:
        while fr[p] == fr[q]:
            if p == 0:
                raise AlignmentOverrun("parallel chain ran past the first segment")
            p -= 1
            q -= 1
    else:
        while fr[p] == to[q]:
            if p == 0:
                # same boundary stretch at both word ends: a free end
                assert q == T - 1
                free = True
                break
            p -= 1
            q += 1
    bp, bq = p, q
    p, q = p0, q0
    if parallel:
        while to[p] == to[q]:
            if q == T - 1:
                raise AlignmentOverrun("parallel chain ran past the last segment")
            p += 1
            q += 1
    else:
        while to[p] == fr[q]:
            if q - p < 3:
                raise AlignmentOverrun("antiparallel strands collided")
            p += 1
            q -= 1
    fp, fq = p, q
    dq = 1 if parallel else -1
    # tuples are built from lists, not generators: tuple() resizes a
    # tuple grown from a generator, and the resized tuples pile up in
    # CPython's per-size tuple free lists, so a process that traces
    # many words grows by megabytes
    members = tuple([(bp + k, bq + k * dq) for k in range(fp - bp + 1)])
    if free:
        decision = 0
    else:
        rear = _strand_side(to[bp], True, fr[bp], fr[bq] if parallel else to[bq])
        front = _strand_side(fr[fp], False, to[fp], to[fq] if parallel else fr[fq])
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
    if not (1 <= i < j <= T):
        raise ValueError(f"need 1 <= i < j <= {T}, got ({i}, {j})")
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
    and is the only place a chain can add to the total.  Unlike the
    other records a trace has an instance ``__dict__``, which holds
    ``cells`` once built.
    """

    @functools.cached_property
    def cells(self) -> dict:
        """The grid's cells keyed by pair (i, j), built on first use."""
        pairs = itertools.combinations(range(1, len(self.labels) + 1), 2)
        return dict(zip(pairs, self.grid))

    def render(self) -> str:
        return "\n".join(self._lines())

    def _grid_rows(self):
        """The grid one row at a time, as (i, the cells (i, i + 1) ..
        (i, T)), for i from 1 to T - 1."""
        T = len(self.labels)
        end = 0
        for i in range(1, T):
            start, end = end, end + T - i
            yield i, self.grid[start:end]

    def _lines(self):
        """The lines of ``render``, one at a time."""
        names = [f"w{k + 1}={lab}" for k, lab in enumerate(self.labels)]
        width = max(len(n) for n in names) + 2
        yield " " * width + "".join(n.ljust(width) for n in names[1:])
        gap = " " * (width - 1)
        for i, cells in self._grid_rows():
            # row i's cells sit under w(i+1) .. wT
            yield (names[i - 1].ljust(width) + " " * (width * (i - 1))
                   + gap.join(cells))
        yield f"total = {self.total}"


def trace(w: ArcWord) -> Trace:
    """Evaluate the word and keep the whole pair grid for inspection.

    Raises AlignmentOverrun, naming the word, for a word with a crossing
    undone by its reverse.
    """
    sc = _shapes(w)
    T = len(sc)
    table = _trace_tables()
    from_bytes = int.from_bytes
    # row p holds segments p + 1 to T - 1, one byte each, read as a
    # little-endian integer: the shapes are the word's shapes read
    # little-endian past byte p, a parallel chain's verdict stays in its
    # byte and an antiparallel one moves two bytes down; the last byte
    # of a row never hands a parallel verdict on, since to[T - 1] is a
    # boundary stretch, so the row shrinks by one byte
    kept = from_bytes(b"\x40" * T, "little")
    shapes = from_bytes(sc, "little")
    shift = 8
    # row 0: no chain runs on into it except the free one, fixed below
    row = sc[1:].translate(table[sc[0]])
    rows = [row]
    for p in range(1, T - 1):
        shift += 8
        # under the one mask bit 6 of a row entry stays in its byte and
        # bit 7 lands on bit 6 two bytes down; bits 0 and 1, the cell,
        # and bit 6 shifted land on bits 7, 0 and 5, all masked off
        y = from_bytes(row, "little")
        row = (shapes >> shift | (y | y >> 17) & kept).to_bytes(
            T - 1 - p, "little").translate(table[sc[p]])
        rows.append(row)
    grid = bytearray().join(rows).translate(_CELLS)
    if T > 1 and sc[0] == (sc[-1] & 7) << 3 | sc[-1] >> 3:
        # the first segment is the last one reversed: the free chain
        # through (0, T - 1) is never charged
        p, q = _walk_chain(sc, 0, T - 1)[0][-1]
        grid[p * (2 * T - p - 1) // 2 + q - p - 1] = ord("0")
    labels = tuple([_LABELS[s] for s in sc])
    return Trace(str(w), labels, grid.decode(), grid.count(b"1"))
