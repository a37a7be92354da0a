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

The count charges each chain once, at the member whose larger segment
index is largest, because that member is reached last: the
forward-most member of a parallel chain, the rearmost member of an
antiparallel one.  A chain that merges into a boundary stretch is
never charged, which is also its correct price.  The count runs along
the word one segment s at a time and sees every earlier segment p as a
*residual byte*: p's 6-bit shape fr << 3 | to plus, in bit 6, the
verdict at the end of p's chain with s that does not read to[s] (the
rear end of a parallel chain, the front end of an antiparallel one).
What all pairs (p, s) add is one ``bytes.translate`` of the residual
through the price row of s's shape and a count of the ones.  No chain
is walked: the chain through (p, s) runs on through (p - 1, s - 1) or
(p + 1, s - 1), so the residual seen from s is one translate through
the step row of the shape of s - 1, plus a few shifts, away from the
residual seen from s - 1.  Both loops run in C; a word of T segments
takes T steps of T bytes.  The census module prices its search trees
with the same tables and the same rule.

The steps presume a reduced word.  A crossing undone by its reverse
leaves a segment that starts and ends on one side, where a chain can
collide with itself; the count rejects such a word with
AlignmentOverrun before it prices any pair.  The strands of a reduced
word never collide: that needs to[P] == fr[Q] with Q - P <= 2, but a
segment starts on the far side of the cutting arc its predecessor ends
on, and Q - P == 2 needs a letter followed by its inverse.

``trace`` and ``resolve_chain`` walk each chain member by member
instead, to show which pairs it drags along; the trace grid puts a
chain's digit at its forward-most member.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .planar import DECISIONS, ITEM_LABELS, Segment, endpoint_items
from .words import ArcWord


class AlignmentOverrun(RuntimeError):
    """A chain left the segment range or collided with itself: the word
    is not reduced."""


def self_intersection(w: ArcWord) -> int:
    """Minimal number of self-crossings of the arc described by ``w``.

    Raises AlignmentOverrun, naming the word, for a word with a crossing
    undone by its reverse (one built without ``parse_word``).
    """
    fr, to = endpoint_items(w.start, w.letters, w.end)
    try:
        return count_from_items(fr, to)
    except AlignmentOverrun as exc:
        raise AlignmentOverrun(f"{w}: {exc}") from None


# a residual byte describes an earlier segment p as seen from segment
# s: the shape fr[p] << 3 | to[p] in bits 0-5 and, in this bit, the
# verdict at the end of p's chain with s that no choice of to[s] moves
_SHARED = 64

# decided verdicts kept, undecidable pairs cleared
_UNCHAINED = bytes((0, 1)).ljust(256, b"\0")

# shapes of the segments that start and end on one cutting-arc side
_SAME_SIDE = frozenset(item << 3 | item for item in range(0, 8, 2))


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
    """The step and price tables, one row per segment shape, built on
    first use."""
    return (tuple(_step_row(shape) for shape in range(64)),
            tuple(_price_row(shape) for shape in range(64)))


def count_from_items(fr, to):
    """Self-intersection count from raw per-segment endpoint items.

    Raises AlignmentOverrun when a segment other than a bare word's
    single one starts and ends on the same side, that is, when a
    crossing is undone by its reverse.
    """
    T = len(fr)
    if T < 2:
        return 0
    sc = [f << 3 | t for f, t in zip(fr, to)]
    if not _SAME_SIDE.isdisjoint(sc):
        k = next(k for k, s in enumerate(sc) if s in _SAME_SIDE)
        raise AlignmentOverrun(f"crossing {ITEM_LABELS[to[k]]!r} undoes "
                               f"the previous one (position {k + 1})")
    steps, prices = _kernel_tables()
    from_bytes = int.from_bytes
    # fields of a stepped residual read as one little-endian integer
    ones = from_bytes(b"\x01" * T, "little")
    own, ahead, behind = ones * 0x3f, ones << 7, ones << 6
    # the residual seen from segment 1 is segment 0's bare shape
    residual = bytes((sc[0],))
    total = prices[sc[1]][sc[0]]
    for k in range(2, T):
        qs = sc[k - 1]
        y = from_bytes(residual.translate(steps[qs]), "little")
        residual = (y & own | (y & ahead) << 7 | (y & behind) >> 8
                    | qs << 8 * (k - 1)).to_bytes(k, "little")
        total += residual.translate(prices[sc[k]]).count(1)
    return total


@dataclass(frozen=True)
class Chain:
    """A resolved segment pair: the members it drags along and the
    verdict shared by all of them.  Member pairs are 1-based.  A
    decidable pair stands alone as a one-member chain with its own
    verdict; ``parallel`` is False for those."""

    members: tuple
    parallel: bool
    free_end: bool
    decision: int

    @property
    def terminal(self):
        """The forward-most member, which carries the chain's digit."""
        return self.members[-1]


def _strand_side(shared, into, item1, item2):
    if item1 == item2:
        raise ValueError("strands at the same item have not diverged")
    r1 = (item1 - shared) % 8
    r2 = (item2 - shared) % 8
    return (r2 < r1) if into else (r2 > r1)


def _walk_chain(fr, to, T, p0, q0):
    """Members and verdict of the chain through the undecidable (p0, q0)."""
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
    fr, to = endpoint_items(w.start, w.letters, w.end)
    T = len(fr)
    if not (1 <= i < j <= T):
        raise ValueError(f"need 1 <= i < j <= {T}, got ({i}, {j})")
    p, q = i - 1, j - 1
    c = DECISIONS[(fr[p] << 3 | to[p]) << 6 | fr[q] << 3 | to[q]]
    if c != 2:
        return Chain(((i, j),), False, False, c)
    members, parallel, free, decision = _walk_chain(fr, to, T, p, q)
    return Chain(tuple([(a + 1, b + 1) for a, b in members]),
                 parallel, free, decision)


@dataclass(frozen=True)
class Trace:
    """The full pair grid behind one self-intersection count.

    ``cells`` maps 1-based pairs (i, j), i < j, to "0", "1" or "X":
    decided pairs carry their contribution, chain members defer to the
    forward-most member of their chain, which carries the digit for the
    whole chain and is the only place a chain can add to the total.
    """

    word: str
    labels: tuple
    cells: dict
    total: int

    def render(self) -> str:
        T = len(self.labels)
        names = [f"w{k + 1}={lab}" for k, lab in enumerate(self.labels)]
        width = max(len(n) for n in names) + 2
        lines = [" " * width + "".join(n.ljust(width) for n in names[1:])]
        for i in range(1, T):
            row = [names[i - 1].ljust(width)]
            for j in range(2, T + 1):
                row.append((self.cells.get((i, j), "") if j > i else "").ljust(width))
            lines.append("".join(row).rstrip())
        lines.append(f"total = {self.total}")
        return "\n".join(lines)


def trace(w: ArcWord) -> Trace:
    """Evaluate the word and keep the whole pair grid for inspection."""
    fr, to = endpoint_items(w.start, w.letters, w.end)
    T = len(fr)
    dec = DECISIONS
    cells = {}
    total = 0
    for p in range(T - 1):
        for q in range(p + 1, T):
            if (p, q) in cells:
                continue
            c = dec[(fr[p] << 3 | to[p]) << 6 | fr[q] << 3 | to[q]]
            if c < 2:
                cells[(p, q)] = "01"[c]
                total += c
                continue
            members, _, _, decision = _walk_chain(fr, to, T, p, q)
            for pair in members[:-1]:
                cells[pair] = "X"
            cells[members[-1]] = "01"[decision]
            total += decision
    labels = tuple([Segment(f, t).label() for f, t in zip(fr, to)])
    shifted = {(p + 1, q + 1): v for (p, q), v in cells.items()}
    return Trace(str(w), labels, shifted, total)
