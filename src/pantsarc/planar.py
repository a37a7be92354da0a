"""The cut-open pair of pants as an octagon.

Cutting the pair of pants along the two cutting arcs opens it into a
disk whose boundary shows eight items in a fixed cyclic order: the two
sides of each cutting arc and four stretches of the original boundary
circles (boundary 3 contributes two stretches).  Items are numbered

    0  side a of cutting arc a        4  side b of cutting arc b
    1  boundary 1 stretch             5  boundary 2 stretch
    2  side A of cutting arc a        6  side B of cutting arc b
    3  boundary 3 stretch between     7  boundary 3 stretch between
       sides A and b                     sides B and a

A word with L crossings lifts to L+1 chords of the disk, the
*segments*: the first runs from a boundary stretch to the first
crossing's side, middle segments join consecutive crossing sides, and
the last returns to a boundary stretch.  Whether two segments must
cross is read off from their endpoints on the cycle: chords with all
four endpoints distinct cross exactly when the endpoints interleave,
chords meeting in a boundary stretch can be combed apart, and chords
sharing a cutting-arc side are undecidable from the endpoints alone
(the word must be followed further; see the intersect module).

A segment's shape fr << 3 | to depends only on the two symbols around
it, and ``_PAIR_SHAPES``, one byte per symbol pair, is the one
statement of it.  ``_shapes`` reads all of a word's shapes in one
translate and rejects a word that is not reduced; the count, ``trace``,
``resolve_chain``, ``segments`` and ``endpoint_items`` all go through
it.  ``_SUCCESSORS`` lists the symbols that may follow each symbol
(``words._STUCK``, and no letter after its inverse) with their shapes.
The census walks it, and ``tables --verify`` checks ``SEGMENT_LABELS``,
read off it, through ``DECISIONS``, the decision table the engine
reads, against the packaged decidable pairs.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .words import LETTER_CHARS, SEAM_CHARS, ArcWord, _STUCK, _data_lines

N_ITEMS = 8

# item on the octagon for each crossing letter code (a, A, b, B)
EDGE_ITEM = (0, 2, 4, 6)

# boundary-3 stretch NOT adjacent to the given cutting-arc side:
# stretch 3 touches sides A and b, stretch 7 touches sides B and a
FAR_WAIST_ITEM = (3, 7, 7, 3)

CORNER_ITEM = {1: 1, 2: 5}

ITEM_LABELS = ("a", "1", "A", "3", "b", "2", "B", "3")


class Segment(namedtuple("Segment", "fr to")):
    """A chord of the octagon, directed along the arc."""

    __slots__ = ()

    def label(self) -> str:
        return _LABELS[self.fr << 3 | self.to]


class Classification(enum.Enum):
    NON_INTERSECTING = 0
    INTERSECTING = 1
    UNDECIDABLE = 2


class AlignmentOverrun(RuntimeError):
    """A chain left the segment range or collided with itself: the word
    is not reduced."""


def _pair_shape(x, y):
    """The shape of the segment between two neighbouring symbols of a
    word, letter codes as 0-3 and boundary digits d as d + 3.

    It starts at the side of the inverse of the letter before it and
    ends at the side of the letter after it, or at the stretch of digit
    1 or 2, or of digit 3 away from the side at its other end (3 at the
    start and 7 at the end of a word with no letter).

    A letter followed by its inverse makes a segment that starts and
    ends on one cutting-arc side.  All four such shapes are written as
    0, the shape of the one from side a to itself, so that one byte
    search finds them.
    """
    if x < 4 and y == x ^ 1:
        return 0
    fr = (EDGE_ITEM[x ^ 1] if x < 4 else CORNER_ITEM[x - 3] if x < 6
          else FAR_WAIST_ITEM[y] if y < 4 else 3)
    to = (EDGE_ITEM[y] if y < 4 else CORNER_ITEM[y - 3] if y < 6
          else FAR_WAIST_ITEM[x ^ 1] if x < 4 else 7)
    return fr << 3 | to


# the shape of a segment, indexed by its two symbols x << 3 | y
_PAIR_SHAPES = bytes([_pair_shape(x, y) if x < 7 and y < 7 else 0
                      for x in range(8) for y in range(8)]).ljust(256, b"\0")

# the start and the end item of each shape, as translate tables
_FROM = bytes([s >> 3 & 7 for s in range(256)])
_TO = bytes([s & 7 for s in range(256)])

# the label of each segment shape
_LABELS = tuple([ITEM_LABELS[s >> 3] + ITEM_LABELS[s & 7] for s in range(64)])


def _shapes(w: ArcWord):
    """The shape fr << 3 | to of each segment of ``w``, as bytes.

    Raises AlignmentOverrun, naming the word and the position, when a
    segment starts and ends on the same side, that is, when a crossing
    is undone by its reverse.
    """
    from_bytes = int.from_bytes
    symbols = bytes([w.start + 3, *w.letters, w.end + 3])
    # every symbol beside its successor, as one byte x << 3 | y each
    sc = (from_bytes(symbols[:-1], "big") << 3
          | from_bytes(symbols[1:], "big")).to_bytes(
              len(symbols) - 1, "big").translate(_PAIR_SHAPES)
    if 0 in sc:
        k = sc.index(0)
        crossing = ITEM_LABELS[EDGE_ITEM[w.letters[k]]]
        raise AlignmentOverrun(f"{w}: crossing {crossing!r} undoes "
                               f"the previous one (position {k + 1})")
    return sc


def endpoint_items(start, letters, end):
    """Raw from/to item lists of the segments, one entry per segment;
    AlignmentOverrun, as from ``_shapes``, for a word not reduced."""
    sc = _shapes(ArcWord(start, letters, end))
    return list(sc.translate(_FROM)), list(sc.translate(_TO))


# the character of each symbol code: letters 0-3, boundary digit d as d + 3
_SYMBOL_CHARS = LETTER_CHARS + SEAM_CHARS

# for each symbol, the letters and then the closing digits that may follow
# it in a word, each with the shape of the segment between the two, in
# the ASCII order of their characters; shape 0, a letter's inverse, is out
_SUCCESSORS = tuple(
    tuple(tuple([(y, _PAIR_SHAPES[x << 3 | y])
                 for y in sorted(ys, key=_SYMBOL_CHARS.__getitem__)
                 if _SYMBOL_CHARS[x] + _SYMBOL_CHARS[y] not in _STUCK
                 and _PAIR_SHAPES[x << 3 | y]])
          for ys in (range(4), range(4, 7)))
    for x in range(7))


def segments(w: ArcWord):
    """The chords crossed by the arc, in order along the word."""
    fr, to = endpoint_items(w.start, w.letters, w.end)
    return [Segment(f, t) for f, t in zip(fr, to)]


# decision against a second chord from the codes of its two end items:
# 0 or 1 for the side of the first chord an item lies on, 2 for a
# cutting-arc side and 3 for a boundary stretch shared with it
_PAIR_VERDICT = tuple(
    tuple(2 if 2 in (a, b) else 0 if 3 in (a, b) else int(a != b)
          for b in range(4))
    for a in range(4))


def _decision_row(f1, t1):
    """Decisions of the chord (f1, t1) against every (f2, t2), as the
    64 bytes indexed f2 << 3 | t2; tests/test_planar.py checks every
    entry against its item-by-item reference classifier."""
    span = (t1 - f1) % N_ITEMS
    where = [2 + x % 2 if x in (f1, t1) else int((x - f1) % N_ITEMS < span)
             for x in range(N_ITEMS)]
    return bytes(_PAIR_VERDICT[a][b] for a in where for b in where)


# decision per packed endpoint quadruple (f1, t1, f2, t2), 3 bits each
DECISIONS = b"".join(_decision_row(f1, t1)
                     for f1 in range(N_ITEMS) for t1 in range(N_ITEMS))


def classify(s: Segment, t: Segment) -> Classification:
    """Classify a pair of segments from their endpoint items alone."""
    return Classification(DECISIONS[(s.fr << 3 | s.to) << 6 | t.fr << 3 | t.to])


# every segment shape a word can produce, by label: the shape of each
# symbol pair with a letter (two digits make a crossing-free word)
SEGMENT_LABELS = {_LABELS[s]: Segment(s >> 3, s & 7)
                  for x, (letters, ends) in enumerate(_SUCCESSORS)
                  for y, s in letters + ends if x < 4 or y < 4}


def regenerate_tables():
    """Classify every decidable ordered pair of segment labels.

    Returns a dict mapping (label_i, label_j) to Classification for the
    pairs whose endpoints decide the crossing outright; undecidable
    pairs are omitted.
    """
    out = {}
    for name1, seg1 in SEGMENT_LABELS.items():
        for name2, seg2 in SEGMENT_LABELS.items():
            if name1 == name2:
                continue
            c = classify(seg1, seg2)
            if c is not Classification.UNDECIDABLE:
                out[(name1, name2)] = c
    return out


def load_reference_pairs():
    """The packaged classification of decidable segment-label pairs."""
    out = {}
    for line in _data_lines("decidable_pairs.txt"):
        name1, name2, verdict = line.split()
        out[(name1, name2)] = (Classification.INTERSECTING if verdict == "INT"
                               else Classification.NON_INTERSECTING)
    return out
