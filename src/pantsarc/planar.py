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
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .words import ArcWord, _data_lines

N_ITEMS = 8

# item on the octagon for each crossing letter code (a, A, b, B)
EDGE_ITEM = (0, 2, 4, 6)

# boundary-3 stretch NOT adjacent to the given cutting-arc side:
# stretch 3 touches sides A and b, stretch 7 touches sides B and a
FAR_WAIST_ITEM = (3, 7, 7, 3)

CORNER_ITEM = {1: 1, 2: 5}

ITEM_LABELS = ("a", "1", "A", "3", "b", "2", "B", "3")


class Segment(NamedTuple):
    """A chord of the octagon, directed along the arc."""

    fr: int
    to: int

    def label(self) -> str:
        return ITEM_LABELS[self.fr] + ITEM_LABELS[self.to]


class Classification(enum.Enum):
    NON_INTERSECTING = 0
    INTERSECTING = 1
    UNDECIDABLE = 2


def endpoint_items(start, letters, end):
    """Raw from/to item lists of the segments, one entry per segment."""
    L = len(letters)
    if L == 0:
        head = 3 if start == 3 else CORNER_ITEM[start]
        tail = 7 if end == 3 else CORNER_ITEM[end]
        return [head], [tail]
    fr = [0] * (L + 1)
    to = [0] * (L + 1)
    first = letters[0]
    fr[0] = CORNER_ITEM[start] if start != 3 else FAR_WAIST_ITEM[first]
    to[0] = EDGE_ITEM[first]
    for t in range(1, L):
        fr[t] = EDGE_ITEM[letters[t - 1] ^ 1]
        to[t] = EDGE_ITEM[letters[t]]
    back = letters[L - 1] ^ 1
    fr[L] = EDGE_ITEM[back]
    to[L] = CORNER_ITEM[end] if end != 3 else FAR_WAIST_ITEM[back]
    return fr, to


def segments(w: ArcWord):
    """The chords crossed by the arc, in order along the word."""
    fr, to = endpoint_items(w.start, w.letters, w.end)
    return [Segment(f, t) for f, t in zip(fr, to)]


def _classify_raw(f1, t1, f2, t2):
    shared = {f1, t1} & {f2, t2}
    if any(item % 2 == 0 for item in shared):
        return Classification.UNDECIDABLE
    if shared:
        return Classification.NON_INTERSECTING
    span = (t1 - f1) % N_ITEMS
    inside = ((f2 - f1) % N_ITEMS < span) + ((t2 - f1) % N_ITEMS < span)
    if inside == 1:
        return Classification.INTERSECTING
    return Classification.NON_INTERSECTING


def classify(s: Segment, t: Segment) -> Classification:
    """Classify a pair of segments from their endpoint items alone."""
    return _classify_raw(s.fr, s.to, t.fr, t.to)


# decision against a second chord from the codes of its two end items:
# 0 or 1 for the side of the first chord an item lies on, 2 for a
# cutting-arc side and 3 for a boundary stretch shared with it
_PAIR_VERDICT = tuple(
    tuple(2 if 2 in (a, b) else 0 if 3 in (a, b) else int(a != b)
          for b in range(4))
    for a in range(4))


def _decision_row(f1, t1):
    """Decisions of the chord (f1, t1) against every (f2, t2), as the
    64 bytes indexed f2 << 3 | t2; agrees with _classify_raw."""
    span = (t1 - f1) % N_ITEMS
    where = [2 + x % 2 if x in (f1, t1) else int((x - f1) % N_ITEMS < span)
             for x in range(N_ITEMS)]
    return bytes(_PAIR_VERDICT[a][b] for a in where for b in where)


def _build_decision_table():
    return b"".join(_decision_row(f1, t1)
                    for f1 in range(N_ITEMS) for t1 in range(N_ITEMS))


# decision per packed endpoint quadruple (f1, t1, f2, t2), 3 bits each
DECISIONS = _build_decision_table()


def _all_labeled_segments():
    """Every segment shape a word can produce, as label -> Segment."""
    out = {}
    for code in range(4):
        edge = EDGE_ITEM[code]
        far = FAR_WAIST_ITEM[code]
        for corner_label, corner in (("1", 1), ("2", 5), ("3", far)):
            seg = Segment(corner, edge)
            if _adjacent(corner, edge):
                continue
            out[corner_label + ITEM_LABELS[edge]] = seg
            out[ITEM_LABELS[edge] + corner_label] = Segment(edge, corner)
        for other in range(4):
            if other != code:
                out[ITEM_LABELS[edge] + ITEM_LABELS[EDGE_ITEM[other]]] = (
                    Segment(edge, EDGE_ITEM[other]))
    return out


def _adjacent(corner, edge):
    return (edge - corner) % N_ITEMS == 1 or (corner - edge) % N_ITEMS == 1


SEGMENT_LABELS = _all_labeled_segments()


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
