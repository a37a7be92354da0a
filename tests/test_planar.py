import itertools
import random

import pytest
from hypothesis import given

from pantsarc.census import enumerate_words
from pantsarc.planar import (
    _PAIR_SHAPES,
    CORNER_ITEM,
    DECISIONS,
    EDGE_ITEM,
    FAR_WAIST_ITEM,
    ITEM_LABELS,
    SEGMENT_LABELS,
    N_ITEMS,
    Classification,
    Segment,
    classify,
    endpoint_items,
    load_reference_pairs,
    regenerate_tables,
    segments,
)
from pantsarc.words import WordError, parse_word

from circle_oracle import chords_cross, item_points
from conftest import arc_words

INT = Classification.INTERSECTING
NON = Classification.NON_INTERSECTING
UND = Classification.UNDECIDABLE


def _classify_raw(f1, t1, f2, t2):
    """The endpoint rule, item by item: the reference for DECISIONS."""
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


def _endpoint_items_raw(start, letters, end):
    """The segments' items, one segment at a time: the reference for
    _PAIR_SHAPES and endpoint_items."""
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


def test_pair_shapes_match_the_reference_loop():
    # all 49 symbol pairs, each as the segment after its first symbol
    # in the one- or two-letter word the pair makes; a letter followed
    # by its inverse is the marker 0, and every other byte is 0 too
    want = bytearray(256)
    for x, y in itertools.product(range(7), repeat=2):
        if x < 4 and y == x ^ 1:
            continue
        letters = tuple([c for c in (x, y) if c < 4])
        fr, to = _endpoint_items_raw(x - 3 if x > 3 else 3, letters,
                                     y - 3 if y > 3 else 3)
        k = int(x < 4)
        want[x << 3 | y] = fr[k] << 3 | to[k]
    assert _PAIR_SHAPES == want


def test_endpoint_items_match_the_reference_loop():
    # every word through length 10, bare words included
    for wl in range(2, 11):
        for w in enumerate_words(wl):
            want = _endpoint_items_raw(w.start, w.letters, w.end)
            assert endpoint_items(w.start, w.letters, w.end) == want, str(w)


def test_boundary_cycle_reads_the_surface_word():
    assert ITEM_LABELS == ("a", "1", "A", "3", "b", "2", "B", "3")
    assert [ITEM_LABELS[e] for e in EDGE_ITEM] == ["a", "A", "b", "B"]


def test_far_waist_occurrences():
    # the corner-3 copy NOT adjacent to the crossing's edge
    far = {ITEM_LABELS[EDGE_ITEM[c]]: FAR_WAIST_ITEM[c] for c in range(4)}
    assert far == {"a": 3, "B": 3, "A": 7, "b": 7}


def test_segments_of_the_worked_example():
    labels = [s.label() for s in segments(parse_word("1BABA2"))]
    assert labels == ["1B", "bA", "aB", "bA", "a2"]


def test_segments_of_bare_words():
    (only,) = segments(parse_word("12"))
    assert only == Segment(CORNER_ITEM[1], CORNER_ITEM[2])
    (only,) = segments(parse_word("33"))
    assert only == Segment(3, 7)


def test_segments_far_corner_choice():
    segs = segments(parse_word("1bA3"))
    assert [s.label() for s in segs] == ["1b", "BA", "a3"]
    assert segs[-1].to == 3  # the copy away from edge a


@given(arc_words())
def test_segments_chain_through_the_edges(w):
    segs = segments(w)
    assert len(segs) == len(w.letters) + 1
    for t, code in enumerate(w.letters):
        assert segs[t].to == EDGE_ITEM[code]
        assert segs[t + 1].fr == EDGE_ITEM[code ^ 1]
    for s in segs:
        assert s.fr != s.to


def test_classify_examples():
    by_label = SEGMENT_LABELS
    assert classify(by_label["aB"], by_label["Ab"]) is NON
    assert classify(by_label["ab"], by_label["aB"]) is UND
    assert classify(by_label["aA"], by_label["1b"]) is INT
    assert classify(by_label["2a"], by_label["A2"]) is NON


def test_classification_is_symmetric():
    for s, t in itertools.product(SEGMENT_LABELS.values(), repeat=2):
        assert classify(s, t) is classify(t, s)


def test_decision_table_is_symmetric():
    # every pair of 6-bit shapes, degenerate ones included, so that one
    # slice of the table serves as a row and as a column
    for a, b in itertools.product(range(64), repeat=2):
        assert DECISIONS[a << 6 | b] == DECISIONS[b << 6 | a], (a, b)


def test_segment_labels_match_the_parser():
    # the catalog read off the successor table against the segments of
    # every word of 3 or 4 symbols that parse_word accepts
    seen = {}
    for n in (3, 4):
        for chars in itertools.product("123aAbB", repeat=n):
            try:
                w = parse_word("".join(chars))
            except WordError:
                continue
            for seg in segments(w):
                seen[seg.label()] = seg
    assert seen == SEGMENT_LABELS


def test_decision_table_covers_every_quadruple():
    for packed, (f1, t1, f2, t2) in enumerate(itertools.product(range(8), repeat=4)):
        assert DECISIONS[packed] == _classify_raw(f1, t1, f2, t2).value


def test_reference_pairs_regenerate():
    reference = load_reference_pairs()
    assert len(reference) == 408
    assert regenerate_tables() == reference
    assert reference[("ab", "BA")] is INT
    assert reference[("b3", "aA")] is NON
    for (n1, n2), verdict in reference.items():
        assert reference[(n2, n1)] is verdict


def test_decidable_pairs_match_straight_chords():
    # same-label pairs excluded: a pair of identical chords is not a
    # configuration two distinct lift segments can form
    points = item_points()
    for (n1, s), (n2, t) in itertools.product(SEGMENT_LABELS.items(), repeat=2):
        if n1 == n2:
            continue
        verdict = classify(s, t)
        if verdict is UND:
            continue
        assert chords_cross(points, s, t) == (verdict is INT), (n1, n2)


def test_undecidable_pairs_share_an_edge_point():
    for s, t in itertools.product(SEGMENT_LABELS.values(), repeat=2):
        if classify(s, t) is UND:
            shared = {s.fr, s.to} & {t.fr, t.to}
            assert any(item in EDGE_ITEM for item in shared)


def test_chord_verdicts_survive_jitter():
    rng = random.Random(404)
    labels = list(SEGMENT_LABELS)
    for _ in range(200):
        points = item_points(rng, jitter=0.3)
        n1, n2 = rng.sample(labels, 2)
        s, t = SEGMENT_LABELS[n1], SEGMENT_LABELS[n2]
        if {s.fr, s.to} & {t.fr, t.to}:
            continue
        verdict = classify(s, t)
        assert chords_cross(points, s, t) == (verdict is INT)
