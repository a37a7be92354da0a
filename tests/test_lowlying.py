import re
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from pantsarc.intersect import self_intersection
from pantsarc.lowlying import (
    FAMILIES,
    UnsupportedFamily,
    continued_fraction_value,
    decompose,
    family_intersections,
    family_quotients,
    family_word,
    load_reference_words,
    value_set_members,
    witness,
)
from pantsarc.words import parse_word

import oracle_modular


def test_ladder_families_close_forms():
    for n in range(11):
        assert self_intersection(family_word("F1", n)) == n
        assert self_intersection(family_word("F2", n)) == n * n + 2 * n
        assert self_intersection(family_word("F3", n)) == n
        assert self_intersection(family_word("F4", n)) == n * n + 3 * n + 1


def test_ladder_family_words():
    assert str(family_word("F1", 2)) == "1BABA2"
    assert str(family_word("F2", 1)) == "1bA3"
    assert str(family_word("F3", 1)) == "1BAB1"
    assert str(family_word("F4", 0)) == "3b3"


def test_family_words_are_valid():
    for fam_id, fam in FAMILIES.items():
        if fam.fixed:
            cases = [(0, None)]
        elif fam.needs_m:
            cases = [(n, m) for n in range(4) for m in range(1, 4)]
        else:
            cases = [(n, None) for n in range(5)]
        for n, m in cases:
            w = family_word(fam_id, n, m)
            assert parse_word(str(w)) == w


def test_low_lying_families_match_engine():
    for fam_id in ("Z1", "Z2"):
        for n in range(4):
            for m in range(1, 5):
                assert (self_intersection(family_word(fam_id, n, m))
                        == family_intersections(fam_id, n, m))
    for fam_id in ("Z3", "Z4", "Z5"):
        for n in range(8):
            assert (self_intersection(family_word(fam_id, n))
                    == family_intersections(fam_id, n))
    assert self_intersection(family_word("C2")) == 2
    assert self_intersection(family_word("C7")) == 7


def test_quotients_are_low():
    for fam_id in ("Z1", "Z2"):
        for n in range(4):
            for m in range(1, 5):
                assert max(family_quotients(fam_id, n, m)) <= 2
    for fam_id in ("Z3", "Z4", "Z5", "C7"):
        qs = family_quotients(fam_id, 2) if fam_id != "C7" else family_quotients("C7")
        assert max(qs) <= 2
    assert family_quotients("C2") == (2, 1, 1)


def _end_cusp_quotients(word, conv):
    """The quotients of Q/P = 1/(a1 + 1/(a2 + ...)), written to end in 1,
    where the oracle's geodesic for ``word`` runs from the cusp 0 to the
    cusp P/Q; they are the continued fraction a1 + 1/(a2 + ...) of P/Q."""
    start, (p, q) = oracle_modular.endpoints(word, conv)
    assert start == (0, 1) and p > 0, (word, start, p, q)
    out = []
    while q:
        out.append(p // q)
        p, q = q, p % q
    if out[-1] > 1:
        out[-1] -= 1
        out.append(1)
    return tuple(out)


def test_family_quotients_match_the_oracle_slope():
    # the lambdas are written by hand; the oracle reads the slope off the
    # word's geodesic, independently of the library
    conv = oracle_modular.fitting_conventions()[0]
    checked = 0
    for fam_id, fam in FAMILIES.items():
        if fam.quotients is None:
            continue
        if fam.fixed:
            cases = [(0, None)]
        elif fam.needs_m:
            cases = product(range(11), range(1, 11))
        else:
            cases = [(n, None) for n in range(11)]
        for n, m in cases:
            word = str(family_word(fam_id, n, m))
            assert (_end_cusp_quotients(word, conv)
                    == family_quotients(fam_id, n, m)), word
            checked += 1
    assert checked == 2 * 11 * 10 + 3 * 11 + 2


def test_family_argument_errors():
    with pytest.raises(UnsupportedFamily):
        family_word("Q9", 1)
    with pytest.raises(ValueError):
        family_word("Z1", 2)  # needs m
    with pytest.raises(ValueError):
        family_word("Z4", 2, 1)  # no second parameter
    with pytest.raises(ValueError):
        family_word("Z4", -1)
    with pytest.raises(ValueError):
        family_word("C2", 1)
    with pytest.raises(ValueError, match="integers, got n=2.5"):
        family_intersections("F1", 2.5)
    with pytest.raises(ValueError, match="integers, got n=1, m=1.5"):
        family_intersections("Z1", 1, 1.5)
    with pytest.raises(UnsupportedFamily):
        family_quotients("F1", 1)
    with pytest.raises(UnsupportedFamily, match="no value-set rule"):
        value_set_members("F1", 10)


def test_continued_fraction_values():
    assert continued_fraction_value([2, 1, 1]) == Fraction(2, 5)
    assert continued_fraction_value([2]) == Fraction(1, 2)
    with pytest.raises(ValueError):
        continued_fraction_value([])
    with pytest.raises(ValueError):
        continued_fraction_value([2, 0, 1])
    for bad in ((1.5,), (2, 2.0), ("2",)):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            continued_fraction_value(bad)


def test_decompose_realizes_every_value():
    for target in range(500):
        family, n, m = decompose(target)
        assert family_intersections(family, n, m) == target
    with pytest.raises(ValueError):
        decompose(-1)


@pytest.mark.parametrize("target", (4.5, 4.0, "7"))
def test_non_integer_targets_are_refused(target):
    # refused up front, naming the value, rather than by isqrt
    message = f"a self-intersection number is an integer, got {target!r}"
    for call in (decompose, witness):
        with pytest.raises(ValueError) as excinfo:
            call(target)
        assert str(excinfo.value) == message


def test_decompose_specials():
    assert decompose(0) == ("Z4", 0, None)
    assert decompose(2) == ("C2", 0, None)
    assert decompose(7) == ("C7", 0, None)
    assert decompose(14).family == "Z3"


def test_witness_words_check_out():
    for target in (0, 1, 2, 7, 14, 23, 99, 280):
        wit = witness(target)
        assert parse_word(str(wit.word)) == wit.word
        assert self_intersection(wit.word) == target
        assert max(wit.quotients) <= 2


Z_FAMILIES = ("Z1", "Z2", "Z3", "Z4", "Z5")


def test_z_value_sets_partition_the_naturals():
    # judged from the parameterization alone, then held against decompose
    limit = 10 ** 4
    members = {fam_id: set(value_set_members(fam_id, limit))
               for fam_id in Z_FAMILIES}
    for value in range(limit + 1):
        holders = [fam_id for fam_id in Z_FAMILIES if value in members[fam_id]]
        if value in (2, 7):
            assert holders == []
        else:
            assert holders == [decompose(value).family]
    for fam_id in Z_FAMILIES:
        fam = FAMILIES[fam_id]
        ms = range(1, isqrt(limit) + 2) if fam.needs_m else (None,)
        for n in range(isqrt(limit) + 1):
            for m in ms:
                if fam.value(n, m) <= limit:
                    assert decompose(fam.value(n, m)) == (fam_id, n, m)


@given(st.integers(0, 100000))
def test_witness_hits_any_target(target):
    family, n, m = decompose(target)
    assert family_intersections(family, n, m) == target


def test_reference_words_reproduce():
    rows = load_reference_words()
    assert len(rows) == 79
    for text, expected in rows:
        assert self_intersection(parse_word(text)) == expected


def test_reference_words_cover_every_low_value():
    rows = load_reference_words()
    assert len({text for text, _ in rows}) == len(rows)
    values = sorted(expected for _, expected in rows)
    assert values == sorted(set(values))  # one witness per listed value
