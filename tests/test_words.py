import itertools
import re

import pytest
from hypothesis import given

from pantsarc import words
from pantsarc.census import enumerate_words
from pantsarc.intersect import self_intersection
from pantsarc.words import (
    ArcWord,
    BadShape,
    EndpointClash,
    ForbiddenPair,
    MalformedToken,
    NonReduced,
    WordError,
    inverse,
    is_positive,
    parse_word,
    positivize,
    relabel,
    seam_counts,
)

from conftest import arc_words


def test_parse_accepts_known_words():
    for text in ("12", "33", "1b1", "2A2", "1BABA2", "3aB1", "1bAbAbA3"):
        assert str(parse_word(text)) == text


def test_word_length_counts_all_symbols():
    assert parse_word("12").word_length == 2
    assert parse_word("1BABA2").word_length == 6


@pytest.mark.parametrize("text,err", [
    ("", BadShape),
    ("a1A2", BadShape),
    ("1BAB", BadShape),
    ("1B3A2", BadShape),
    ("1B2A3", EndpointClash),
    ("11", ForbiddenPair),
    ("22", ForbiddenPair),
    ("1aa2", EndpointClash),
    ("2b1", EndpointClash),
    ("1Ba1", EndpointClash),
    ("1BAa2", NonReduced),
    ("1bB2", NonReduced),
    ("x", MalformedToken),
    ("1B!2", MalformedToken),
])
def test_parse_rejects(text, err):
    with pytest.raises(err):
        parse_word(text)
    with pytest.raises(WordError):
        parse_word(text)


def _parsed(parse, text):
    """The word ``parse`` makes of ``text``, or the class, message and
    position of the WordError it raises."""
    try:
        return parse(text)
    except WordError as exc:
        return type(exc), str(exc), exc.position


def test_parse_word_agrees_with_the_scanner():
    # every short text, stray characters included, and every valid word
    # through length 10: the same word, or the same first error
    texts = ["".join(t) for n in range(6)
             for t in itertools.product("123aAbBx", repeat=n)]
    texts += ["".join(t) for t in itertools.product("123aAbB", repeat=6)]
    texts += [str(w) for wl in range(2, 11) for w in enumerate_words(wl)]
    for text in texts:
        assert _parsed(parse_word, text) == _parsed(words._scan, text), text


def test_valid_words_skip_the_scanner(monkeypatch):
    def scan(text):
        raise AssertionError(f"{text} was scanned")

    monkeypatch.setattr(words, "_scan", scan)
    for wl in range(2, 11):
        for w in enumerate_words(wl):
            assert parse_word(str(w)) == w


def test_bare_33_is_allowed():
    assert parse_word("33") == ArcWord(3, (), 3)


@given(arc_words())
def test_parse_render_roundtrip(w):
    assert parse_word(str(w)) == w


@given(arc_words())
def test_inverse_is_an_involution(w):
    v = inverse(w)
    assert parse_word(str(v)) == v
    assert inverse(v) == w
    assert v.word_length == w.word_length


@given(arc_words())
def test_relabel_is_an_involution(w):
    v = relabel(w)
    assert parse_word(str(v)) == v
    assert relabel(v) == w


def test_seam_counts_examples():
    assert seam_counts(parse_word("1BABA2")) == (2, 2)
    assert seam_counts(parse_word("12")) == (0, 0)
    assert seam_counts(parse_word("1bAbAbA3")) == (3, 3)
    # a word whose counts differ, so the two cannot be swapped
    assert seam_counts(parse_word("1baa2")) == (2, 1)


@given(arc_words())
def test_seam_counts_split_the_crossings(w):
    counts = seam_counts(w)
    assert counts.a_count + counts.b_count == len(w.letters)
    assert seam_counts(inverse(w)) == counts
    assert seam_counts(relabel(w)) == (counts.b_count, counts.a_count)


def test_is_positive_examples():
    assert is_positive(parse_word("1bab3"))
    # no letter occurs with its inverse: both families all upper
    assert is_positive(parse_word("1BABA2"))
    assert not is_positive(parse_word("1Bab3"))


def test_word_operations_refuse_codes_that_are_no_symbol():
    # a letter code outside 0-3, letters that are no sequence or a
    # boundary digit that is not 1, 2 or 3 get the engine readers'
    # message, not a count or a bare TypeError
    letters = "letters must be a sequence of codes 0-3"
    digits = "boundary digits must be 1, 2 or 3"
    for w, message in ((ArcWord(1, (9,), 2), letters),
                       (ArcWord(1, (0, -1), 3), letters),
                       (ArcWord(2, 3, 2), letters),
                       (ArcWord(1, (0.0,), 2), letters),
                       (ArcWord(1, "ab", 2), letters),
                       (ArcWord(0, (2,), 2), digits),
                       (ArcWord(1.0, (2,), 2), digits),
                       (ArcWord(1, (2,), "3"), digits)):
        for call in (seam_counts, is_positive, self_intersection):
            with pytest.raises(ValueError,
                               match=f"^{re.escape(f'{w!r}: {message}')}$"):
                call(w)


def test_positivize_examples():
    assert str(positivize(parse_word("1Bab3"))) == "1bab3"
    assert str(positivize(parse_word("1bab3"))) == "1bab3"
    assert str(positivize(parse_word("1BAB1"))) == "1bab1"


def test_positivize_refuses_to_raise_the_count(monkeypatch):
    import pantsarc.intersect

    w = parse_word("1Bab3")
    # an engine under which both rewrites of w cost more than w
    monkeypatch.setattr(pantsarc.intersect, "self_intersection",
                        lambda v: int(v != w))
    with pytest.raises(RuntimeError, match="1Bab3"):
        positivize(w)


@given(arc_words())
def test_positivize_lowers_every_crossing(w):
    p = positivize(w)
    assert parse_word(str(p)) == p
    assert all(c & 1 == 0 for c in p.letters)
    assert is_positive(p)
    assert positivize(p) == p
    assert p.word_length == w.word_length
    assert seam_counts(p) == seam_counts(w)
