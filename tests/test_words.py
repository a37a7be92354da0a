import itertools
import typing

import pytest
from hypothesis import given

import pantsarc
from pantsarc import words
from pantsarc.census import enumerate_words
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

from conftest import MALFORMED_WORDS, arc_words


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
    # every public function with an ArcWord parameter, found by its
    # annotations so that a new one is held to the same check, refuses a
    # malformed word with one ValueError naming it by its repr, since
    # str() of such a word can itself fail
    takes_word = {}
    for name in pantsarc.__all__:
        f = getattr(pantsarc, name)
        hints = typing.get_type_hints(f) if callable(f) else {}
        if ArcWord in (hint for key, hint in hints.items() if key != "return"):
            takes_word[name] = f
    assert {"inverse", "relabel", "seam_counts", "is_positive", "positivize",
            "segments", "self_intersection", "resolve_chain",
            "trace"} <= set(takes_word)
    for name, f in takes_word.items():
        for w, message in MALFORMED_WORDS:
            with pytest.raises(ValueError) as err:
                f(w, 1, 2) if name == "resolve_chain" else f(w)
            assert str(err.value) == f"{w!r}: {message}", name


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
