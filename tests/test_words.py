import functools
import itertools
import re
import typing

import pytest
from hypothesis import given

import pantsarc
from pantsarc import words
from pantsarc.census import enumerate_words
from pantsarc.planar import AlignmentOverrun
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


def _word_operations():
    """Every public function with an ArcWord parameter, found by its
    annotations so that a new one is held to the same checks, each
    called on a word alone (``resolve_chain`` on its pair (1, 2))."""
    takes_word = {}
    for name in pantsarc.__all__:
        f = getattr(pantsarc, name)
        hints = typing.get_type_hints(f) if callable(f) else {}
        if ArcWord in (hint for key, hint in hints.items() if key != "return"):
            takes_word[name] = (functools.partial(f, i=1, j=2)
                                if name == "resolve_chain" else f)
    assert {"inverse", "relabel", "seam_counts", "is_positive", "positivize",
            "segments", "self_intersection", "resolve_chain",
            "trace"} <= set(takes_word)
    return takes_word


def test_word_operations_refuse_codes_that_are_no_symbol():
    # a malformed word is refused with one ValueError naming it by its
    # repr, since str() of such a word can itself fail
    for name, f in _word_operations().items():
        for w, message in MALFORMED_WORDS:
            with pytest.raises(ValueError) as err:
                f(w)
            assert str(err.value) == f"{w!r}: {message}", name


# hand-built words of valid symbols that the grammar refuses, each with
# the message parse_word gives for its text: an endpoint clash at each
# end, a letter undoing the one before it, and 11
REFUSED_WORDS = (
    (ArcWord(1, (0, 3), 1), "crossing 'a' retracts into boundary 1 (position 1)"),
    (ArcWord(3, (2, 0), 1), "crossing 'a' retracts into boundary 1 (position 3)"),
    (ArcWord(3, (0, 1), 3), "crossing 'A' undoes the previous one (position 2)"),
    (ArcWord(1, (), 1), "crossing-free word from boundary 1 to itself (position 1)"),
)


def test_word_operations_refuse_words_the_grammar_refuses():
    # the same AlignmentOverrun every segment reader raises, naming the
    # word and then the message parse_word gives for its text
    for w, message in REFUSED_WORDS:
        with pytest.raises(WordError, match=re.escape(message)):
            parse_word(str(w))
    for name, f in _word_operations().items():
        for w, message in REFUSED_WORDS:
            with pytest.raises(AlignmentOverrun) as err:
                f(w)
            assert str(err.value) == f"{w}: {message}", name


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
