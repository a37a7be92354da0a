"""Arc words on a pair of pants.

A pair of pants (a sphere with three holes, boundaries labeled 1, 2
and 3) is cut into a disk by two disjoint simple arcs: cutting arc
``a`` runs from boundary 1 to boundary 3 and cutting arc ``b`` from
boundary 2 to boundary 3.  A properly embedded arc is described by a
word  ``n1 x1 ... xL n2``:  the digits name the boundaries carrying
the endpoints and each letter records a crossing of a cutting arc,
uppercase for the reverse direction (``A`` undoes ``a``, ``B`` undoes
``b``).

Words are kept reduced and taut: a crossing never immediately undoes
the previous one, consecutive boundary digits ``11`` and ``22`` are
excluded (such arcs retract into the boundary), and the first or last
crossing may not be the cutting arc that touches the starting or
ending boundary (those corner segments retract as well).
"""

from __future__ import annotations

import os
from collections import namedtuple

LETTER_CHARS = "aAbB"
SEAM_CHARS = "123"

_CODE_OF = {ch: k for k, ch in enumerate(LETTER_CHARS)}

# the letter code of each letter's ASCII byte, and back
_CODE_BYTES = bytes.maketrans(LETTER_CHARS.encode(), bytes(range(4)))
_LETTER_BYTES = bytes.maketrans(bytes(range(4)), LETTER_CHARS.encode())

# the boundary of each digit
_DIGITS = {ch: int(ch) for ch in SEAM_CHARS}

# boundary digit -> letter family (0 = a, 1 = b) that may not sit next to it
_CLASHING_FAMILY = {1: 0, 2: 1}

# the two opening or closing symbols of a word that no valid word has:
# an endpoint clash, or a crossing-free word from boundary 1 or 2 back
# to itself
_STUCK = frozenset({"1a", "1A", "2b", "2B", "a1", "A1", "b2", "B2", "11", "22"})


class WordError(ValueError):
    """Rejected word text; ``position`` indexes the offending character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class MalformedToken(WordError):
    """A character outside the alphabet 123aAbB."""


class BadShape(WordError):
    """Text does not have the shape digit, crossings, digit."""


class ForbiddenPair(WordError):
    """A crossing-free word from boundary 1 or 2 back to itself."""


class NonReduced(WordError):
    """A crossing immediately undone by its reverse."""


class EndpointClash(WordError):
    """First or last crossing touches the cutting arc at its own boundary."""


class ArcWord(namedtuple("ArcWord", "start letters end")):
    """A validated arc word: two boundary labels and the crossing codes."""

    __slots__ = ()

    @property
    def word_length(self) -> int:
        """Number of symbols in the word, crossings plus the two digits."""
        return len(self.letters) + 2

    def __str__(self) -> str:
        # the digits as their ASCII bytes, which the table leaves alone
        return bytes([48 + self.start, *self.letters, 48 + self.end]).translate(
            _LETTER_BYTES).decode()


def parse_word(text: str) -> ArcWord:
    """Parse and validate an arc word string.

    A valid word is accepted by a few whole-string checks; any other
    text is scanned left to right, which raises the WordError subclass
    describing the first character at which the text stops being
    extendable to a valid word.
    """
    mid = text[1:-1]
    if (len(text) > 1 and text[0] in SEAM_CHARS and text[-1] in SEAM_CHARS
            and not mid.strip(LETTER_CHARS)
            and text[:2] not in _STUCK and text[-2:] not in _STUCK
            and "aA" not in mid and "Aa" not in mid
            and "bB" not in mid and "Bb" not in mid):
        # tuple.__new__ skips the argument handling of ArcWord(...)
        return tuple.__new__(ArcWord, (
            _DIGITS[text[0]], tuple(mid.encode().translate(_CODE_BYTES)),
            _DIGITS[text[-1]]))
    return _scan(text)


def _scan(text: str) -> ArcWord:
    """Parse ``text`` symbol by symbol, raising the WordError subclass
    describing the first character at which it stops being extendable
    to a valid word."""
    if not text:
        raise BadShape("empty word", 0)
    ch = text[0]
    if ch not in SEAM_CHARS:
        if ch not in _CODE_OF:
            raise MalformedToken(f"unknown character {ch!r}", 0)
        raise BadShape("word must open with a boundary digit", 0)
    start = int(ch)
    letters = []
    for i in range(1, len(text)):
        ch = text[i]
        if ch in _CODE_OF:
            code = _CODE_OF[ch]
            if not letters and _CLASHING_FAMILY.get(start) == code >> 1:
                raise EndpointClash(
                    f"crossing {ch!r} retracts into boundary {start}", i)
            if letters and code == letters[-1] ^ 1:
                raise NonReduced(f"crossing {ch!r} undoes the previous one", i)
            letters.append(code)
        elif ch in SEAM_CHARS:
            end = int(ch)
            if not letters and start == end and start != 3:
                raise ForbiddenPair(
                    f"crossing-free word from boundary {start} to itself", i)
            if letters and _CLASHING_FAMILY.get(end) == letters[-1] >> 1:
                raise EndpointClash(
                    f"crossing {text[i - 1]!r} retracts into boundary {end}", i)
            if i + 1 < len(text):
                raise BadShape("text continues past the closing digit", i + 1)
            return ArcWord(start, tuple(letters), end)
        else:
            raise MalformedToken(f"unknown character {ch!r}", i)
    raise BadShape("word never closes with a boundary digit", len(text))


def inverse(w: ArcWord) -> ArcWord:
    """The same arc traversed backwards."""
    return ArcWord(w.end, tuple(c ^ 1 for c in reversed(_word_codes(w))),
                   w.start)


_SWAP_BOUNDARY = {1: 2, 2: 1, 3: 3}


def relabel(w: ArcWord) -> ArcWord:
    """Exchange the two legs: boundaries 1 <-> 2 and cutting arcs a <-> b."""
    codes = _word_codes(w)
    return ArcWord(_SWAP_BOUNDARY[w.start], tuple(c ^ 2 for c in codes),
                   _SWAP_BOUNDARY[w.end])


class SeamCounts(namedtuple("SeamCounts", "a_count b_count")):
    """Crossings of cutting arc a and of cutting arc b."""

    __slots__ = ()


def _check_fields(w: ArcWord) -> None:
    """The one check of a hand-built word's fields: ValueError, naming
    the word by its repr, since str() of it can itself fail, for a
    boundary digit that is not 1, 2 or 3, or else for letters that are
    not a sequence of codes 0-3.  ``planar._shapes`` calls it on a word
    that fails to pack or holds the 0 marker, so every function that
    takes an ArcWord refuses such a field with this error.
    """
    if not all(isinstance(d, int) and 0 < d < 4 for d in (w.start, w.end)):
        raise ValueError(f"{w!r}: boundary digits must be 1, 2 or 3")
    try:
        # len() first: bytes() would read a bare int n as n zero bytes
        len(w.letters)
        if max(bytes(w.letters), default=0) < 4:
            return
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{w!r}: letters must be a sequence of codes 0-3")


def _word_codes(w: ArcWord) -> bytes:
    """The letter codes of ``w``, refused as the segment readers refuse
    it, through ``planar._shapes``: ValueError from ``_check_fields`` for
    a field that is no symbol, then AlignmentOverrun, naming the word,
    for a word ``parse_word`` refuses.  A valid word costs one translate
    of its symbol pairs, with no loop over its letters."""
    # the planar model sits above this module, so fetch it lazily
    from .planar import _shapes
    _shapes(w)
    return bytes(w.letters)


def seam_counts(w: ArcWord) -> SeamCounts:
    """How many times the word crosses each cutting arc, either direction."""
    codes = _word_codes(w)
    b = sum(c >> 1 for c in codes)
    return SeamCounts(len(codes) - b, b)


def is_positive(w: ArcWord) -> bool:
    """True when no crossing occurs together with its reverse."""
    cases_seen = [set(), set()]
    for c in _word_codes(w):
        cases_seen[c >> 1].add(c & 1)
    return all(len(s) < 2 for s in cases_seen)


def _flip_blocks(w: ArcWord) -> ArcWord:
    xs = list(w.letters)
    last = len(xs) - 1
    lo = 0
    while True:
        # every letter before the previous block's start is lowercase
        while lo <= last and not xs[lo] & 1:
            lo += 1
        if lo > last:
            break
        hi = lo
        while hi < last and xs[hi + 1] & 1:
            hi += 1
        flip_lo, flip_hi = lo, hi
        if lo == 0 and xs[hi] >> 1 == _CLASHING_FAMILY.get(w.start):
            # the block's closing run would land on the first position
            while xs[flip_hi] == xs[hi]:
                flip_hi -= 1
        elif hi == last and xs[lo] >> 1 == _CLASHING_FAMILY.get(w.end):
            while xs[flip_lo] == xs[lo]:
                flip_lo += 1
        assert flip_lo <= flip_hi
        xs[flip_lo:flip_hi + 1] = [c ^ 1 for c in reversed(xs[flip_lo:flip_hi + 1])]
    return ArcWord(w.start, tuple(xs), w.end)


def positivize(w: ArcWord) -> ArcWord:
    """Rewrite the word as a positive word without raising the crossing count.

    Each maximal uppercase block is replaced by its reversed lowercase
    mirror.  When the flipped block would land a clashing crossing next
    to an endpoint boundary, the run of equal letters feeding that
    endpoint is left in place and flipped on a later round.  On a few
    words that block rewrite raises the self-intersection number; the
    word is then traversed backwards and flipped instead, which brought
    the count back down in every such word of length up to 12.  That
    is an empirical claim, checked exhaustively through length 12 by
    the test suite; a word on which both rewrites raise the count
    raises RuntimeError rather than being returned worse.  Crossing
    counts and word length are always preserved, and a word with no
    lowercase crossings at all is simply traversed backwards.
    """
    codes = _word_codes(w)
    if not any(c & 1 for c in codes):
        return w
    if all(c & 1 for c in codes):
        return inverse(w)
    # the crossing engine sits above this module, so fetch it lazily
    from .intersect import self_intersection
    n = self_intersection(w)
    flipped = _flip_blocks(w)
    if self_intersection(flipped) <= n:
        return flipped
    other = _flip_blocks(inverse(w))
    if self_intersection(other) <= n:
        return other
    raise RuntimeError(f"both positive rewrites of {w} raise its "
                       "self-intersection number")


def _data_lines(name, path=None):
    """The lines of the packaged data file ``name``, or of the file at
    ``path``, with comments stripped and blank lines dropped."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path) as handle:
        text = handle.read()
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    return [line for line in lines if line]
