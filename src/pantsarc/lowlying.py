"""Families of arcs with prescribed self-intersection numbers.

An arc is k-low-lying when the continued fraction of its endpoint
slope has all quotients at most k.  This module carries a catalog of
word families whose self-intersection numbers follow closed forms in
one or two parameters; the Z families come with explicit continued
fractions whose quotients never exceed 2, so together they exhibit a
2-low-lying arc for every target number: ``decompose`` picks the
family and parameters hitting a requested count exactly.

``decompose`` holds the second description of the Z value sets, as
ranges of shifted squares, and inverts the catalog exactly, so the Z
value sets and the sporadic values {2, 7} partition the naturals: the
one family whose value set holds v is ``decompose(v).family``.  The
``cover`` command checks it against ``value_set_members``, which
enumerates the parameterization.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .words import ArcWord, _data_lines


class UnsupportedFamily(ValueError):
    """The family does not provide the requested data."""


class Family(namedtuple("Family", "name needs_m word value quotients fixed",
                        defaults=(None, False))):
    """One parameterized family: words, closed form, continued fraction."""

    __slots__ = ()


FAMILIES = {
    # single-parameter ladders; no bounded continued fraction attached
    "F1": Family("F1", False,
                 lambda n, m: ArcWord(1, (3, 1) * n, 2),
                 lambda n, m: n),
    "F2": Family("F2", False,
                 lambda n, m: ArcWord(1, (2, 1) * n, 3),
                 lambda n, m: n * n + 2 * n),
    "F3": Family("F3", False,
                 lambda n, m: ArcWord(1, (3, 1) * n + (3,), 1),
                 lambda n, m: n),
    "F4": Family("F4", False,
                 lambda n, m: ArcWord(3, (2, 1) * n + (2,), 3),
                 lambda n, m: n * n + 3 * n + 1),
    # two-parameter families with quotients bounded by 2
    "Z1": Family("Z1", True,
                 lambda n, m: ArcWord(1, (2, 1) * n + (2, 0, 2) + (1, 3, 1) * m, 2),
                 lambda n, m: (m + n + 1) ** 2 + 2 * m + n,
                 lambda n, m: (2,) * (2 * n) + (1, 2, 1, 1) + (2,) * (2 * m - 1) + (1,)),
    "Z2": Family("Z2", True,
                 lambda n, m: ArcWord(1, (2, 1) * n + (2, 0, 0) * m, 2),
                 lambda n, m: (m + n) ** 2 + 2 * m + 3 * n,
                 lambda n, m: (2,) * (2 * n) + (1, 1) + (2,) * (2 * m - 1) + (1,)),
    "Z3": Family("Z3", False,
                 lambda n, m: ArcWord(1, (2, 1) * (n + 2) + (2, 0), 3),
                 lambda n, m: (n + 4) ** 2 - 2,
                 lambda n, m: (2,) * (2 * (n + 2)) + (1, 1, 1, 1)),
    "Z4": Family("Z4", False,
                 lambda n, m: ArcWord(1, (2, 1) * n + (2,), 1),
                 lambda n, m: n * (n + 3),
                 lambda n, m: (2,) * (2 * n) + (1, 1)),
    "Z5": Family("Z5", False,
                 lambda n, m: ArcWord(1, (2, 1) * n + (2, 0), 2),
                 lambda n, m: n * (n + 3) + 1,
                 lambda n, m: (2,) * (2 * n) + (1, 1, 1)),
    # two sporadic values the Z families miss
    "C2": Family("C2", False,
                 lambda n, m: ArcWord(1, (2, 1), 2),
                 lambda n, m: 2,
                 lambda n, m: (2, 1, 1),
                 fixed=True),
    "C7": Family("C7", False,
                 lambda n, m: ArcWord(1, (2, 1, 2, 0), 3),
                 lambda n, m: 7,
                 lambda n, m: (2, 2, 1, 1, 1, 1),
                 fixed=True),
}


def _checked(family_id: str, n: int, m) -> Family:
    try:
        fam = FAMILIES[family_id]
    except KeyError:
        raise UnsupportedFamily(f"unknown family {family_id!r}") from None
    if not isinstance(n, int) or not isinstance(m, (int, type(None))):
        raise ValueError(f"family parameters are integers, got n={n!r}, m={m!r}")
    if fam.fixed:
        if n != 0 or m is not None:
            raise ValueError(f"family {family_id} has no parameters")
        return fam
    if n < 0:
        raise ValueError("n must be nonnegative")
    if fam.needs_m:
        if m is None or m < 1:
            raise ValueError(f"family {family_id} needs m >= 1")
    elif m is not None:
        raise ValueError(f"family {family_id} has no second parameter")
    return fam


def family_word(family_id: str, n: int = 0, m: int | None = None) -> ArcWord:
    """The word of one family member."""
    return _checked(family_id, n, m).word(n, m)


def family_intersections(family_id: str, n: int = 0, m: int | None = None) -> int:
    """Closed-form self-intersection number of one family member."""
    return _checked(family_id, n, m).value(n, m)


def family_quotients(family_id: str, n: int = 0, m: int | None = None) -> tuple:
    """Continued-fraction quotients of one family member's slope."""
    fam = _checked(family_id, n, m)
    if fam.quotients is None:
        raise UnsupportedFamily(
            f"family {family_id} carries no bounded continued fraction")
    return fam.quotients(n, m)


def continued_fraction_value(quotients):
    """Value of the continued fraction 1/(a1 + 1/(a2 + ... + 1/ak))."""
    qs = tuple(quotients)
    if not qs or any(not isinstance(a, int) or a < 1 for a in qs):
        raise ValueError("quotients must be a nonempty sequence of positive "
                         f"integers, got {qs!r}")
    from fractions import Fraction

    value = Fraction(0)
    for a in reversed(qs):
        value = Fraction(1, a + value)
    return value


class Decomposition(namedtuple("Decomposition", "family n m")):
    """Family and parameters of the member hitting one target number."""

    __slots__ = ()


_COVER_FAMILIES = ("Z1", "Z2", "Z3", "Z4", "Z5")

_SPORADIC_VALUES = {2: "C2", 7: "C7"}


def decompose(target: int) -> Decomposition:
    """Family and parameters of a 2-low-lying arc with ``target`` crossings.

    Writes target = j^2 + i0 with -j <= i0 <= j - 1 and reads the Z
    family and parameters off the offset i0, the exact inverse of their
    closed forms; 2 and 7 lie in no Z value set and need words of their own.
    """
    if not isinstance(target, int):
        raise ValueError(f"a self-intersection number is an integer, got {target!r}")
    if target < 0:
        raise ValueError("a self-intersection number is nonnegative")
    if target in _SPORADIC_VALUES:
        return Decomposition(_SPORADIC_VALUES[target], 0, None)
    r = isqrt(target)
    j = r if target <= r * r + r - 1 else r + 1
    i0 = target - j * j
    if -1 <= i0 <= j - 3:
        return Decomposition("Z2", i0 + 1, j - i0 - 2)
    if -j <= i0 <= -3:
        return Decomposition("Z1", -i0 - 3, j + i0 + 1)
    if i0 == -2:
        return Decomposition("Z3", j - 4, None)
    if i0 == j - 2:
        return Decomposition("Z4", j - 1, None)
    assert i0 == j - 1
    return Decomposition("Z5", j - 1, None)


class WitnessArc(namedtuple("WitnessArc", "target family n m word quotients")):
    """A concrete arc hitting a requested self-intersection number."""

    __slots__ = ()


def witness(target: int) -> WitnessArc:
    """A 2-low-lying arc with exactly ``target`` self-crossings."""
    family, n, m = decompose(target)
    assert family_intersections(family, n, m) == target
    return WitnessArc(target, family, n, m,
                      family_word(family, n, m),
                      family_quotients(family, n, m))


# --- value sets of the Z families ---

def value_set_members(family_id: str, limit: int):
    """Every value of the family up to ``limit``, from the
    parameterization, as a generator; a value may come more than once.

    Enumerates the closed form over its parameter grid, independent of
    the shifted squares of ``decompose``.  An unknown family raises
    UnsupportedFamily at the call, before any value is asked for.
    """
    if family_id not in _COVER_FAMILIES:
        raise UnsupportedFamily(f"no value-set rule for family {family_id!r}")
    fam = FAMILIES[family_id]

    def members():
        n = 0
        while (first := fam.value(n, 1 if fam.needs_m else None)) <= limit:
            if fam.needs_m:
                m = 1
                while (v := fam.value(n, m)) <= limit:
                    yield v
                    m += 1
            else:
                yield first
            n += 1

    return members()


def load_reference_words(path=None) -> list:
    """The packaged (word, expected i) fixtures, or the file at path."""
    out = []
    for line in _data_lines("lowlying_words.csv", path):
        if line.startswith("word,"):
            continue
        try:
            word, expected = line.rsplit(",", 1)
            out.append((word, int(expected)))
        except ValueError:
            raise ValueError(f"fixture row {line!r} is not word,integer") from None
    return out
