"""Seeded inputs for the benchmark workloads.

Words are produced as text, so the library's parser is part of every
measured call.  The generator is the benchmark's own: it does not share
code with the test suite, so changing the tests cannot change the
benchmark's inputs.
"""

from __future__ import annotations

import math
import random

_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}
_FOLLOWERS = {c: [d for d in "aAbB" if d != _INVERSE[c]] for c in "aAbB"}

# the first crossing may not be the cutting arc that touches the start
_FIRST = {1: "bB", 2: "aA", 3: "aAbB"}

# the last crossing may not be the cutting arc that touches the end
_ENDS = {"a": "23", "A": "23", "b": "13", "B": "13"}


def random_word(rng, word_length: int) -> str:
    """A valid word of ``word_length`` symbols (at least 3), drawn uniformly.

    Every start digit is weighted by its number of admissible first
    crossings, and every later choice has the same number of options,
    so each valid word of the length is equally likely.
    """
    if word_length < 3:
        raise ValueError("a random word needs at least one crossing")
    start = rng.choices((1, 2, 3), weights=(2, 2, 4))[0]
    letters = [rng.choice(_FIRST[start])]
    for _ in range(word_length - 3):
        letters.append(rng.choice(_FOLLOWERS[letters[-1]]))
    return f"{start}{''.join(letters)}{rng.choice(_ENDS[letters[-1]])}"


# each stratified value is drawn from this middle fraction of its stratum
JITTER = 0.2


def log_strata(rng, lo, hi, k: int) -> list:
    """``k`` integers spread log-uniformly over [lo, hi], one per stratum.

    The range is cut into ``k`` strata of equal log width and one value
    is drawn from the middle JITTER of each, so the cost of the set,
    and its median, barely move with the seed.
    """
    span = math.log(hi / lo)
    return [round(lo * math.exp(span * (j + 0.5 + JITTER * (rng.random() - 0.5)) / k))
            for j in range(k)]


def witness_targets(rng, lo, hi, k: int) -> list:
    """``k`` targets N spread log-uniformly over [lo, hi].

    The witness for N = j*j + i0 (-j <= i0 < j) has about 3j - |i0|
    symbols, so its price depends on the offset i0 as much as on N.
    Target s takes j from the s-th of ``k`` log-strata of
    [sqrt(lo), sqrt(hi)] and i0 / j from a fixed permutation of ``k``
    strata of [-1, 1), both drawn from the middle JITTER of their
    stratum.
    """
    roots = log_strata(rng, math.isqrt(lo), math.isqrt(hi), k)
    order = random.Random(k).sample(range(k), k)
    out = []
    for j, cell in zip(roots, order):
        frac = (cell + 0.5 + JITTER * (rng.random() - 0.5)) / k
        out.append(j * j + min(j - 1, max(-j, math.floor((2 * frac - 1) * j))))
    return out
