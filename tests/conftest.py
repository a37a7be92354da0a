import pytest
from hypothesis import strategies as st

from pantsarc.words import ArcWord, _CLASHING_FAMILY

BARE_PAIRS = ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3))

# hand-built words with a field that is no symbol, each with the message
# every function taking an ArcWord gives after the word's repr: a letter
# code outside 0-3, letters that are no sequence (bytes(3) would read as
# three a's) or a boundary digit that is not 1, 2 or 3, which wins when
# both fields are bad
LETTERS = "letters must be a sequence of codes 0-3"
DIGITS = "boundary digits must be 1, 2 or 3"
MALFORMED_WORDS = (
    (ArcWord(1, (9,), 2), LETTERS), (ArcWord(1, (0, -1), 3), LETTERS),
    (ArcWord(2, 3, 2), LETTERS), (ArcWord(1, (0.0,), 2), LETTERS),
    (ArcWord(1, "ab", 2), LETTERS), (ArcWord(1, (5,), 2), LETTERS),
    (ArcWord(3, (0, 4, 0), 3), LETTERS), (ArcWord(1, (300,), 2), LETTERS),
    (ArcWord(1, (-1,), 2), LETTERS),
    (ArcWord(0, (2,), 2), DIGITS), (ArcWord(1.0, (2,), 2), DIGITS),
    (ArcWord(1, (2,), "3"), DIGITS), (ArcWord(0, (), 2), DIGITS),
    (ArcWord(1, (0,), 4), DIGITS), (ArcWord(1.5, (0,), 2), DIGITS),
    (ArcWord("1", (), 2), DIGITS), (ArcWord(None, (), 2), DIGITS),
    (ArcWord(0, 3, 2), DIGITS),
)


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checklist")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def pytest_addoption(parser):
    parser.addoption("--extended", action="store_true",
                     help="also run the long checks: census at word lengths "
                          "13-16 with its histogram pins (word count, sum "
                          "of i, sum of i^2, SHA-256), positivize through "
                          "length 12, cover through 10^7 and _extend split "
                          "at every prefix through length 11")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "extended: long-running check, enabled with --extended")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--extended"):
        return
    skip = pytest.mark.skip(reason="pass --extended to run")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)


@st.composite
def arc_words(draw, min_length=2, max_length=12):
    """Valid words, built the way the grammar reads."""
    word_length = draw(st.integers(min_length, max_length))
    crossings = word_length - 2
    if crossings == 0:
        start, end = draw(st.sampled_from(BARE_PAIRS))
        return ArcWord(start, (), end)
    start = draw(st.integers(1, 3))
    first = [c for c in range(4) if _CLASHING_FAMILY.get(start) != c >> 1]
    letters = [draw(st.sampled_from(first))]
    for _ in range(crossings - 1):
        letters.append(draw(st.sampled_from(
            [c for c in range(4) if c != letters[-1] ^ 1])))
    ends = [d for d in (1, 2, 3) if _CLASHING_FAMILY.get(d) != letters[-1] >> 1]
    end = draw(st.sampled_from(ends))
    return ArcWord(start, tuple(letters), end)


def random_word(rng, word_length):
    """One valid word of the given length, drawn with a plain RNG."""
    crossings = word_length - 2
    if crossings == 0:
        start, end = rng.choice(BARE_PAIRS)
        return ArcWord(start, (), end)
    start = rng.randrange(1, 4)
    first = [c for c in range(4) if _CLASHING_FAMILY.get(start) != c >> 1]
    letters = [rng.choice(first)]
    for _ in range(crossings - 1):
        letters.append(rng.choice(
            [c for c in range(4) if c != letters[-1] ^ 1]))
    ends = [d for d in (1, 2, 3) if _CLASHING_FAMILY.get(d) != letters[-1] >> 1]
    return ArcWord(start, tuple(letters), rng.choice(ends))


@pytest.fixture(scope="session")
def census_by_length():
    """Full census reports for word lengths 2 through 12, computed once."""
    from pantsarc.census import census

    return {wl: census(wl) for wl in range(2, 13)}
