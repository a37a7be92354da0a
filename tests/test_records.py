import re
import typing

import pytest

import pantsarc
from pantsarc.census import CensusReport, census
from pantsarc.intersect import Chain, Trace, resolve_chain, trace
from pantsarc.lowlying import (FAMILIES, Decomposition, Family, WitnessArc,
                                decompose, witness)
from pantsarc.planar import Segment, segments
from pantsarc.words import ArcWord, SeamCounts, parse_word, seam_counts

W = "1BABA2"

# each record class with one instance and the repr it has always had;
# the repr gives the field names in their order
RECORDS = {
    ArcWord: (lambda: parse_word(W),
              "ArcWord(start=1, letters=(3, 1, 3, 1), end=2)"),
    SeamCounts: (lambda: seam_counts(parse_word(W)),
                 "SeamCounts(a_count=2, b_count=2)"),
    Segment: (lambda: segments(parse_word(W))[0], "Segment(fr=1, to=6)"),
    Chain: (lambda: resolve_chain(parse_word(W), 1, 3),
            "Chain(members=((1, 3), (2, 4), (3, 5)), parallel=True, "
            "free_end=False, decision=1)"),
    Trace: (lambda: trace(parse_word(W)),
            "Trace(word='1BABA2', labels=('1B', 'bA', 'aB', 'bA', 'a2'), "
            "grid='0X010X0010', total=2)"),
    CensusReport: (lambda: census(4, jobs=1),
                   "CensusReport(word_length=4, word_count=48, min_i=1, "
                   "max_i=3, histogram={1: 8, 2: 32, 3: 8})"),
    Family: (lambda: FAMILIES["C2"],
             "Family(name='C2', needs_m=False, word=<function>, "
             "value=<function>, quotients=<function>, fixed=True)"),
    WitnessArc: (lambda: witness(10),
                 "WitnessArc(target=10, family='Z4', n=2, m=None, "
                 "word=ArcWord(start=1, letters=(2, 1, 2, 1, 2), end=1), "
                 "quotients=(2, 2, 2, 2, 1, 1))"),
    Decomposition: (lambda: decompose(10),
                    "Decomposition(family='Z4', n=2, m=None)"),
}


def _fields(want):
    """The field names of a pinned repr, in order, nested records left out."""
    depth, names = 0, []
    for token in re.findall(r"\w+=|[()]", want):
        depth += {"(": 1, ")": -1}.get(token, 0)
        if depth == 1 and token.endswith("="):
            names.append(token[:-1])
    return tuple(names)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_repr_and_fields(cls):
    make, want = RECORDS[cls]
    record = make()
    assert type(record) is cls
    assert re.sub(r"<function <lambda> at \w+>", "<function>",
                  repr(record)) == want
    assert record._fields == _fields(want)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_immutable(cls):
    make, want = RECORDS[cls]
    record = make()
    for name in _fields(want):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_has_no_instance_dict(cls):
    record = RECORDS[cls][0]()
    assert not hasattr(record, "__dict__")


def test_records_hash_by_value():
    assert len({parse_word(W), parse_word(W), parse_word("1b1")}) == 2
    assert hash(trace(parse_word(W))) == hash(trace(parse_word(W)))
    assert resolve_chain(parse_word(W), 1, 3) == resolve_chain(parse_word(W), 2, 4)


def test_trace_cells_are_built_once():
    # built from the grid on each access, so equal, not the same object
    t = trace(parse_word(W))
    assert t.cells == t.cells
    assert list(t.cells) == [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    assert t.cells[3, 5] == "1"


def test_public_type_hints_resolve():
    # an annotation naming what its module imports only at call time
    # cannot be resolved
    for name in pantsarc.__all__:
        obj = getattr(pantsarc, name)
        if callable(obj):
            typing.get_type_hints(obj)
