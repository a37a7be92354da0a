"""Command-line front end for the arc-word toolkit.

One subcommand per invocation; results go to standard output in JSON
(default) or plain text, diagnostics to standard error.  Exit codes:
0 success, 1 invalid input, 2 verification failure, 3 internal error.

``main`` builds its parser once per process, on its first call, and
reuses it on every later call: parsing returns a new namespace each
time, and every handler looks up the library functions it calls when it
runs, so one call leaves nothing behind for the next.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .words import WordError, parse_word
from .intersect import self_intersection, trace
from .census import CENSUS_SIZE_LIMIT, census, count_words, enumerate_words
from .lowlying import (
    FAMILIES,
    _COVER_FAMILIES,
    _SPORADIC_VALUES,
    continued_fraction_value,
    decompose,
    family_intersections,
    family_quotients,
    family_word,
    load_reference_words,
    value_set_members,
    witness,
)
from .planar import load_reference_pairs, regenerate_tables

OK, USAGE, VERIFY, INTERNAL = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


def _print(payload, args, text):
    if args.format == "json":
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(text)


def _fail(message):
    """Name a verification failure on standard error; the exit code."""
    print(f"FAIL: {message}", file=sys.stderr)
    return VERIFY


def _verdict(payload, args, summary, failure):
    """End a verification command: ``pass`` last in the payload, the
    summary after PASS or FAIL, the first failure named; the exit code."""
    payload["pass"] = failure is None
    _print(payload, args, f"{'PASS' if failure is None else 'FAIL'}: {summary}")
    return OK if failure is None else _fail(failure)


def _cmd_validate(args):
    try:
        w = parse_word(args.word)
    except WordError as exc:
        _print({"word": args.word, "valid": False, "error": str(exc)},
               args, f"invalid: {exc}")
        return USAGE
    payload = {"word": str(w), "valid": True, "word_length": w.word_length,
               "start": w.start, "end": w.end}
    _print(payload, args, f"valid word of length {w.word_length}")
    return OK


def _grid_rows(t):
    """The rows of trace ``t``'s grid as (i, cells (i, i + 1) .. (i, T))."""
    T = len(t.labels)
    end = 0
    for i in range(1, T):
        start, end = end, end + T - i
        yield i, t.grid[start:end]


def _grid_lines(t):
    """The lines of trace ``t``'s text grid, the total last, one at a time."""
    names = [f"w{k + 1}={lab}" for k, lab in enumerate(t.labels)]
    width = max(len(n) for n in names) + 2
    yield " " * width + "".join(n.ljust(width) for n in names[1:])
    gap = " " * (width - 1)
    for i, cells in _grid_rows(t):
        # row i's cells sit under w(i+1) .. wT
        yield (names[i - 1].ljust(width) + " " * (width * (i - 1))
               + gap.join(cells))
    yield f"total = {t.total}"


def _cmd_intersect(args):
    w = parse_word(args.word)
    if not args.trace:
        i = self_intersection(w)
        _print({"word": str(w), "i": i}, args, f"i({w}) = {i}")
        return OK
    t = trace(w)
    if args.format == "text":
        # a line at a time, building no payload
        sys.stdout.writelines(f"{line}\n" for line in _grid_lines(t))
        return OK
    # one grid row at a time, in the bytes _print would give the payload
    out = sys.stdout
    segments = json.dumps(list(t.labels), separators=(",", ":"))
    out.write(f'{{"word":{json.dumps(t.word)},"i":{t.total},'
              f'"segments":{segments},"grid":{{')
    for i, cells in _grid_rows(t):
        row = ",".join([f'"{i},{j}":"{cell}"' for j, cell
                        in enumerate(cells, i + 1)])
        out.write(row if i == 1 else "," + row)
    out.write("}}\n")
    return OK


def _cmd_enumerate(args):
    n = args.length
    count = count_words(n)
    if args.count_only:
        _print({"word_length": n, "count": count}, args, str(count))
        return OK
    # one word at a time, in the bytes _print would give the whole list
    words = (str(w) for w in enumerate_words(n))
    out = sys.stdout
    if args.format == "json":
        out.write(f'{{"word_length":{n},"count":{count},"words":[')
        out.write(json.dumps(next(words)))
        for word in words:
            out.write("," + json.dumps(word))
        out.write("]}\n")
    else:
        for word in words:
            out.write(word + "\n")
    return OK


def _cmd_census(args):
    if args.length > CENSUS_SIZE_LIMIT:
        print(f"warning: census at word length {args.length} exceeds the "
              f"usual budget (limit {CENSUS_SIZE_LIMIT}); running anyway",
              file=sys.stderr)
    report = census(args.length, jobs=args.jobs, allow_large=True)
    pairs = report.histogram_pairs()
    if args.histogram:
        with open(args.histogram, "w") as handle:
            handle.write("i,count\n")
            handle.writelines([f"{i},{c}\n" for i, c in pairs])
    lines = [f"word length {report.word_length}: {report.word_count} words, "
             f"i from {report.min_i} to {report.max_i}"]
    lines += [f"{i:4d} {c}" for i, c in pairs]
    _print({**report._asdict(), "histogram": pairs}, args, "\n".join(lines))
    return OK


def _family_payload(family_id, n, m):
    word = family_word(family_id, n, m)
    payload = {"family": family_id, "n": n, "m": m, "word": str(word),
               "i": family_intersections(family_id, n, m)}
    if FAMILIES[family_id].quotients is not None:
        cf = family_quotients(family_id, n, m)
        payload["cf"] = list(cf)
        payload["max_quotient"] = max(cf)
    return word, payload


def _cmd_family(args):
    word, payload = _family_payload(args.id, args.n, args.m)
    if args.verify:
        computed = self_intersection(word)
        payload["i_computed"] = computed
        payload["pass"] = computed == payload["i"]
    lines = [f"{k}: {payload[k]}" for k in payload]
    _print(payload, args, "\n".join(lines))
    if args.verify and not payload["pass"]:
        return _fail(f"{args.id} n={args.n} m={args.m}: closed form "
                     f"{payload['i']}, computed {payload['i_computed']}")
    return OK


def _checked_witness(target):
    """Witness, computed i, and whether it is 2-low-lying with i = target."""
    wit = witness(target)
    computed = self_intersection(wit.word)
    return wit, computed, computed == target and max(wit.quotients) <= 2


def _cmd_witness(args):
    wit, computed, ok = _checked_witness(args.N)
    payload = {"N": wit.target, "family": wit.family, "n": wit.n,
               "m": wit.m, "word": str(wit.word), "i_computed": computed,
               "cf": list(wit.quotients),
               "max_quotient": max(wit.quotients)}
    lines = [f"{k}: {payload[k]}" for k in payload]
    _print(payload, args, "\n".join(lines))
    if not ok:
        return _fail(f"witness {wit.word} for {wit.target} computes "
                     f"{computed}, max quotient {max(wit.quotients)}")
    return OK


def _cmd_spectrum(args):
    failures = []
    for target in range(args.max + 1):
        wit, computed, ok = _checked_witness(target)
        if not ok:
            failures.append({"N": target, "family": wit.family,
                             "word": str(wit.word), "i_computed": computed,
                             "max_quotient": max(wit.quotients)})
    payload = {"max": args.max, "checked": args.max + 1,
               "failures": failures}
    failure = None
    if failures:
        first = failures[0]
        failure = (f"{len(failures)} of {args.max + 1} targets, first "
                   f"{first['N']}: witness {first['word']} computes "
                   f"{first['i_computed']}, max quotient "
                   f"{first['max_quotient']}")
    return _verdict(payload, args,
                    f"{args.max + 1} targets, {len(failures)} failures",
                    failure)


def _cmd_cover(args):
    limit = args.max
    # bit k of reach[v]: family k's parameterization reaches v; the
    # sporadic values share one more bit, so a gap is a 0
    bits = {fam: 1 << k for k, fam in enumerate(_COVER_FAMILIES)}
    reach = bytearray(limit + 1)
    for fam, bit in bits.items():
        for v in value_set_members(fam, limit):
            reach[v] |= bit
    for v, fam in _SPORADIC_VALUES.items():
        bits[fam] = 1 << len(_COVER_FAMILIES)
        if v <= limit:
            reach[v] |= bits[fam]
    # every value where reach disagrees with decompose, with the family
    # decompose gives; one without a bit disagrees with every reach
    odd = []
    for v in range(limit + 1):
        fam = decompose(v).family
        if reach[v] != bits.get(fam, 0x100):
            odd.append((v, fam))
    gaps = [v for v, _ in odd if not reach[v]]
    identities = {f: all(bool(reach[v] & bits[f]) == (fam == f)
                         for v, fam in odd)
                  for f in _COVER_FAMILIES}
    payload = {"max": limit, "gaps": gaps, "identities": identities}
    failure = None
    if odd:
        v, fam = odd[0]
        reached = [f for f in _COVER_FAMILIES if reach[v] & bits[f]]
        failure = (f"{len(gaps)} gaps, first mismatch {v}: decompose gives "
                   f"{fam}, the parameterizations give "
                   f"{', '.join(reached) or 'none'}")
    return _verdict(payload, args,
                    f"values 0..{limit}, {len(gaps)} gaps, identities "
                    + ("all hold" if all(identities.values()) else "violated"),
                    failure)


def _cmd_tables(args):
    regenerated = regenerate_tables()
    reference = load_reference_pairs()
    mismatches = []
    for key in sorted(set(regenerated) | set(reference)):
        got = regenerated.get(key)
        want = reference.get(key)
        if got is not want:
            mismatches.append({"pair": list(key),
                               "regenerated": got.name if got else None,
                               "reference": want.name if want else None})
    payload = {"pairs": len(reference), "regenerated": len(regenerated),
               "mismatches": mismatches}
    failure = None
    if mismatches:
        first = mismatches[0]
        failure = (f"{len(mismatches)} mismatches, first pair "
                   f"{first['pair']}: regenerated {first['regenerated']}, "
                   f"reference {first['reference']}")
    return _verdict(payload, args,
                    f"{len(regenerated)} regenerated vs "
                    f"{len(reference)} reference pairs, "
                    f"{len(mismatches)} mismatches",
                    failure)


def _cmd_cf(args):
    try:
        quotients = tuple(int(part) for part in args.quotients.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, "
                         f"got {args.quotients!r}")
    value = continued_fraction_value(quotients)
    payload = {"quotients": list(quotients),
               "value": f"{value.numerator}/{value.denominator}",
               "numerator": value.numerator,
               "denominator": value.denominator,
               "max_quotient": max(quotients)}
    _print(payload, args,
           f"[{args.quotients}] = {value.numerator}/{value.denominator}")
    return OK


def _cmd_fixtures(args):
    rows = load_reference_words(args.file)
    failures = []
    for text, expected in rows:
        try:
            w = parse_word(text)
        except WordError as exc:
            row = f"{text},{expected}"
            raise ValueError(f"fixture row {row!r}: {exc}") from None
        computed = self_intersection(w)
        if computed != expected:
            failures.append({"word": text, "expected": expected,
                             "computed": computed})
    payload = {"file": args.file or "packaged", "rows": len(rows),
               "failures": failures}
    failure = None
    if not rows:
        failure = f"no fixture rows in {payload['file']}"
    elif failures:
        first = failures[0]
        failure = (f"{len(failures)} of {len(rows)} rows, first "
                   f"{first['word']}: expected {first['expected']}, "
                   f"computed {first['computed']}")
    return _verdict(payload, args,
                    f"{len(rows)} rows, {len(failures)} failures", failure)


def _bound(text):
    """An upper bound of a verification range: an integer, at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``pantsarc`` command."""
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json",
                     help="output format (default json)")

    parser = _Parser(prog="pantsarc",
                     description="arcs on a pair of pants: words, "
                                 "self-intersection numbers, censuses")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("validate", parents=[fmt],
                       help="check a word against the grammar")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("intersect", parents=[fmt],
                       help="minimal self-intersection number of a word")
    p.add_argument("word")
    p.add_argument("--trace", action="store_true",
                   help="include the full pair grid")
    p.set_defaults(handler=_cmd_intersect)

    p = sub.add_parser("enumerate", parents=[fmt],
                       help="all words of one word length")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("census", parents=[fmt],
                       help="distribution of i over one word length")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--histogram", metavar="FILE",
                   help="also write the histogram as CSV")
    p.add_argument("--jobs", type=int,
                   help="worker processes (default: all cores)")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("family", parents=[fmt],
                       help="one member of a named word family")
    p.add_argument("--id", required=True, choices=sorted(FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--verify", action="store_true",
                   help="check the closed form against the computed i")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("witness", parents=[fmt],
                       help="a 2-low-lying arc with a given i")
    p.add_argument("N", type=int)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("spectrum", parents=[fmt],
                       help="verify witnesses for every i up to a bound")
    p.add_argument("--max", type=_bound, required=True)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("cover", parents=[fmt],
                       help="verify the family value sets cover all i")
    p.add_argument("--max", type=_bound, required=True)
    p.set_defaults(handler=_cmd_cover)

    p = sub.add_parser("tables", parents=[fmt],
                       help="verify the packaged segment-pair tables")
    p.add_argument("--verify", action="store_true", required=True)
    p.set_defaults(handler=_cmd_tables)

    p = sub.add_parser("cf", parents=[fmt],
                       help="evaluate a continued fraction")
    p.add_argument("quotients", metavar="a1,a2,...")
    p.set_defaults(handler=_cmd_cf)

    p = sub.add_parser("fixtures", parents=[fmt],
                       help="verify packaged or external word fixtures")
    p.add_argument("--file", help="fixture CSV (default: packaged table)")
    p.set_defaults(handler=_cmd_fixtures)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` reads every command line with."""
    return build_parser()


def main(argv=None) -> int:
    """Entry point; returns the process exit code.  It may be called
    any number of times in one process; the parser is built on the
    first call only."""
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
