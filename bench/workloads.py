"""The benchmark's workloads, their correctness gates and layer probes.

engine-short  words of 4..40 symbols plus the packaged fixture words.
              Fixed per-call costs (parsing, endpoint items) are a large
              share of each word's time, so front-end and per-call
              changes show here, and a sub-quadratic pricing kernel must
              not lose here, below its crossover length.
engine-long   witness words for N spread log-uniformly over [1e4, 1e5],
              each with the spectrum check, and random words of
              300..1000 symbols.  Pair pricing is over 99% of the time;
              witness words have long chains, random words short ones.
census        one census length through the CLI, with one job and with
              one job per core.  Only this workload runs the incremental
              depth-first search and the worker pool.

Each workload repeats a fixed set of inputs in passes until its time is
spent, and every input's time is the fastest of its repeats.  The
machine is shared: the speed of a core swings by a quarter from one
second to the next, so slower repeats measure the neighbours, not the
code.  Every output is checked after the timed section; a failed check
counts against the run and a run that checked nothing fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, zip_longest
from statistics import median
from time import perf_counter, perf_counter_ns

import gen
from measure import Tracer, tail


@dataclass(frozen=True)
class Size:
    """Input sizes of one benchmark scale."""

    short_lengths: range        # engine-short word lengths, each equally often
    short_per_length: int
    trace_every: int            # every k-th engine-short word is also traced
    witness_range: tuple        # engine-long targets N, log-uniform
    witnesses: int
    long_range: tuple           # engine-long random word lengths, log-uniform
    long_words: int
    census_length: int
    census_probe_length: int    # census layer probe of the engine workloads
    census_sample: int          # census-length words priced one by one
    process_reps: int           # fresh processes per start-up probe


SIZES = {
    "full": Size(range(4, 41), 40, 10, (10**4, 10**5), 24, (300, 1000), 6,
                 10, 10, 200, 15),
    "tiny": Size(range(4, 13), 3, 4, (100, 1000), 4, (30, 60), 2,
                 8, 6, 20, 2),
}

# sha256 of the stdout bytes of `pantsarc census --length L`
CENSUS_SHA256 = {
    8: "21f902541b4a9c13a3d23dcdefa4971fe9d6834167a0a5fc5910527e21e9cf9f",
    10: "d7dfcccba2945bedf5cca96b833e3c21395ede8a2c37843ea069f34e4119bcf5",
}

# traced passes stop once this many spans are held in memory
SPAN_LIMIT = 300_000


class Context:
    """One benchmark run: its inputs, its checks and what it reports."""

    def __init__(self, lib, size, rng, seconds, traced, nproc):
        self.lib = lib
        self.size = size
        self.rng = rng
        self.seconds = seconds
        self.tracer = Tracer() if traced else None
        self.nproc = nproc
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.metrics = {}
        self.lines = []
        self.setup_probe = None     # one fresh-process set-up, in seconds
        self.setup_times = []

    @property
    def correct(self) -> bool:
        """Every checked output was right, and at least one was checked."""
        return self.failed == 0 and self.attempted > 0

    def count(self, ops: int, bad: int, what: str) -> None:
        """Count ``ops`` checked operations, ``bad`` of them wrong."""
        self.attempted += ops
        self.failed += bad
        if bad and len(self.failures) < 20:
            self.failures.append(what)

    def outcome(self, ok: bool, what: str, ops: int = 1) -> None:
        """Count ``ops`` operations whose output was checked as ``ok``."""
        self.count(ops, 0 if ok else ops, what)

    def passes(self):
        """The passes of an untraced workload's timed section.

        The set-up probes run between passes as they fall due, evenly
        over the run, so that their fastest is taken from the whole run
        rather than from one second of it; a shared machine's speed
        changes from second to second.  Probes still due follow the
        last pass.
        """
        reps = self.size.process_reps
        start = perf_counter()

        def probe_until(due):
            while len(self.setup_times) < due:
                self.setup_times.append(self.setup_probe())

        for k in passes(self.seconds):
            yield k
            probe_until(min(reps, int((perf_counter() - start) / self.seconds * reps)))
        probe_until(reps)

    def metric(self, name, value, unit):
        self.metrics[name] = (value, unit)

    def report(self, name, value, unit, note=""):
        """A named figure for the human-readable part of the output."""
        self.lines.append((name, value, unit, note))


def passes(seconds):
    """Pass numbers until the next pass would end after the deadline.

    The loop body is one pass; its duration predicts the next one.  At
    least one pass always runs.
    """
    deadline = perf_counter() + seconds
    k = 0
    while True:
        t = perf_counter()
        yield k
        k += 1
        now = perf_counter()
        if now + (now - t) > deadline:
            return


def _pairs(segments):
    return segments * (segments - 1) // 2


def _timed_pass(fn, inputs, best, got):
    """Apply ``fn`` to every input, keeping each output in ``got`` and
    each input's fastest time in ``best``; returns the pass's wall ns."""
    clock = perf_counter_ns
    start = clock()
    for k, x in enumerate(inputs):
        t = clock()
        got[k] = fn(x)
        dt = clock() - t
        if dt < best[k]:
            best[k] = dt
    return clock() - start


class _Results:
    """Outputs of repeated passes over one fixed list of inputs.

    The first pass's outputs are kept; later passes are compared with
    them outside the timed section, one mismatch per operation.
    """

    def __init__(self, n):
        self.first = None
        self.passes = 0
        self.mismatched = [0] * n

    def add(self, got):
        self.passes += 1
        if self.first is None:
            self.first = list(got)
            return
        for k, (a, b) in enumerate(zip(self.first, got)):
            if a != b:
                self.mismatched[k] += 1

    def settle(self, ctx, verified, label):
        """Count every operation; ``verified[k]`` says input k's first
        output passed the gate."""
        for k, ok in enumerate(verified):
            bad = self.passes if not ok else self.mismatched[k]
            ctx.count(self.passes, bad, f"{label} {k}: {bad} wrong outputs")


def _invariant(lib, text, value):
    """Whether the word prices to ``value`` under inverse and relabel."""
    w = lib.parse_word(text)
    return (value == lib.self_intersection(lib.inverse(w))
            == lib.self_intersection(lib.relabel(w)))


def _latency_metrics(ctx, label, best_ns, what):
    """Median and tail over inputs of their fastest times."""
    ms = [t / 1e6 for t in best_ns]
    p50 = median(ms)
    tail_ms, pct, n = tail(ms)
    ctx.metric("latency_ms_p50", p50, "ms")
    ctx.metric("latency_ms_tail", tail_ms, "ms")
    ctx.report(f"{label}_ms_p50", p50, "ms", f"median of {n} {what}")
    ctx.report(f"{label}_ms_tail", tail_ms, "ms", f"p{pct:.1f} of {n} {what}")


# --- engine-short -----------------------------------------------------

def _price_pass_traced(lib, tracer, texts, got):
    parse, items, price = lib.parse_word, lib.endpoint_items, lib.self_intersection
    open_, close = tracer.open, tracer.close
    start = perf_counter_ns()
    for k, text in enumerate(texts):
        r = open_("bench.word", k)
        s = open_("words.parse_word", k, r)
        w = parse(text)
        close(s)
        s = open_("planar.endpoint_items", k, r)
        items(w.start, w.letters, w.end)
        close(s)
        s = open_("intersect.self_intersection", k, r)
        got[k] = price(w)
        close(s)
        close(r)
    return perf_counter_ns() - start


def _trace_pass_traced(lib, tracer, texts, got):
    parse, trace = lib.parse_word, lib.trace
    open_, close = tracer.open, tracer.close
    for k, text in enumerate(texts):
        r = open_("bench.trace_word", k)
        s = open_("words.parse_word", k, r)
        w = parse(text)
        close(s)
        s = open_("intersect.trace", k, r)
        got[k] = trace(w).total
        close(s)
        close(r)


def engine_short(ctx):
    lib, size = ctx.lib, ctx.size
    texts = [gen.random_word(ctx.rng, n)
             for n in size.short_lengths for _ in range(size.short_per_length)]
    fixtures = lib.load_reference_words()
    expected = [None] * len(texts) + [want for _, want in fixtures]
    texts += [text for text, _ in fixtures]
    sliced = texts[::size.trace_every]
    parse, price, trace = lib.parse_word, lib.self_intersection, lib.trace
    got, got_t = [0] * len(texts), [0] * len(sliced)
    priced, traced = _Results(len(texts)), _Results(len(sliced))

    if ctx.tracer is None:
        best, best_t = [math.inf] * len(texts), [math.inf] * len(sliced)
        for _ in ctx.passes():
            _timed_pass(lambda text: price(parse(text)), texts, best, got)
            priced.add(got)
            _timed_pass(lambda text: trace(parse(text)).total, sliced, best_t, got_t)
            traced.add(got_t)
        rate = len(texts) / sum(best) * 1e9
        rate_t = len(sliced) / sum(best_t) * 1e9
        ctx.metric("rate_per_s", rate, "1/s")
        ctx.metric("rate2_per_s", rate_t, "1/s")
        ctx.report("short_words_per_s", rate, "1/s",
                   f"parse_word + self_intersection, {len(texts)} words, "
                   f"fastest of {priced.passes} passes each")
        ctx.report("trace_words_per_s", rate_t, "1/s",
                   f"parse_word + trace, {len(sliced)} words")
        _latency_metrics(ctx, "word", best, "words")
    else:
        overhead = word_layers(ctx, texts, sliced, priced, traced, ctx.seconds)
        ctx.metric("bench.tracing_overhead", overhead, "ratio")
        chain_layers(ctx, [parse(t) for t in texts], [parse(t) for t in sliced])
        witness_layer(ctx, gen.witness_targets(ctx.rng, *size.witness_range,
                                               size.witnesses))
        census_layers(ctx, size.census_probe_length, 1.0)

    priced.settle(ctx, [value == want if want is not None
                        else _invariant(lib, text, value)
                        for text, value, want in zip(texts, priced.first, expected)],
                  "word")
    # a traced word must total what its plain count gave
    traced.settle(ctx, [total == value for total, value
                        in zip(traced.first, priced.first[::size.trace_every])],
                  "trace")


def word_layers(ctx, texts, sliced, priced, traced, seconds):
    """Per-layer costs of parsing, endpoint items, counting and tracing.

    Untraced and traced passes over the same words alternate, so the
    difference between them is the tracing overhead, which is returned.
    A traced pass also calls ``endpoint_items`` on its own, which the
    untraced pass does not; its span time is taken out before comparing.
    """
    lib, tracer = ctx.lib, ctx.tracer
    parse, price = lib.parse_word, lib.self_intersection
    best = [math.inf] * len(texts)
    got, got_t = [0] * len(texts), [0] * len(sliced)
    plain_ns = traced_ns = n = 0
    for _ in passes(seconds):
        plain_ns += _timed_pass(lambda text: price(parse(text)), texts, best, got)
        priced.add(got)
        traced_ns += _price_pass_traced(lib, tracer, texts, got)
        priced.add(got)
        _trace_pass_traced(lib, tracer, sliced, got_t)
        traced.add(got_t)
        n += 1
        if len(tracer) > SPAN_LIMIT:
            break
    spent = tracer.self_ns()
    items_ns = spent["planar.endpoint_items"][0]
    symbols = n * (sum(map(len, texts)) + sum(map(len, sliced)))
    segments = n * sum(len(t) - 1 for t in texts)
    pairs = n * sum(_pairs(len(t) - 1) for t in texts)
    trace_pairs = n * sum(_pairs(len(t) - 1) for t in sliced)
    ctx.metric("words.parse_ns_per_symbol",
               spent["words.parse_word"][0] / symbols, "ns")
    ctx.metric("planar.endpoint_items_ns_per_segment", items_ns / segments, "ns")
    ctx.metric("intersect.count_ns_per_pair",
               (spent["intersect.self_intersection"][0] - items_ns) / pairs, "ns")
    ctx.metric("intersect.trace_ns_per_pair",
               spent["intersect.trace"][0] / trace_pairs, "ns")
    return (traced_ns - items_ns) / plain_ns - 1


def chain_layers(ctx, words, sliced):
    """Exact pair accounting: the share of undecidable pairs over all
    words, and chain sizes over the traced slice."""
    lib = ctx.lib
    dec = lib.DECISIONS
    # for each segment shape s, the shapes u of earlier segments that
    # make the pair (u, s) undecidable from endpoints alone
    undecidable_with = [[u for u in range(64) if dec[u << 6 | s] == 2]
                        for s in range(64)]
    undecidable = total = 0
    for w in words:
        fr, to = lib.endpoint_items(w.start, w.letters, w.end)
        seen = [0] * 64
        for f, t in zip(fr, to):
            s = f << 3 | t
            undecidable += sum(seen[u] for u in undecidable_with[s])
            seen[s] += 1
        total += _pairs(len(fr))
    members = chains = longest = 0
    for w in sliced:
        fr, to = lib.endpoint_items(w.start, w.letters, w.end)
        cells = lib.trace(w).cells
        T = len(fr)
        for p in range(T - 1):
            sp = (fr[p] << 3 | to[p]) << 6
            for q in range(p + 1, T):
                if dec[sp | fr[q] << 3 | to[q]] != 2:
                    continue
                members += 1
                if cells[(p + 1, q + 1)] != "X":
                    chains += 1
                    found = lib.resolve_chain(w, p + 1, q + 1)
                    longest = max(longest, len(found.members))
    ctx.outcome(total > 0 and chains > 0, "no pairs or chains to account")
    ctx.metric("intersect.undecidable_share", undecidable / total, "ratio")
    ctx.metric("intersect.chain_members_mean", members / max(chains, 1), "pairs")
    ctx.metric("intersect.longest_chain", longest, "pairs")


def witness_layer(ctx, targets):
    """Time ``witness`` alone, without pricing the word it returns."""
    lib, tracer = ctx.lib, ctx.tracer
    spent = 0
    for k, target in enumerate(targets):
        s = tracer.open("lowlying.witness", k)
        wit = lib.witness(target)
        spent += tracer.close(s)
        ctx.outcome(wit.target == target and max(wit.quotients) <= 2,
                    f"witness({target}) is {wit.target}, {wit.quotients}")
    ctx.metric("lowlying.witness_us", spent / len(targets) / 1e3, "us")


def census_layers(ctx, length, seconds):
    """Time the eight census tasks one by one, then the pooled census,
    repeated for ``seconds``; each keeps its fastest repeat.

    Each task also runs untraced, right before or after its traced run,
    so that both see the same moment of a shared machine; returns the
    tracing overhead, the summed fastest traced task times over the
    summed fastest untraced ones, minus 1.
    """
    lib, tracer = ctx.lib, ctx.tracer
    tasks = lib.census_tasks()
    task_ns = [math.inf] * len(tasks)
    plain_ns = [math.inf] * len(tasks)
    parallel_ns = math.inf

    for n in passes(seconds):
        hist, plain = Counter(), Counter()
        for k, (start, first) in enumerate(tasks):
            # the first run of a task in a process is the slowest, so
            # the untraced run goes first only on every other pass
            for traced in (n % 2 == 1, n % 2 == 0):
                if traced:
                    s = tracer.open("census.task", k)
                    hist.update(lib.census_task(length, start, first))
                    task_ns[k] = min(task_ns[k], tracer.close(s))
                else:
                    t = perf_counter_ns()
                    plain.update(lib.census_task(length, start, first))
                    plain_ns[k] = min(plain_ns[k], perf_counter_ns() - t)
        r = tracer.open("bench.census_parallel", n)
        s = tracer.open("census.census", n, r)
        report = lib.census(length, jobs=ctx.nproc)
        parallel_ns = min(parallel_ns, tracer.close(s))
        tracer.close(r)
        ctx.outcome(plain == hist and dict(hist) == report.histogram
                    and report.word_count == lib.count_words(length),
                    f"census tasks at length {length} disagree with census()", 3)
    ctx.metric("census.task_s_max", max(task_ns) / 1e9, "s")
    ctx.metric("census.task_s_mean", sum(task_ns) / len(task_ns) / 1e9, "s")
    ctx.metric("census.parallel_efficiency",
               sum(task_ns) / (ctx.nproc * parallel_ns), "ratio")
    return sum(task_ns) / sum(plain_ns) - 1


# --- engine-long ------------------------------------------------------

def _long_pass_traced(lib, tracer, inputs, got, units):
    parse, items, price = lib.parse_word, lib.endpoint_items, lib.self_intersection
    open_, close = tracer.open, tracer.close
    start = perf_counter_ns()
    for k, x in enumerate(inputs):
        if isinstance(x, int):
            r = open_("bench.witness", k)
            s = open_("lowlying.witness", k, r)
            wit = lib.witness(x)
            close(s)
            w = wit.word
        else:
            r = open_("bench.long_word", k)
            s = open_("words.parse_word", k, r)
            w = parse(x)
            close(s)
            units["symbols"] += len(x)
        s = open_("planar.endpoint_items", k, r)
        items(w.start, w.letters, w.end)
        units["items_ns"] += close(s)
        s = open_("intersect.self_intersection", k, r)
        i = price(w)
        close(s)
        close(r)
        got[k] = (i, max(wit.quotients)) if isinstance(x, int) else i
        units["segments"] += len(w.letters) + 1
        units["pairs"] += _pairs(len(w.letters) + 1)
    return perf_counter_ns() - start


def engine_long(ctx):
    lib, size, rng = ctx.lib, ctx.size, ctx.rng
    lengths = gen.log_strata(rng, *size.long_range, size.long_words)
    texts = [gen.random_word(rng, n) for n in lengths]
    targets = gen.witness_targets(rng, *size.witness_range, size.witnesses)
    # witness targets (int) and random words (text), interleaved
    inputs = [x for x in chain.from_iterable(zip_longest(targets, texts))
              if x is not None]
    words = [lib.witness(x).word if isinstance(x, int) else lib.parse_word(x)
             for x in inputs]
    pairs = [_pairs(len(w.letters) + 1) for w in words]
    parse, price, witness = lib.parse_word, lib.self_intersection, lib.witness

    def op(x):
        if isinstance(x, int):
            wit = witness(x)
            return price(wit.word), max(wit.quotients)
        return price(parse(x))

    got = [None] * len(inputs)
    results = _Results(len(inputs))
    if ctx.tracer is None:
        best = [math.inf] * len(inputs)
        for _ in ctx.passes():
            _timed_pass(op, inputs, best, got)
            results.add(got)
        best_w = [t for t, x in zip(best, inputs) if isinstance(x, int)]
        rate = sum(pairs) / sum(best) * 1e9
        rate_w = len(best_w) / sum(best_w) * 1e9
        ctx.metric("rate_per_s", rate, "1/s")
        ctx.metric("rate2_per_s", rate_w, "1/s")
        ctx.report("long_pairs_per_s", rate, "1/s",
                   f"segment pairs answered, {len(inputs)} words, "
                   f"fastest of {results.passes} passes each")
        ctx.report("witnesses_per_s", rate_w, "1/s",
                   "witness(N) + spectrum check")
        _latency_metrics(ctx, "witness", best_w, "witnesses")
    else:
        tracer = ctx.tracer
        units = Counter()
        plain_ns = traced_ns = 0
        for _ in passes(ctx.seconds):
            plain_ns += _timed_pass(op, inputs, [math.inf] * len(inputs), got)
            results.add(got)
            traced_ns += _long_pass_traced(lib, tracer, inputs, got, units)
            results.add(got)
        by_name = tracer.self_ns()
        ctx.metric("words.parse_ns_per_symbol",
                   by_name["words.parse_word"][0] / units["symbols"], "ns")
        ctx.metric("planar.endpoint_items_ns_per_segment",
                   units["items_ns"] / units["segments"], "ns")
        ctx.metric("intersect.count_ns_per_pair",
                   (by_name["intersect.self_intersection"][0] - units["items_ns"])
                   / units["pairs"], "ns")
        wit_ns, wit_n = by_name["lowlying.witness"]
        ctx.metric("lowlying.witness_us", wit_ns / wit_n / 1e3, "us")
        ctx.metric("bench.tracing_overhead",
                   (traced_ns - units["items_ns"]) / plain_ns - 1, "ratio")
        # the traced slice: the shortest random word and smallest witness
        sliced = [min((w for w, x in zip(words, inputs) if not isinstance(x, int)),
                      key=lambda w: len(w.letters)),
                  words[inputs.index(min(targets))]]
        trace_ns = trace_pairs = 0
        for k, w in enumerate(sliced):
            s = tracer.open("intersect.trace", k)
            total = lib.trace(w).total
            trace_ns += tracer.close(s)
            trace_pairs += _pairs(len(w.letters) + 1)
            ctx.outcome(total == price(w), f"trace of {w} disagrees")
        ctx.metric("intersect.trace_ns_per_pair", trace_ns / trace_pairs, "ns")
        chain_layers(ctx, words, sliced)
        census_layers(ctx, size.census_probe_length, 1.0)

    results.settle(ctx, [value == (x, value[1]) and value[1] <= 2
                         if isinstance(x, int) else _invariant(lib, x, value)
                         for x, value in zip(inputs, results.first)],
                   "engine-long input")


# --- census -----------------------------------------------------------

def _cli(lib, argv):
    """Run the CLI in-process; returns (seconds, exit code, stdout bytes)."""
    buf = io.StringIO()
    t = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = lib.cli_main(argv)
    return perf_counter() - t, code, buf.getvalue().encode()


def census(ctx):
    lib, size = ctx.lib, ctx.size
    length = size.census_length
    words = lib.count_words(length)

    def argv(jobs):
        return ["census", "--length", str(length), "--jobs", str(jobs)]

    sample = [gen.random_word(ctx.rng, length) for _ in range(size.census_sample)]
    outputs = []
    if ctx.tracer is None:
        # the pooled census is the command's default and varies more
        # from run to run, so it gets two samples per serial one
        serial, pooled = [], []
        for _ in ctx.passes():
            for jobs, times in ((1, serial), (ctx.nproc, pooled),
                                (ctx.nproc, pooled)):
                seconds, *output = _cli(lib, argv(jobs))
                times.append(seconds)
                outputs.append(output)
        serial, pooled = min(serial), min(pooled)
        runs = len(outputs) // 3
        ctx.metric("rate_per_s", words / serial, "1/s")
        ctx.metric("rate2_per_s", words / pooled, "1/s")
        ctx.metric("latency_ms_p50", pooled * 1e3, "ms")
        ctx.metric("latency_ms_tail", serial * 1e3, "ms")
        ctx.report("census_words_per_s", words / serial, "1/s",
                   f"--jobs 1, {words} words, fastest of {runs} runs")
        ctx.report("census_words_per_s_par", words / pooled, "1/s",
                   f"--jobs {ctx.nproc}, fastest of {2 * runs} runs")
        ctx.report("census_ms_p50", pooled * 1e3, "ms",
                   f"--jobs {ctx.nproc}, the command's default")
        ctx.report("census_ms_tail", serial * 1e3, "ms",
                   "--jobs 1, the slower of the two commands")
    else:
        overhead = census_layers(ctx, length, 0.6 * ctx.seconds)
        ctx.metric("bench.tracing_overhead", overhead, "ratio")
        outputs.append(_cli(lib, argv(ctx.nproc))[1:])
        priced, traced = _Results(len(sample)), _Results(len(sample))
        word_layers(ctx, sample, sample, priced, traced, 1.0)
        sample_words = [lib.parse_word(t) for t in sample]
        chain_layers(ctx, sample_words, sample_words[:20])
        witness_layer(ctx, gen.witness_targets(ctx.rng, *size.witness_range,
                                               size.witnesses))
        priced.settle(ctx, [_invariant(lib, text, value)
                            for text, value in zip(sample, priced.first)],
                      "census word")
        traced.settle(ctx, [a == b for a, b in zip(traced.first, priced.first)],
                      "census trace")

    # every census report must be the pinned bytes, and agree with the
    # closed-form word count and the packaged extremes
    low, high = lib.load_reference_minmax()[length]
    found = set()
    for code, out in outputs:
        ok = (code == 0
              and hashlib.sha256(out).hexdigest() == CENSUS_SHA256[length])
        if ok:
            report = json.loads(out)
            ok = (report["word_count"] == words
                  and (report["min_i"], report["max_i"]) == (low, high))
            found = {i for i, _ in report["histogram"]}
        ctx.outcome(ok, f"census --length {length} output differs from the pin")
    # words priced one by one must land on values the census found
    for text in sample:
        i = lib.self_intersection(lib.parse_word(text))
        ctx.outcome(i in found, f"{text} prices {i}, absent from the census")


WORKLOADS = {
    "engine-short": engine_short,
    "engine-long": engine_long,
    "census": census,
}
