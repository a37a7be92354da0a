"""Timing summaries and in-memory spans for the benchmark."""

from __future__ import annotations

import gzip
import json
from array import array
from statistics import quantiles
from time import perf_counter_ns


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With fewer than 110
    samples that percentile lies below the 90th; the 90th percentile,
    interpolated between samples, is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2:
        return ordered[0], 100.0, n
    if n < 110:
        return quantiles(ordered, n=10, method="inclusive")[-1], 90.0, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


class Tracer:
    """Spans recorded around calls into the library, kept in memory.

    A span has a name ``<layer>.<call>``, a start and an end from
    ``perf_counter_ns``, the index of the span that caused it (-1 for
    the span of a whole request) and a request id, the index of the
    input being worked on.  Nothing is written until ``write``.
    """

    def __init__(self):
        self._names = []
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._request = array("q")

    def __len__(self):
        return len(self._end)

    def open(self, name: str, request: int, parent: int = -1) -> int:
        idx = len(self._end)
        self._names.append(name)
        self._parent.append(parent)
        self._request.append(request)
        self._end.append(0)
        self._start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> int:
        """End the span; returns its duration in ns."""
        end = perf_counter_ns()
        self._end[idx] = end
        return end - self._start[idx]

    def self_ns(self) -> dict:
        """Span name -> (summed self time in ns, number of spans).

        Self time is a span's duration minus the durations of its
        children.
        """
        dur = [e - s for s, e in zip(self._start, self._end)]
        child = [0] * len(dur)
        for idx, parent in enumerate(self._parent):
            if parent >= 0:
                child[parent] += dur[idx]
        out = {}
        for idx, name in enumerate(self._names):
            total, count = out.get(name, (0, 0))
            out[name] = (total + dur[idx] - child[idx], count + 1)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as handle:
            for idx, name in enumerate(self._names):
                handle.write(json.dumps({
                    "id": idx, "name": name,
                    "start_ns": self._start[idx], "end_ns": self._end[idx],
                    "parent": self._parent[idx],
                    "request": self._request[idx]}) + "\n")
