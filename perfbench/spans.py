"""In-memory spans and counters for the traced run, and the timing statistics
the benchmark reports.

A span is one call into a layer: its name, start, end and the span that was
open when it began (its parent).  Spans are kept in memory and reduced when
the run ends.  A layer's self time is its span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# Percentiles considered for the tail of a timing, highest first, in per mille.
TAIL_PER_MILLE = (999, 990, 900)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span in Tracer.spans


class Tracer:
    """Records nested spans and named counts.

    Counts are attributed to the outermost open span (the phase), so that
    setup and stepping keep separate tallies.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), math.nan, parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = self.clock()

    def count(self, name: str, n: int = 1):
        if not self._open:
            raise RuntimeError(f"count '{name}' outside any span")
        self.counts[self._open[0]][name] += n

    def phases(self) -> list["Phase"]:
        """One summary per outermost span, in the order they began."""
        spans = self.spans
        root = list(range(len(spans)))
        covered = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s.parent is not None:
                root[i] = root[s.parent]
                covered[s.parent] += s.end - s.start
        phases = {}
        for i, s in enumerate(spans):
            if s.parent is None:
                phases[i] = Phase(s.name, s.end - s.start,
                                  defaultdict(float), Counter(),
                                  Counter(self.counts[i]))
        for i, s in enumerate(spans):
            ph = phases[root[i]]
            ph.self_s[s.name] += (s.end - s.start) - covered[i]
            ph.calls[s.name] += 1
        return list(phases.values())


@dataclass
class Phase:
    """Self time and call count per span name under one outermost span,
    and the counts recorded while it was open."""

    name: str
    wall_s: float
    self_s: dict
    calls: Counter
    counts: Counter


def tail_percentile(n: int) -> float | None:
    """Highest reported percentile with at least ten samples beyond it."""
    for pm in TAIL_PER_MILLE:
        if n * (1000 - pm) >= TAIL_MIN_BEYOND * 1000:
            return pm / 10
    return None


def timing_summary(samples) -> dict:
    """Median, tail percentile and sample count of a list of durations."""
    n = len(samples)
    p = tail_percentile(n)
    out = {"median": statistics.median(samples), "n": n, "tail_pct": p,
           "tail": None}
    if p is not None:
        # n * (1 - p/100) >= 10 samples lie above this cut
        out["tail"] = statistics.quantiles(samples, n=1000, method="inclusive")[
            round(p * 10) - 1]
    return out
