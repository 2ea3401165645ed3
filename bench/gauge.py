"""A fixed slice of interpreter work that gauges how fast the machine runs now.

The benchmark's host is shared. A neighbour on the same physical core can
make every instruction of this process 1.5 to 2 times slower, for seconds
or for minutes at a time; a longer run or a median within a run does not
remove that. So while the benchmark times anything, a timer signal runs a
fixed piece of pure-Python work of the kinds trustvet does (tokenizing with
a regular expression, dict and set traffic, a breadth-first walk, a sort,
float arithmetic) every INTERVAL_S of wall-clock time and records how long
it took. The gauge lives here, so no change to trustvet can alter it.

The readings are spread evenly over the timed stretch, long operations
included, so their mean says how much slower than the reference machine
(on which the gauge takes GAUGE_S) this one ran meanwhile. The benchmark
divides its times by that factor and reports them on the reference
machine's scale, with the wall-clock times printed beside them. The time
the handler itself takes is subtracted from the operation it interrupted.
A set-up interpreter, which runs in a process of its own, reads the gauge
itself right after timing its import.
"""

from __future__ import annotations

import gc
import re
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

GAUGE_S = 0.001  # the gauge's time on the reference machine
INTERVAL_S = 0.025  # wall-clock time between readings
TRIM = 0.1  # share of readings left out at each end when averaging

_WORD = re.compile(r"[A-Za-z_]\w*|\d+|\S")
_TEXT = "\n".join(
    f"    v{i % 12} = v{i * 7 % 12} * {i % 9} - total; "
    f"if (v{i % 5} > {i % 50}) {{ memcpy(dst, src, v{i % 3}); }}"
    for i in range(60)
)
_NODES = 400


def _work() -> float:
    counts: dict[str, int] = {}
    for token in _WORD.findall(_TEXT):
        counts[token] = counts.get(token, 0) + 1
    successors = {i: ((i * 7 + 3) % _NODES, (i * 13 + 1) % _NODES, (i + 1) % _NODES) for i in range(_NODES)}
    depth = {0: 0}
    frontier = [0]
    while frontier:
        following = []
        for node in frontier:
            for nxt in successors[node]:
                if nxt not in depth:
                    depth[nxt] = depth[node] + 1
                    following.append(nxt)
        frontier = following
    ranked = sorted(((count, token) for token, count in counts.items()), reverse=True)
    total = 0.0
    for rank, (count, _) in enumerate(ranked):
        total += count / (rank + 1.0) ** 0.5
    return total + len(depth)


def reading() -> float:
    """Seconds the gauge takes now. The cyclic garbage collector is held
    off meanwhile, so that a collection of the program's own heap is
    neither read as a slow machine nor subtracted from the operation that
    owes it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Sampler:
    """Takes a reading every INTERVAL_S while active, from SIGALRM."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.spent = 0.0  # seconds spent in the handler so far

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        self.readings.append(reading())
        self.spent += perf_counter() - start

    @contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def scaled(seconds: float, readings: list[float]) -> float:
    """seconds on the reference machine's scale, given the readings taken
    around and during the work. Their mean is taken with the highest and
    lowest TRIM share left out: a reading that a preempted core stalled
    for several milliseconds would otherwise move the mean more than the
    stall moved the operation."""
    ordered = sorted(readings)
    cut = int(len(ordered) * TRIM)
    return seconds * GAUGE_S / statistics.fmean(ordered[cut:len(ordered) - cut])
