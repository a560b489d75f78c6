"""A fixed reference computation that measures how fast the host runs
pure-Python code at the moment.

The benchmark's host is a shared VM whose speed drifts by up to 2x over
seconds to minutes, and whole runs can fall into a slow stretch.  The probe
does the kind of work `qcurrent` does (dicts keyed by sorted tuples,
`Fraction` products and sums, fraction-free integer elimination) but uses
only the standard library, so a change to `qcurrent` cannot change the
probe's time: the probe slows down only when the host does.  `run.py` runs
it every half second, also in the middle of a unit, and divides each unit's
time by the probe times around and inside it.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

# a round figure for the probe's time on a 2-vCPU Xeon VM with CPython
# 3.11.7, where it took 0.03 to 0.07 s as the host's load varied; a unit
# time divided by the probe time around it and multiplied by this reads in
# seconds on a host that runs the probe in this time
REFERENCE_S = 0.05

_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(10) for j in range(10)}
_MATRIX = [[(r * r * 37 + c * c * c * 11 + r * c * 5 + c) % 29 - 14 for c in range(14)]
           for r in range(14)]


def _work() -> tuple:
    # a commutative "word" product with rational coefficients
    product: dict = {}
    for (i, j), x in _TERMS.items():
        for (k, l), y in _TERMS.items():
            key = tuple(sorted((i, k, j + l)))
            product[key] = product.get(key, 0) + x * y
    # Bareiss fraction-free elimination: the determinant, exactly
    m = [row[:] for row in _MATRIX]
    n, prev = len(m), 1
    for p in range(n - 1):
        if m[p][p] == 0:
            swap = next(r for r in range(p + 1, n) if m[r][p] != 0)
            m[p], m[swap] = m[swap], m[p]
            m[p] = [-v for v in m[p]]
        for r in range(p + 1, n):
            for c in range(p + 1, n):
                m[r][c] = (m[r][c] * m[p][p] - m[r][p] * m[p][c]) // prev
        prev = m[p][p]
    return len(product), sum(product.values()), m[-1][-1]


EXPECTED = _work()


def probe() -> tuple:
    """Run the reference computation once; returns its (start, end) on the
    `perf_counter` clock.  The garbage collector is off meanwhile, so the
    size of the program's heap does not reach into the probe's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        result = _work()
        end = perf_counter()
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise AssertionError(f"speed probe computed {result}, not {EXPECTED}")
    return start, end


class Sampler:
    """Runs the probe once on entry, then `interval` seconds after the end
    of each probe, from a SIGALRM handler, so that it also samples the
    host's speed in the middle of a long unit, and once more on exit.

    The handler runs between two bytecodes of whatever is being timed, so a
    probe lies either wholly inside or wholly outside a timed interval.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.spans: list = []

    def _sample(self, *_signal) -> None:
        self.spans.append(probe())
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.spans.append(probe())

    def net(self, start: float, end: float) -> float:
        """The seconds from `start` to `end`, less the probes run in between."""
        return end - start - sum(e - s for s, e in self.spans
                                 if start <= s and e <= end)

    def scale(self, start: float, end: float) -> float:
        """`net(start, end)` at the reference speed: divided by the mean time
        of the probes in between, the last probe before and the first probe
        after, times REFERENCE_S."""
        inside = [(s, e) for s, e in self.spans if start <= s and e <= end]
        before = [(s, e) for s, e in self.spans if e < start][-1:]
        after = [(s, e) for s, e in self.spans if s > end][:1]
        near = before + inside + after
        mean = sum(e - s for s, e in near) / len(near)
        return self.net(start, end) * REFERENCE_S / mean
