"""A fixed piece of pure-Python work that measures how fast the host runs
right now.

On a shared host the same item can take 1.5 to 1.9 times longer while a
neighbour loads the physical core, and such spells last seconds to
minutes, long enough to move the median of a whole run.  Timing this
reference next to each item and scaling the item's time by
``NOMINAL_S / reference time`` removes most of that drift: the work mixes
Fraction arithmetic, permutation tuples and dict lookups, as hopfs3
does, so it slows down in step with the items.

A verify-all pass lasts seconds, long enough for the host's speed to
change inside it, so ``Probe`` also times one pass every ``PERIOD_S``
seconds while an item runs, from a SIGALRM handler.  The probe's own
time (about 1.5 % of the item) is subtracted from the item's.

The reference is the median of a few short passes, so that one pass
slowed by an interrupt does not rescale an item.  The work and
``NOMINAL_S`` never change; a change to either rescales every time the
benchmark has reported.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time
from fractions import Fraction

# seconds one pass takes on an uncontended core of a 2-vCPU Intel Xeon
# host (Python 3.11.7)
NOMINAL_S = 0.0065
PASSES = 3
PERIOD_S = 0.5

_PERMS = [tuple(p) for p in itertools.permutations(range(5))]


def _work() -> int:
    total = Fraction(0)
    x = Fraction(1, 3)
    for i in range(1, 500):
        total += x * Fraction(i, i + 7)
    memo: dict = {}
    hits = 0
    for a in _PERMS:
        for b in _PERMS[:16]:
            memo[(a, b)] = tuple(a[b[i]] for i in range(5))
            hits += len(memo.get((b, a), ()))
    return hits + total.denominator % 7


def reference() -> float:
    """Median seconds of PASSES passes of the fixed work, run now."""
    times = []
    for _ in range(PASSES):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Probe:
    """While active, times one pass every PERIOD_S seconds into
    ``samples``.  Only the main thread can receive the signal."""

    def __enter__(self):
        self.samples: list = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, _signum, _frame):
        t0 = time.perf_counter()
        _work()
        self.samples.append(time.perf_counter() - t0)
