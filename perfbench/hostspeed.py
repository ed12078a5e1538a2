"""Host-speed scaling of the benchmark's times.

The reference machine is shared: the same pure-Python work runs up to twice
as slow from one stretch of seconds to the next, and a slow stretch can last
longer than a whole run.  Taking the fastest of several passes cannot undo a
stretch that covers the run, so every end-to-end time is scaled by the
host's speed measured right next to it.

The speed is measured by ``probe``: a fixed task of pure-Python Fraction and
dict work, the same kind of work valwb does, that never calls valwb.  A time
``wall`` measured while the probe takes ``ref`` seconds is reported as

    wall * REFERENCE_S / ref

that is, in seconds at the speed at which the probe takes REFERENCE_S (about
its fastest time on the reference machine).  A change to valwb moves the
scaled time exactly as it moves the wall time; the probe's own cost does not
depend on valwb.

* A short request is timed right after a probe (``timed``).
* A long section (a set-up, a selftest call) is sampled by ``Sampler``,
  which runs the probe every INTERVAL_S from a SIGALRM handler and scales
  the section's wall time, less the probes' own time, by their mean.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.45e-3
INTERVAL_S = 0.02

_A = [Fraction(i % 7 - 3, 1 + i % 4) for i in range(14)]
_B = [Fraction(2 - i % 5, 1 + i % 3) for i in range(14)]


def _work():
    product = [Fraction(0)] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            product[i + j] += x * y
    table = {}
    for i in range(150):
        table[i % 37] = table.get(i % 37, 0) + i
    return product, table


def probe():
    """Seconds the reference task takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def timed(fn, *args):
    """(result, wall seconds, probe seconds just before)."""
    ref = probe()
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start, ref


def scale(wall, ref):
    return wall * REFERENCE_S / ref


class Sampler:
    """Probe the host every INTERVAL_S while a section runs.

    ``with Sampler() as s: ...`` then ``s.wall_s`` is the section's wall time
    without the probes and ``s.scaled_s`` that time at reference speed.
    """

    def __enter__(self):
        self.refs = [probe()]
        self._start = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _sample(self, signum, frame):
        self.refs.append(probe())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # the first probe ran before the clock started
        self.wall_s = time.perf_counter() - self._start - sum(self.refs[1:])
        self.refs.append(probe())
        self.scaled_s = scale(self.wall_s, statistics.mean(self.refs))
        return False
