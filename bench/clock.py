"""Timing that does not move with a busy neighbour on a shared core.

A core shared with other tenants runs pure Python up to twice as slow
while a neighbour is busy, in spells from milliseconds to a minute.
While a ``Sampled`` block runs, a timer interrupts it every
SAMPLE_EVERY_S to time a small fixed calibration chunk, which tells how
fast the core ran during the block; the chunks' own time is taken out of
the block's, and ``scaled`` is the block's time at the reference chunk
time.
"""

import signal
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.01
MIN_SAMPLES = 4  # a shorter block is also given chunks timed right after it
# Times are reported at this chunk time: about the chunk's fastest on an
# idle core of the 2-vCPU Xeon (family 6, model 143) VM the benchmark was
# tuned on.
REFERENCE_CHUNK_S = 0.108e-3


def _calibration_chunk():
    """Pure-Python work of the library's kinds (dict, big-int, str, sort
    and Fraction operations), about a tenth of a millisecond."""
    d, acc = {}, 0
    for i in range(200):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) ^ (i << (i % 61))
        acc += len(str(i))
    acc += len(sorted(d.items()))
    f = Fraction(1, 3)
    for i in range(4):
        f = f * Fraction(i + 1, i + 2) + 1
    return acc + f.denominator % 2


def _timed_chunk(times):
    start = time.perf_counter()
    _calibration_chunk()
    times.append(time.perf_counter() - start)


class Sampled:
    """``with Sampled() as t: ...``; then ``t.seconds`` (chunks taken
    out), ``t.chunk`` (their mean time) and ``t.scaled``."""

    def __enter__(self):
        self.chunks = []
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda _sig, _frame: _timed_chunk(self.chunks))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = elapsed - sum(self.chunks)
        while len(self.chunks) < MIN_SAMPLES:
            _timed_chunk(self.chunks)
        self.chunk = sum(self.chunks) / len(self.chunks)
        return False

    @property
    def scaled(self) -> float:
        return self.seconds * REFERENCE_CHUNK_S / self.chunk
