"""Host speed, read from a fixed reference task run between measured calls.

The shared host this benchmark was tuned on switches every few seconds
between fast and slow phases, and a phase can last a whole run; the same call
takes up to 1.7 times as long in a slow one.  The reference task, a
pure-Python loop plus the SVD of a fixed matrix (the two kinds of work vibox
does), slows down with it.  Times are therefore reported at a fixed reference
speed, the speed at which the task takes REF_S: a measured time t, with the
task taking r around it, counts as t * REF_S / r.
"""

import statistics
import time

LOOPS = 10_000
SVD_N = 80
REF_S = 2.5e-3  # the task's time at the reference speed (2-3.5 ms on a 2.1 GHz Xeon)
EVERY_S = 0.1  # least spacing of the task between measured calls

_matrix = []


def loop_s(loops=LOOPS) -> float:
    """Seconds for a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def reference_s() -> float:
    """Seconds for the reference task: loop_s() and the SVD of a fixed
    SVD_N x SVD_N matrix."""
    import numpy as np  # here, so that a set-up measurement pays numpy's import itself

    if not _matrix:
        _matrix.append(np.random.default_rng(0).standard_normal((SVD_N, SVD_N)))
    t0 = time.perf_counter()
    np.linalg.svd(_matrix[0])
    return loop_s() + time.perf_counter() - t0


class Probes:
    """Reference-task times taken at most every EVERY_S between calls.

    ``mark()`` before a call names the probe taken last; ``scale(mark)``
    after the run gives the factor REF_S / r for a call with that mark, r
    being the median of the two probes before it and the two after it.
    """

    def __init__(self):
        self.times = [reference_s()]
        self._last = time.perf_counter()

    def mark(self) -> int:
        if time.perf_counter() - self._last >= EVERY_S:
            self.times.append(reference_s())
            self._last = time.perf_counter()
        return len(self.times) - 1

    def close(self):
        """Take the probe that follows the last call."""
        self.times.append(reference_s())

    def scale(self, mark) -> float:
        return REF_S / statistics.median(self.times[max(0, mark - 1):mark + 3])
