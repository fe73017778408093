"""A fixed reference unit that says how fast the host is right now.

The sandbox shares its cores: for seconds to minutes on end the same
work takes 0.7-1.7x its usual time, depending on what the neighbours do.
The guest's own CPU-time accounting slows with the wall clock and steal
time stays near zero, so no clock inside the run can see it, and a 15 s
timed phase lands in a handful of such spells, so no statistic of its
own samples removes it: ten runs of identical code spread 13-31 % on raw
wall time, best-of-R included.  What does track the spells is a unit of
work measured *inside* the run, between the timed calls, small, fixed
and sharing no code with the engine.  The timings the benchmark gates
are divided by the run's *host factor*, this unit's time over its
nominal time, which cut the spread of the query timings between runs to
a half or a third on every workload it was wide on (README,
"Estimators", has the table with the alternatives).  ``setup_s`` is
divided by the same factor: among runs of one hour that does not steady
it (a 2 s build sits inside one spell), but between two sets of runs 20
minutes apart it shrank the gap from 9-28 % to 0-14 %.

The unit is half interpreter work (a bounded heap, what the engine's
glue does) and half NumPy arithmetic (a distance kernel, what its
kernels do), timed as one: weighting the halves 1:1 or 2:1 changed the
spread by less than ten runs can resolve, and either half alone was
worse.  The NumPy half streams 8 MB in 512-row chunks, more than the
core's own cache holds, so it reads from the shared cache or memory on
every pass.  That way it feels the neighbours' memory traffic as the
engine's reads do (a cache-resident kernel tracked ``serial-easy`` and
``serial-hard`` 1.5 points of spread worse over a 40-minute log), and
it depends little on what the engine call before it evicted: right
after a query that streams 11 MB the unit runs 6 % slower than right
after itself, so an engine change that evicts more can flatter itself
by a few percent at most.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: Seconds the unit takes between engine calls on the sizing host in its
#: usual state (the median host factor of 80 runs); only fixes the
#: scale, so that a factor of 1.0 reads as "a usual minute".
NOMINAL_SECONDS = 0.0075

#: Rows of the NumPy half's block and of the chunks it is streamed in.
BLOCK_ROWS = 8192
CHUNK_ROWS = 512

#: Measured work between two samples during a timed round.
SAMPLE_EVERY_SECONDS = 0.1


class Reference:
    """The reference unit.  Its buffers (9.5 MB) are allocated once, so
    sampling adds a constant, not a transient, to the peak RSS."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # Drawn as float32: a float64 transient would raise the peak RSS.
        self._block = rng.standard_normal((BLOCK_ROWS, 256), dtype=np.float32)
        self._query = rng.standard_normal(256)
        self._diff = np.empty((CHUNK_ROWS, 256), dtype=np.float64)
        self._sums = np.empty(CHUNK_ROWS, dtype=np.float64)

    def sample(self) -> float:
        """The unit's time over its nominal time, measured once."""
        started = time.perf_counter()
        heap: list = []
        for i in range(5000):
            heapq.heappush(heap, ((i * 7919) % 10007, i))
            if len(heap) > 64:
                heapq.heappop(heap)
        for start in range(0, BLOCK_ROWS, CHUNK_ROWS):
            np.subtract(self._block[start : start + CHUNK_ROWS], self._query, out=self._diff)
            np.einsum("ij,ij->i", self._diff, self._diff, out=self._sums)
        return (time.perf_counter() - started) / NOMINAL_SECONDS

    def samples(self, count: int) -> list:
        return [self.sample() for _ in range(count)]


def factor(samples: list) -> float:
    """The host factor of a run: 1.0 = nominal speed, 2.0 = half of it.

    The lower quartile, matching the lower quartile the latency
    estimator takes over rounds: contention only ever adds time, in
    spikes a low quantile ignores, while the very fastest state is too
    rare for a minimum to find in every run.
    """
    return float(np.percentile(samples, 25))
