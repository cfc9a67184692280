"""Speed probe: a fixed piece of work timed between and inside samples.

On a shared host other tenants slow everything that runs in a spell, by up
to 2x, for seconds to minutes; a whole run can fall into one.  The probe
runs at most every EVERY_S, at sample boundaries and, in untraced sweep
cells, before each FEC call; its own time is taken out of the sample.  A
sample's time is then divided by how much slower than its reference the
probe ran in and around it.  What the program itself costs passes through
unchanged, since the probe's work never depends on the program.  Raw wall
times are reported beside the scaled ones.

A workload picks the kind of probe that resembles its work: a pure-Python
loop for the sweeps, single-threaded matrix products for training.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

EVERY_S = 0.5  # the least time between two probes
PY_LOOPS = 80_000
BLAS_N, BLAS_REPS = 256, 8
# Each probe's time on an uncontended 2-vCPU Xeon (Python 3.11, numpy 2.4.6,
# OpenBLAS 0.3.31 on one thread): scaled times are the wall times that host
# would have shown.
REF_S = {"python": 0.0046, "blas": 0.0055}


class Probe:
    def __init__(self, kind: str):
        self.kind = kind
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((BLAS_N, BLAS_N))
        self._b = rng.standard_normal((BLAS_N, BLAS_N))
        self.times: list[float] = []  # when each probe ended
        self.seconds: list[float] = []
        self.spent = 0.0  # wall time spent probing

    def _work(self) -> None:
        if self.kind == "python":
            acc = 0
            for i in range(PY_LOOPS):
                acc += i * i % 7
        else:
            c = self._a
            for _ in range(BLAS_REPS):
                c = np.tanh(c @ self._b)

    def tick(self) -> None:
        """Probe, unless the last probe is younger than EVERY_S."""
        start = time.perf_counter()
        if self.times and start - self.times[-1] < EVERY_S:
            return
        self._work()
        end = time.perf_counter()
        self.times.append(end)
        self.seconds.append(end - start)
        self.spent += end - start

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than its reference the probe ran over an interval:
        the mean over the last probe before it, those inside it and the
        first after it."""
        first = max(bisect.bisect_right(self.times, start) - 1, 0)
        last = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        picks = self.seconds[first:last + 1]
        if not picks:
            return 1.0
        return sum(picks) / len(picks) / REF_S[self.kind]
