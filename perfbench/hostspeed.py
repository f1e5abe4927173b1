"""Host speed, sampled with a fixed pure-Python loop next to the queries.

On a shared host the speed of a core drifts by about 20% over seconds to
minutes, and the same pass of the same code drifts with it.  `sample`
times a loop that never changes and never touches the library; scaling
a measured time by `CAL_REF_S / median(samples)` gives the time the work
would take on a host where the loop takes `CAL_REF_S`.  Library code is
not in the loop, so a change to the library moves the scaled time as
much as the raw one, while the host's drift cancels.

`Sampler` takes samples on a wall-clock timer while library code runs,
and keeps the time it spent so that `now()` excludes it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

CAL_REF_S = 0.003   # the loop's time on the reference host, seconds
LOOPS = 30_000      # about 2-3 ms on a 2-vCPU Xeon VM with Python 3.11
INTERVAL_S = 0.1    # timer period: about 3% of the time goes to samples


def sample() -> float:
    """Seconds one run of the calibration loop takes now.

    A plain interpreter loop of small-integer arithmetic: of the loops
    tried (this one; Jacobi symbols, gcds, dicts and Fractions; big-integer
    products), its time tracked the passes' times most closely.
    """
    t0 = perf_counter()
    x = 0
    for i in range(LOOPS):
        x = (x * 31 + i) % 1000003
    return perf_counter() - t0


def scale(samples: list) -> float:
    """Factor from measured seconds to reference-host seconds."""
    return CAL_REF_S / statistics.median(samples) if samples else 1.0


class Sampler:
    """Samples host speed every INTERVAL_S of wall time, once started."""

    def __init__(self) -> None:
        self.samples: list = []
        self.spent = 0.0        # wall seconds spent sampling

    def now(self) -> float:
        """perf_counter() minus the time spent sampling."""
        return perf_counter() - self.spent

    def sample(self) -> None:
        t0 = perf_counter()
        self.samples.append(sample())
        self.spent += perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> list:
        """The samples since the last take."""
        taken, self.samples = self.samples, []
        return taken
