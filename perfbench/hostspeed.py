"""Time a fixed reference kernel throughout each pass, to scale out host speed.

On a shared host the same pass can take 40% longer for a minute at a
time while neighbours load the machine, and the speed swings by a
quarter from one 20 ms slice to the next; a run's median cannot average
such slow spells away.  While a pass is timed, a ``SIGALRM`` every
``INTERVAL_S`` runs this small kernel once, so the kernel samples the
host's speed across the whole pass, at the moments the pass ran, and
it runs once more just before and just after the pass.  The handler's
own time is taken out of the pass's wall time, and
``scaled(wall_s, ref_s)`` expresses the pass at the speed where the
kernel takes ``NOMINAL_S``: a pass run while the host was slow is scaled
down by as much as the kernel was slowed.  Set-up times are scaled by
kernel runs made right after set-up.  A workload whose passes
keep every core busy is not scaled (``Workload.host_scaled``).

The kernel mixes the two kinds of work the program does, interpreted
Python over dicts and integers, and numpy array passes.  It touches
nothing in ``src/``, so no change to the program moves it.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

__all__ = ["NOMINAL_S", "SAMPLER", "scaled", "setup_kernel_s"]

#: Seconds one kernel run takes on an idle 2-vCPU Xeon VM (Python 3.11,
#: numpy 2.4): the host speed a scaled time is expressed at.
NOMINAL_S = 0.0025
#: Wall seconds between two kernel runs inside a timed pass.
INTERVAL_S = 0.1
#: Kernel runs that time the host just after set-up.
SETUP_RUNS = 40


def scaled(wall_s: float, ref_s: float) -> float:
    """``wall_s`` as it would read on a host where the kernel takes
    ``NOMINAL_S``, given that it took ``ref_s`` around this pass."""
    return wall_s * NOMINAL_S / ref_s


class HostSampler:
    """Runs the kernel on a wall-clock timer while a pass is timed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(50_000)
        self._table = {key: key * 7 for key in range(5_000)}
        self.reset()

    def reset(self) -> None:
        """Forget the samples of the previous pass."""
        self.kernel_s: list[float] = []
        #: Wall seconds the timer handler took, kernel and all.
        self.handler_s = 0.0

    def sample(self) -> None:
        """Run the kernel once and record its time."""
        start = time.perf_counter()
        table = self._table
        total = 0
        for key in range(15_000):
            total += table[key % 5_000] % 7
        np.sort(self._values)
        np.cumsum(self._values)
        float(self._values @ self._values)
        self.kernel_s.append(time.perf_counter() - start)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.handler_s += time.perf_counter() - start

    @contextmanager
    def active(self):
        """Sample every ``INTERVAL_S`` of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mean_kernel_s(self) -> float:
        return sum(self.kernel_s) / len(self.kernel_s)


#: The one sampler of a run; ``workloads.Stopwatch`` activates it.
SAMPLER = HostSampler()


def setup_kernel_s() -> float:
    """Mean kernel time over ``SETUP_RUNS`` runs made right after set-up,
    which scales the set-up time as the passes' kernel runs scale them."""
    SAMPLER.reset()
    for _ in range(SETUP_RUNS):
        SAMPLER.sample()
    return SAMPLER.mean_kernel_s()
