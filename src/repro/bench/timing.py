"""Shared benchmark timing: repeat/min semantics.

Every benchmark measures with the same discipline so numbers are
comparable across files and runs:

* **warmup** iterations run first and are discarded — they absorb lazy
  imports, allocator growth, cache population and branch warm-up, which
  otherwise leak into the first measured round differently per file.
* Each of ``rounds`` measured rounds times ``iterations`` back-to-back
  calls and records the mean per-call time for the round.
* The reported figure is the **minimum** across rounds: for a
  deterministic workload the minimum is the least-noise estimate of the
  code's cost; means and maxima mostly measure the machine's background
  load (Chen & Revels, "Robust benchmarking in noisy environments",
  2016).  The median is kept for benchmarks with few long rounds.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Timing", "measure"]


@dataclass(frozen=True)
class Timing:
    """Per-call timing statistics from one :func:`measure` run."""

    #: Minimum mean-per-call seconds across rounds — the headline number.
    best: float
    #: Mean per-call seconds across all measured rounds.
    mean: float
    #: Maximum mean-per-call seconds across rounds.
    worst: float
    #: Median mean-per-call seconds across rounds.
    median: float
    rounds: int
    iterations: int
    #: Total measured wall time (excludes warmup).
    total: float


def measure(
    fn: Callable[..., Any],
    *args: Any,
    rounds: int = 5,
    iterations: int = 1,
    warmup: int = 1,
    **kwargs: Any,
) -> tuple[Any, Timing]:
    """Time ``fn(*args, **kwargs)`` with repeat/min semantics.

    Returns ``(result, timing)`` where ``result`` is the return value of
    the final call (so benchmarks can assert on the computed output
    without invoking ``fn`` again outside the timer).
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    result: Any = None
    for _ in range(warmup):
        result = fn(*args, **kwargs)
    per_round: list[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(iterations):
            result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        per_round.append(elapsed / iterations)
    timing = Timing(
        best=min(per_round),
        mean=sum(per_round) / len(per_round),
        worst=max(per_round),
        median=statistics.median(per_round),
        rounds=rounds,
        iterations=iterations,
        total=sum(t * iterations for t in per_round),
    )
    return result, timing
