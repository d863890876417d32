"""``BENCH_*.json`` reading and writing.

Schema (version 2)::

    {
      "schema_version": 2,
      "host": {"platform": ..., "python": ..., "numpy": ...,
               "cpu_count": ..., "timestamp": ...},
      "benchmarks": [
        {"id": "<pytest nodeid>", "wall_seconds": <best per-call s>,
         "mean_seconds": ..., "median_seconds": ..., "rounds": ...,
         "iterations": ...},
        ...
      ],
      ...                                # extra keys pass through
    }

``wall_seconds`` is the repeat/min figure from
:func:`repro.bench.timing.measure` — the comparison key.  Version-1
files (plain ``wall_seconds`` per id, no host block) load fine: the
extra statistics are simply absent, so comparisons against historical
baselines keep working.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time
from dataclasses import asdict, dataclass

__all__ = ["BenchResult", "host_metadata", "load_results", "write_results"]

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's timing as stored in a ``BENCH_*.json`` file."""

    id: str
    wall_seconds: float
    mean_seconds: float | None = None
    median_seconds: float | None = None
    rounds: int | None = None
    iterations: int | None = None


def host_metadata() -> dict:
    """Enough about this machine to judge result comparability."""
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def write_results(
    path: str | pathlib.Path,
    results: list[BenchResult],
    extra: dict | None = None,
) -> dict:
    """Write a schema-v2 results file; returns the payload written."""
    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "host": host_metadata(),
        "benchmarks": [
            {k: v for k, v in asdict(result).items() if v is not None}
            for result in sorted(results, key=lambda r: r.id)
        ],
    }
    if extra:
        payload.update(extra)
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def load_results(path: str | pathlib.Path) -> dict[str, BenchResult]:
    """Load any schema version into ``{id: BenchResult}``."""
    raw = json.loads(pathlib.Path(path).read_text())
    if "benchmarks" not in raw:
        raise ValueError(f"{path}: not a BENCH results file (no 'benchmarks' key)")
    results: dict[str, BenchResult] = {}
    for entry in raw["benchmarks"]:
        results[entry["id"]] = BenchResult(
            id=entry["id"],
            wall_seconds=float(entry["wall_seconds"]),
            mean_seconds=entry.get("mean_seconds"),
            median_seconds=entry.get("median_seconds"),
            rounds=entry.get("rounds"),
            iterations=entry.get("iterations"),
        )
    return results
