"""Per-process resource profiling: RSS/CPU sampling, GC pauses, phases.

The paper can say *where* cluster time goes because every machine
reports SNMP counters alongside its event logs; this module gives each
campaign worker the equivalent self-measurement.  A
:class:`ResourceProfiler` samples resident-set size and CPU time on a
background thread (``/proc/self`` where available, the stdlib
``resource`` module as the fallback), times garbage-collection pauses
through ``gc.callbacks``, and records named wall-clock **phases**
(spawn, import, dataset-load, compute, merge) that the campaign
timeline renders as a per-worker Gantt lane.

Phase boundaries that predate the profiler — process spawn and
interpreter/import startup — are reconstructed from the kernel's
process-creation timestamp (:func:`process_create_time`), so the
timeline accounts for time spent before any Python code of ours ran.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from contextlib import contextmanager
from typing import Iterator

try:  # pragma: no cover - always present on Linux/macOS
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    _resource = None  # type: ignore[assignment]

__all__ = [
    "ResourceProfiler",
    "read_rss_bytes",
    "read_cpu_seconds",
    "process_create_time",
    "PHASE_SPAWN",
    "PHASE_IMPORT",
    "PHASE_WAIT",
    "PHASE_CLAIM",
    "PHASE_LEASE_WAIT",
    "PHASE_DATASET",
    "PHASE_COMPUTE",
    "PHASE_MERGE",
]

#: Canonical phase names used by the campaign timeline.
PHASE_SPAWN = "spawn"
PHASE_IMPORT = "import"
PHASE_WAIT = "wait"
#: Work-queue scheduler phases (:mod:`repro.experiments.scheduler`):
#: lease acquisition and idle-while-all-units-leased.
PHASE_CLAIM = "claim"
PHASE_LEASE_WAIT = "lease-wait"
PHASE_DATASET = "dataset-load"
PHASE_COMPUTE = "compute"
PHASE_MERGE = "merge"

#: Default sampling cadence, seconds.  Coarse enough to be invisible in
#: profiles, fine enough to catch per-phase RSS peaks.
DEFAULT_INTERVAL = 0.05


def _sysconf(name: str, default: float) -> float:
    try:
        value = os.sysconf(name)
    except (AttributeError, ValueError, OSError):
        return default
    return float(value) if value > 0 else default


_PAGE_SIZE = _sysconf("SC_PAGE_SIZE", 4096.0)
_CLK_TCK = _sysconf("SC_CLK_TCK", 100.0)


def read_rss_bytes() -> int | None:
    """Current resident-set size in bytes (``None`` if unmeasurable).

    Prefers ``/proc/self/statm`` (current RSS); falls back to
    ``resource.getrusage`` whose ``ru_maxrss`` is the *peak* RSS — still
    useful for the peak statistic the profiler reports.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            return int(int(handle.read().split()[1]) * _PAGE_SIZE)
    except (OSError, ValueError, IndexError):
        pass
    if _resource is not None:
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        # Linux reports kilobytes, macOS bytes; kilobytes is the common
        # case and over-reporting by 1024x on macOS would be obvious.
        return int(usage.ru_maxrss) * 1024
    return None


def read_cpu_seconds() -> float:
    """User + system CPU seconds consumed by this process."""
    times = os.times()
    return times.user + times.system


def process_create_time() -> float | None:
    """Wall-clock epoch when this process was created (Linux only).

    Field 22 of ``/proc/self/stat`` is the process start time in clock
    ticks since boot; subtracting it from ``/proc/uptime`` gives the
    process age, hence its creation timestamp.  Returns ``None`` when
    ``/proc`` is unavailable, in which case spawn and import time
    collapse into one phase.
    """
    try:
        with open("/proc/self/stat", "r", encoding="ascii") as handle:
            stat = handle.read()
        # comm (field 2) may contain spaces; split after its closing ')'.
        fields = stat.rsplit(")", 1)[1].split()
        starttime_ticks = float(fields[19])  # field 22 overall
        with open("/proc/uptime", "r", encoding="ascii") as handle:
            uptime = float(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None
    age = uptime - starttime_ticks / _CLK_TCK
    return time.time() - age


class ResourceProfiler:
    """Samples process resources and records named wall-clock phases.

    Usage::

        profiler = ResourceProfiler()
        profiler.start()
        with profiler.phase("dataset-load"):
            dataset = build_dataset(config)
        profiler.stop()
        record = profiler.profile()

    ``profile()`` is a plain JSON-friendly dict: peak/last RSS, CPU
    seconds, GC collection count and total pause, and the phase list
    with per-phase CPU and GC deltas.  The profiler is designed to ride
    along a worker process: start/stop cost is two thread operations,
    and sampling touches nothing the simulation's RNG streams see, so
    profiled and unprofiled runs stay bit-identical.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        if interval < 0:
            raise ValueError("interval must be non-negative")
        self.interval = interval
        self.pid = os.getpid()
        self._samples = 0
        self._peak_rss = 0
        self._last_rss = 0
        self._cpu_start = 0.0
        self._cpu_seconds = 0.0
        self._wall_start = 0.0
        self._gc_pauses = 0.0
        self._gc_collections = 0
        self._gc_started: float | None = None
        self._phases: list[dict] = []
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._running = False

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "ResourceProfiler":
        """Begin sampling; idempotent."""
        if self._running:
            return self
        self._running = True
        self._wall_start = time.time()
        self._cpu_start = read_cpu_seconds()
        self._sample()
        gc.callbacks.append(self._gc_callback)
        if self.interval > 0:
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._sampler, name="repro-resource-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> "ResourceProfiler":
        """Stop sampling and settle the CPU total; idempotent."""
        if not self._running:
            return self
        self._running = False
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        try:
            gc.callbacks.remove(self._gc_callback)
        except ValueError:  # pragma: no cover - already removed
            pass
        self._cpu_seconds = read_cpu_seconds() - self._cpu_start
        self._sample()
        return self

    def __enter__(self) -> "ResourceProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------ sampling

    def _sampler(self) -> None:
        while not self._stop_event.wait(self.interval):
            self._sample()

    def _sample(self) -> None:
        rss = read_rss_bytes()
        if rss is None:
            return
        self._samples += 1
        self._last_rss = rss
        if rss > self._peak_rss:
            self._peak_rss = rss

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif phase == "stop" and self._gc_started is not None:
            self._gc_pauses += time.perf_counter() - self._gc_started
            self._gc_collections += 1
            self._gc_started = None

    # ------------------------------------------------------------ phases

    @contextmanager
    def phase(self, name: str) -> Iterator[dict]:
        """Record the body as one named phase with resource deltas."""
        start = time.time()
        cpu_before = read_cpu_seconds()
        gc_pause_before = self._gc_pauses
        record = {"name": name, "start": start}
        try:
            yield record
        finally:
            self._sample()
            record.update(
                duration=time.time() - start,
                cpu_seconds=read_cpu_seconds() - cpu_before,
                gc_pause_seconds=self._gc_pauses - gc_pause_before,
                rss_bytes=self._last_rss,
            )
            self._phases.append(record)

    def add_phase(self, name: str, start: float, duration: float, **extra) -> dict:
        """Record a phase measured externally (e.g. spawn, queue wait)."""
        record = {"name": name, "start": start, "duration": max(0.0, duration)}
        record.update(extra)
        self._phases.append(record)
        return record

    def add_startup_phases(self, submitted_at: float | None) -> None:
        """Reconstruct what happened before this profiler existed.

        ``submitted_at`` is the parent's wall-clock timestamp when it
        handed the work over.  If the kernel says this process was
        created *after* that, the gap splits into ``spawn`` (process
        creation) and ``import`` (interpreter startup + imports +
        payload unpickle).  Otherwise — a reused pool worker or an
        in-process run — the gap is queue ``wait``.
        """
        if submitted_at is None:
            return
        now = self._wall_start or time.time()
        gap = now - submitted_at
        if gap <= 0:
            return
        created = process_create_time()
        if created is not None and created >= submitted_at:
            self.add_phase(PHASE_SPAWN, submitted_at, created - submitted_at)
            self.add_phase(PHASE_IMPORT, created, now - created)
        else:
            self.add_phase(PHASE_WAIT, submitted_at, gap)

    # ------------------------------------------------------------ output

    def profile(self) -> dict:
        """JSON-friendly resource record for the worker report."""
        return {
            "pid": self.pid,
            "interval": self.interval,
            "samples": self._samples,
            "peak_rss_bytes": self._peak_rss,
            "last_rss_bytes": self._last_rss,
            "cpu_seconds": (
                self._cpu_seconds
                if not self._running
                else read_cpu_seconds() - self._cpu_start
            ),
            "gc": {
                "collections": self._gc_collections,
                "pause_seconds": self._gc_pauses,
            },
            "phases": sorted(self._phases, key=lambda p: p["start"]),
        }
