"""Per-layer timers that wrap live objects from outside the program.

A :class:`Tracer` replaces a public method on one object instance with a
timed wrapper (an instance attribute shadowing the class method), or
times a block of benchmark code.  Calls nest: each span knows how much of
its time went to the spans it called, so a layer's self time is its total
minus its timed children.  Nothing in ``src/`` is changed;
:meth:`Tracer.unwrap` removes the wrappers again, so the objects can be
pickled into the disk cache like unwrapped ones.

A disabled tracer wraps nothing and times nothing, so untraced passes
run the exact code path the traced ones do, minus the timers.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer"]


class Tracer:
    """Cumulative seconds, self seconds and call counts per span name."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Child time accumulated by each open span, innermost last.
        self._open: list[float] = []
        self._wrapped: list[tuple[object, str]] = []

    def _close(self, name: str, elapsed: float) -> None:
        children = self._open.pop()
        self.seconds[name] += elapsed
        self.self_seconds[name] += elapsed - children
        self.calls[name] += 1
        if self._open:
            self._open[-1] += elapsed

    @contextmanager
    def span(self, name: str):
        """Time a block of benchmark code under ``name``."""
        if not self.enabled:
            yield
            return
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, time.perf_counter() - start)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` (a bound method) under ``name``."""
        if not self.enabled:
            return
        original = getattr(obj, attr)

        def timed(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._close(name, time.perf_counter() - start)

        setattr(obj, attr, timed)
        self._wrapped.append((obj, attr))

    def unwrap(self) -> None:
        """Remove every wrapper, restoring the class methods."""
        for obj, attr in self._wrapped:
            delattr(obj, attr)
        self._wrapped.clear()

    def instrument_simulator(self, sim) -> None:
        """Wrap the simulation layers of a freshly built ``Simulator``.

        The simulator reaches each of these through an attribute lookup
        at call time (``self.transport.recompute_rates()`` and so on),
        so the instance-level wrappers see every call ``run()`` makes.
        """
        self.wrap(sim.engine, "run", "engine.run")
        for method in ("recompute_rates", "advance_to", "add_flow",
                       "pop_completed"):
            self.wrap(sim.transport, method, f"transport.{method}")
        self.wrap(sim.router, "path_for_flow", "routing.path_for_flow")
        self.wrap(sim.router, "note_activity", "routing.note_activity")
        self.wrap(sim.collector, "observe_transfer",
                  "collector.observe_transfer")
        self.wrap(sim.collector, "finalize", "collector.finalize")
        self.wrap(sim.link_loads, "utilization_matrix",
                  "linkloads.utilization_matrix")
