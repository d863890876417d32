"""Fluid (rate-based) transport with max-min fair bandwidth sharing.

Flows are modelled as fluid: between simulation events every flow moves
bytes at a constant rate, and rates are the max-min fair allocation over
the directed links of each flow's path (progressive filling).  This is
the standard abstraction for TCP-dominated datacenter traffic at second
granularity — the paper's cluster runs "near ubiquitous ... TCP" (§8),
whose long-run behaviour approximates fair sharing at the bottleneck.

A cheaper ``bottleneck`` mode allocates each flow ``capacity / count`` on
its most contended link without redistributing leftovers; it serves as an
ablation and a cross-check on the exact allocator.

All per-flow state lives in preallocated numpy arrays indexed by slot so
that the per-event work — integrating rates into link-load bins and
re-running the water-filling — is vectorised.  The water-filling itself
lives in :mod:`repro.simulation.waterfill`, which provides the four
``impl`` choices surfaced as ``SimulationConfig.transport_impl``:
``reference`` (the round-based ground-truth loop), ``vectorized`` (the
bit-identical adaptive heap/CSR replay), ``csr`` (the batched CSR
elimination pinned regardless of active-set size), and ``incremental``
(the paper-scale allocator that re-solves only the affected bottleneck
subgraph on each arrival/departure — tolerance-based, see
:data:`~repro.simulation.waterfill.INCREMENTAL_RTOL`).  Under
``vectorized`` the heap regime's :class:`~repro.simulation.waterfill.MaxMinState`
persists across solves and changes only where the active set does
(``add_flow``, ``_finish``, ``reroute_flow``); the active set's
``(paths, valid)`` view and the CSR regime's incidence arrays are cached
against a flow-set version counter.

Completion scheduling is structure-of-arrays: instead of per-transfer
event objects, the transport keeps a **completion frontier** — the next
:data:`_FRONTIER_DEPTH` completion times, selected with one
``argpartition`` over ``remaining / rate`` and invalidated by a rate
*epoch* bump on each allocation pass.  The engine polls
:meth:`FluidTransport.next_completion_wakeup` as a dynamic time source,
so cancelling/re-scheduling a completion is a version bump, never a
heap tombstone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from ..cluster.topology import ClusterTopology
from .impls import register_transport_impl
from .waterfill import (
    FlowIncidence,
    IncrementalMaxMin,
    MaxMinState,
    bottleneck_rates,
    maxmin_rates_reference,
    maxmin_rates_vectorized,
    uses_csr,
)

__all__ = ["TransferMeta", "Transfer", "FluidTransport", "LoadSink"]

#: Accepted ``impl`` constructor values (mirrored by
#: ``SimulationConfig.transport_impl``; registered in the shared
#: transport-impl registry below).
TRANSPORT_IMPLS = ("vectorized", "reference", "csr", "incremental")

for _impl in TRANSPORT_IMPLS:
    register_transport_impl(_impl, "fluid")
del _impl

#: Completion-frontier depth: how many upcoming completion times are
#: materialised per rate epoch.  Deep enough to absorb a burst of
#: completions inside one rate-update window without a rescan.
_FRONTIER_DEPTH = 64

#: A flow is considered drained when this many bytes remain (absorbs
#: floating-point integration error; far below any real transfer size).
_EPS_BYTES = 0.5
#: Minimum allocated rate (bytes/s), guarding against zero-rate stalls
#: from floating-point cancellation in the water-filling loop.
_MIN_RATE = 1.0


class LoadSink(Protocol):
    """Anything that accumulates per-link byte loads over intervals."""

    def add_interval_bulk(
        self,
        keys: np.ndarray,
        rates: np.ndarray,
        start: float,
        end: float,
        unique_keys: bool = False,
    ) -> None:
        """Integrate ``rates`` (bytes/s) for ``keys`` over ``[start, end)``.

        ``unique_keys=True`` promises ``keys`` has no duplicates, letting
        implementations use a fast accumulation path.
        """


@dataclass(frozen=True)
class TransferMeta:
    """Application context attached to a transfer.

    The instrumentation layer uses this to tag socket events with the
    process/job that produced them — the linkage that lets the paper
    attribute congestion to application phases (§4.2).
    """

    kind: str
    job_id: int | None = None
    phase_index: int | None = None
    vertex_id: int | None = None
    connection_key: tuple | None = None


@dataclass(frozen=True)
class Transfer:
    """A completed transfer (ground truth, before instrumentation)."""

    transfer_id: int
    src: int
    dst: int
    size: float
    start_time: float
    end_time: float
    meta: TransferMeta = field(default=TransferMeta(kind="unknown"))

    @property
    def duration(self) -> float:
        """Wall-clock transfer duration in seconds."""
        return self.end_time - self.start_time

    @property
    def mean_rate(self) -> float:
        """Average achieved rate in bytes/s."""
        duration = self.duration
        return self.size / duration if duration > 0 else float("inf")


class FluidTransport:
    """Shared-bandwidth fluid flow simulator over a cluster topology."""

    #: Family tag used by the simulator dispatch and the validate layer.
    family = "fluid"

    def __init__(
        self,
        topology: ClusterTopology,
        sinks: list[LoadSink] | None = None,
        fairness: str = "maxmin",
        initial_capacity: int = 256,
        impl: str = "vectorized",
    ) -> None:
        if fairness not in ("maxmin", "bottleneck"):
            raise ValueError(f"unknown fairness mode {fairness!r}")
        if impl not in TRANSPORT_IMPLS:
            raise ValueError(f"unknown transport impl {impl!r}")
        self.topology = topology
        self.fairness = fairness
        self.impl = impl
        self.sinks: list[LoadSink] = list(sinks) if sinks else []
        self.capacities = topology.capacities.copy()
        self.num_links = topology.num_links
        self.max_path = 8

        size = max(16, initial_capacity)
        self._paths = np.full((size, self.max_path), -1, dtype=np.int64)
        self._remaining = np.zeros(size, dtype=float)
        self._rates = np.zeros(size, dtype=float)
        self._active = np.zeros(size, dtype=bool)
        self._meta: list[TransferMeta | None] = [None] * size
        self._on_complete: list[Callable[[Transfer], None] | None] = [None] * size
        self._src = np.zeros(size, dtype=np.int64)
        self._dst = np.zeros(size, dtype=np.int64)
        self._sizes = np.zeros(size, dtype=float)
        self._start_times = np.zeros(size, dtype=float)
        self._free_slots: list[int] = list(range(size - 1, -1, -1))

        self.now = 0.0
        self.rates_dirty = False
        #: Bumped whenever the active flow set changes; keys the cached
        #: active view and the CSR regime's incidence arrays.
        self._flows_version = 0
        self._view_version = -1
        self._view: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._incidence_version = -1
        self._incidence: FlowIncidence | None = None
        self._completed_buffer: list[tuple[Transfer, Callable[[Transfer], None] | None]] = []
        self._next_transfer_id = 0
        self.transfers_started = 0
        #: Telemetry: fair-share allocation passes and concurrency peak.
        self.rate_recomputes = 0
        self.peak_active = 0

        #: Slot-indexed heap-regime state (``impl="vectorized"`` only).
        self._heap = MaxMinState(self.capacities, size) if (
            impl == "vectorized" and fairness == "maxmin") else None
        #: Incremental allocator state (``impl="incremental"`` only).
        self._inc: IncrementalMaxMin | None = (
            IncrementalMaxMin(self.capacities, self.num_links)
            if impl == "incremental"
            else None
        )

        #: Rate epoch: bumped by every allocation pass.  The completion
        #: frontier below is valid for exactly one epoch; invalidating it
        #: is this counter bump, replacing per-transfer event cancel.
        self.rates_epoch = 0
        self._frontier_epoch = -1
        self._frontier_times: np.ndarray = np.empty(0)
        self._frontier_slots: np.ndarray = np.empty(0, dtype=np.int64)
        self._frontier_pos = 0
        self._frontier_truncated = False
        #: Slot/time of the earliest completion at the epoch rebuild; the
        #: engine's wakeup source fires once per epoch on this head (the
        #: legacy scheduler's single completion event, minus the heap).
        self._frontier_head_slot = -1
        self._frontier_head_time = 0.0
        self.frontier_rebuilds = 0

    # ---------------------------------------------------------------- slots

    def _grow(self) -> None:
        old = self._paths.shape[0]
        new = old * 2
        self._paths = np.vstack(
            [self._paths, np.full((old, self.max_path), -1, dtype=np.int64)]
        )
        for name in ("_remaining", "_rates", "_src", "_dst", "_sizes", "_start_times"):
            array = getattr(self, name)
            setattr(self, name, np.concatenate([array, np.zeros(old, dtype=array.dtype)]))
        self._active = np.concatenate([self._active, np.zeros(old, dtype=bool)])
        self._meta.extend([None] * old)
        self._on_complete.extend([None] * old)
        self._free_slots.extend(range(new - 1, old - 1, -1))
        if self._heap is not None:
            self._heap.grow(new)

    @property
    def active_count(self) -> int:
        """Number of in-flight flows."""
        return int(self._active.sum())

    # ---------------------------------------------------------------- flows

    def add_flow(
        self,
        src: int,
        dst: int,
        size: float,
        path_links: tuple[int, ...],
        meta: TransferMeta,
        on_complete: Callable[[Transfer], None] | None = None,
    ) -> int:
        """Start a flow at the current time; returns its slot id.

        Zero-length paths (local transfers) are not flows; callers handle
        those without touching the transport.
        """
        if size <= 0:
            raise ValueError("flow size must be positive")
        if not path_links:
            raise ValueError("flow path must cross at least one link")
        if len(path_links) > self.max_path:
            raise ValueError("path exceeds transport's max path length")
        if not self._free_slots:
            self._grow()
        slot = self._free_slots.pop()
        self._paths[slot, :] = -1
        self._paths[slot, : len(path_links)] = path_links
        self._remaining[slot] = size
        self._rates[slot] = 0.0
        self._active[slot] = True
        self._meta[slot] = meta
        self._on_complete[slot] = on_complete
        self._src[slot] = src
        self._dst[slot] = dst
        self._sizes[slot] = size
        self._start_times[slot] = self.now
        if self._heap is not None:
            self._heap.add(slot, self._paths[slot, : len(path_links)].tolist())
        if self._inc is not None:
            self._inc.on_add(slot, path_links)
        self.rates_dirty = True
        self._flows_version += 1
        self.transfers_started += 1
        active = self.transfers_started - self._next_transfer_id
        if active > self.peak_active:
            self.peak_active = active
        return slot

    def reroute_flow(self, slot: int, path_links: tuple[int, ...]) -> None:
        """Move an in-flight flow onto a new path (flowlet switching).

        Bytes already moved were integrated on the old path by the last
        ``advance_to``; callers re-routing mid-epoch must advance the
        transport to the switching instant first so per-link byte
        conservation holds across the change.  The allocator state moves
        the flow to its new links, the flow-set version bumps,
        invalidating the cached active view, and rates are marked dirty
        for the next allocation pass.
        """
        if not 0 <= slot < self._paths.shape[0] or not self._active[slot]:
            raise ValueError(f"slot {slot} has no active flow")
        if not path_links:
            raise ValueError("flow path must cross at least one link")
        if len(path_links) > self.max_path:
            raise ValueError("path exceeds transport's max path length")
        if self._inc is not None:
            self._inc.on_remove(slot)
        self._paths[slot, :] = -1
        self._paths[slot, : len(path_links)] = path_links
        if self._heap is not None:
            self._heap.remove(slot)
            self._heap.add(slot, self._paths[slot, : len(path_links)].tolist())
        if self._inc is not None:
            self._inc.on_add(slot, tuple(path_links))
        self.rates_dirty = True
        self._flows_version += 1

    def _active_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(active_idx, paths, valid)`` for the current flow set.

        ``paths``/``valid`` depend only on active-set membership, not on
        rates or remaining bytes, so the gather is reused across every
        rate integration and allocation pass between flow arrivals and
        completions.
        """
        if self._view_version != self._flows_version or self._view is None:
            active_idx = np.flatnonzero(self._active)
            paths = self._paths[active_idx]
            self._view = (active_idx, paths, paths >= 0)
            self._view_version = self._flows_version
        return self._view

    def advance_to(self, time: float) -> None:
        """Integrate current rates up to ``time`` and complete drained flows."""
        if time < self.now - 1e-9:
            raise ValueError("cannot advance backwards")
        dt = time - self.now
        active_idx, paths, valid = self._active_view()
        if dt > 0 and active_idx.size:
            rates = self._rates[active_idx]
            if self.sinks:
                link_ids = paths[valid]
                per_flow = np.repeat(rates, valid.sum(axis=1))
                link_rates = np.bincount(
                    link_ids, weights=per_flow, minlength=self.num_links
                )
                loaded = np.flatnonzero(link_rates)
                if loaded.size:
                    for sink in self.sinks:
                        sink.add_interval_bulk(
                            loaded, link_rates[loaded], self.now, time,
                            unique_keys=True,
                        )
            self._remaining[active_idx] = np.maximum(
                self._remaining[active_idx] - rates * dt, 0.0
            )
        self.now = max(self.now, time)
        if active_idx.size:
            drained = active_idx[self._remaining[active_idx] <= _EPS_BYTES]
            for slot in drained:
                self._finish(int(slot))

    def _finish(self, slot: int) -> None:
        meta = self._meta[slot]
        assert meta is not None
        transfer = Transfer(
            transfer_id=self._next_transfer_id,
            src=int(self._src[slot]),
            dst=int(self._dst[slot]),
            size=float(self._sizes[slot]),
            start_time=float(self._start_times[slot]),
            end_time=self.now,
            meta=meta,
        )
        self._completed_buffer.append((transfer, self._on_complete[slot]))
        self._next_transfer_id += 1
        if self._heap is not None:
            self._heap.remove(slot)
        if self._inc is not None:
            self._inc.on_remove(slot)
        self._active[slot] = False
        self._rates[slot] = 0.0
        self._meta[slot] = None
        self._on_complete[slot] = None
        self._free_slots.append(slot)
        self.rates_dirty = True
        self._flows_version += 1

    def pop_completed(
        self,
    ) -> list[tuple[Transfer, Callable[[Transfer], None] | None]]:
        """Return and clear (transfer, callback) pairs completed since the
        last call.  The transport never invokes callbacks itself: the
        simulator decides dispatch order."""
        completed = self._completed_buffer
        self._completed_buffer = []
        return completed

    # ---------------------------------------------------------------- rates

    def recompute_rates(self) -> None:
        """Re-run the fair-share allocation for the current active set."""
        self.rate_recomputes += 1
        self.rates_epoch += 1
        active_idx, paths, valid = self._active_view()
        if active_idx.size == 0:
            self.rates_dirty = False
            return
        if self.fairness == "maxmin":
            rates = self._maxmin_rates(active_idx, paths, valid)
        else:
            rates = self._bottleneck_rates(paths, valid)
        self._rates[active_idx] = np.maximum(rates, _MIN_RATE)
        self.rates_dirty = False

    def _flow_incidence(self, paths: np.ndarray, valid: np.ndarray) -> FlowIncidence:
        """CSR incidence arrays for the current active set, version-cached."""
        if (
            self._incidence_version != self._flows_version
            or self._incidence is None
            or self._incidence.paths is not paths
        ):
            self._incidence = FlowIncidence(paths, valid, self.num_links)
            self._incidence_version = self._flows_version
        return self._incidence

    def _maxmin_rates(
        self, active_idx: np.ndarray, paths: np.ndarray, valid: np.ndarray
    ) -> np.ndarray:
        """Max-min fair allocation via the configured allocator.

        All implementations live in :mod:`repro.simulation.waterfill`.
        ``reference``, ``vectorized``, and ``csr`` produce bit-identical
        rates; ``incremental`` re-solves only the affected bottleneck
        subgraph and is equivalent within
        :data:`~repro.simulation.waterfill.INCREMENTAL_RTOL`.  Below the
        CSR threshold ``vectorized`` solves from its persistent state.
        """
        if self._heap is not None and not uses_csr(active_idx.size):
            return self._heap.solve(active_idx, self._paths)
        if self.impl == "reference":
            return maxmin_rates_reference(
                paths, valid, self.capacities, self.num_links
            )
        if self.impl == "incremental":
            assert self._inc is not None
            return self._inc.solve(
                active_idx,
                paths,
                valid,
                incidence=self._flow_incidence(paths, valid),
            )
        return maxmin_rates_vectorized(
            paths,
            valid,
            self.capacities,
            self.num_links,
            incidence=self._flow_incidence(paths, valid),
            regime="csr" if self.impl == "csr" else "auto",
        )

    def _bottleneck_rates(self, paths: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Equal split on each link; flow rate = min share along its path."""
        return bottleneck_rates(paths, valid, self.capacities, self.num_links)

    # ------------------------------------------------------------- frontier

    def _rebuild_frontier(self, *, set_head: bool) -> None:
        """Materialise the next :data:`_FRONTIER_DEPTH` completion times.

        One vectorised pass (``argpartition`` over ``remaining / rate``)
        replaces per-transfer completion events.  Rates are constant
        within an epoch and ``remaining`` is integrated to ``self.now``
        before any query, so absolute completion times computed here stay
        exact for the whole epoch.  ``set_head`` records the epoch head
        for :meth:`next_completion_wakeup`; mid-epoch rebuilds (frontier
        exhausted after a truncation) keep the original head.
        """
        self.frontier_rebuilds += 1
        active_idx = self._active_view()[0]
        if active_idx.size == 0:
            horizons = np.empty(0)
            sel = np.empty(0, dtype=np.int64)
        else:
            rates = self._rates[active_idx]
            remaining = self._remaining[active_idx]
            with np.errstate(divide="ignore"):
                horizons = np.where(rates > 0, remaining / rates, np.inf)
            if horizons.size > _FRONTIER_DEPTH:
                sel = np.argpartition(horizons, _FRONTIER_DEPTH - 1)[:_FRONTIER_DEPTH]
            else:
                sel = np.arange(horizons.size)
            sel = sel[np.argsort(horizons[sel], kind="stable")]
            sel = sel[np.isfinite(horizons[sel])]
        self._frontier_times = self.now + horizons[sel]
        self._frontier_slots = active_idx[sel] if sel.size else sel
        self._frontier_pos = 0
        self._frontier_truncated = active_idx.size > sel.size and bool(
            sel.size == _FRONTIER_DEPTH
        )
        self._frontier_epoch = self.rates_epoch
        if set_head:
            if sel.size:
                self._frontier_head_slot = int(self._frontier_slots[0])
                self._frontier_head_time = float(self._frontier_times[0])
            else:
                self._frontier_head_slot = -1

    def next_completion_time(self) -> float | None:
        """Earliest time an active flow drains at current rates, or ``None``."""
        if self._frontier_epoch != self.rates_epoch:
            self._rebuild_frontier(set_head=True)
        for _ in range(2):
            times, slots = self._frontier_times, self._frontier_slots
            while self._frontier_pos < times.size:
                pos = self._frontier_pos
                if self._active[slots[pos]]:
                    return max(float(times[pos]), self.now)
                self._frontier_pos += 1
            if not self._frontier_truncated:
                return None
            # The materialised prefix drained entirely within this epoch;
            # rescan the survivors (same rates, so times stay exact).
            self._rebuild_frontier(set_head=False)
        return None

    def next_completion_wakeup(self) -> float | None:
        """Dynamic engine wakeup: this epoch's earliest completion.

        Fires once per rate epoch — after the head flow drains the next
        wakeup is the rate recompute, which starts a fresh epoch.  This
        reproduces the legacy scheduler exactly (it kept one completion
        event, re-armed only on recompute), so event logs stay
        bit-identical while cancel/re-schedule becomes an epoch bump.
        """
        if self._frontier_epoch != self.rates_epoch:
            self._rebuild_frontier(set_head=True)
        head = self._frontier_head_slot
        if head < 0 or not self._active[head]:
            return None
        return max(self._frontier_head_time, self.now)

    # ------------------------------------------------------------- inspection

    def earliest_active_start(self) -> float | None:
        """Start time of the oldest in-flight flow, or ``None`` if idle.

        The streaming recorder uses this as its emission watermark: the
        collector timestamps a transfer's events across its lifetime, so
        no future completion can emit an event before the oldest active
        flow's start time (minus clock skew).
        """
        active_idx = self._active_view()[0]
        if active_idx.size == 0:
            return None
        return float(self._start_times[active_idx].min())

    def active_rates(self) -> np.ndarray:
        """Current allocated rates (bytes/s) of the in-flight flows."""
        return self._rates[np.flatnonzero(self._active)].copy()

    def utilization_snapshot(self) -> np.ndarray:
        """Instantaneous per-link utilisation under current rates."""
        active_idx, paths, valid = self._active_view()
        link_rates = np.zeros(self.num_links)
        if active_idx.size:
            per_flow = np.repeat(self._rates[active_idx], valid.sum(axis=1))
            link_rates = np.bincount(
                paths[valid], weights=per_flow, minlength=self.num_links
            )
        return link_rates / self.capacities
