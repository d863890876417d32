"""Queue-aware window-based transports: DCTCP, Reno, fixed-K ECN.

:class:`QueuedTransport` is the ``"queued"``-family counterpart of
:class:`~repro.simulation.transport.FluidTransport`, presenting the same
simulator-facing surface (``add_flow`` / ``advance_to`` /
``pop_completed`` / dynamic wakeup) so :class:`~repro.simulation.simulator.Simulator`
can swap it in behind ``SimulationConfig.transport_impl``.  Instead of
an ideal max-min allocation it integrates a fluid-window model on a
fixed tick: every flow paces ``cwnd / base_rtt`` into per-link FIFO
queues (:class:`~repro.simulation.cc.queue.LinkQueues`), where bytes are
CE-marked past the fixed threshold K and tail-dropped past the buffer;
RTTs include live queueing delay, and once per RTT each flow closes a
*round* and applies its variant's window transition
(:mod:`~repro.simulation.cc.cwnd`).  A round that loses at least
``timeout_loss_fraction`` of its bytes is a whole-window loss: the flow
collapses to the minimum window and sits out ``min_rto`` — the
serialisation mechanism behind incast goodput collapse (§4.4).

The tick pays per flow arrival, not per tick, for everything that only
changes when a flow starts or finishes.  The active set's path geometry
(:class:`_ActiveGeometry`) is cached and dropped in exactly two places,
``add_flow`` and ``_finish``; every tick in between reuses it, together
with the post-queue-step RTT the previous tick computed.  Per-flow
state lives in one ``(field, slot)`` matrix, gathered once per tick for
the active columns and scattered back once.  None of this changes a
float: the row shapes, the ascending-slot order and every sum's and
product's operand order are those of recomputing everything each tick,
so outputs are bit-identical to that (``TestBitIdentityPins`` in
``tests/test_cc.py`` pins them).

The engine cadence reuses the dynamic-time-source hook: the transport's
``next_completion_wakeup`` simply asks for ``now + tick`` while any flow
is active or any queue holds bytes, so no engine or simulator scheduling
changes are needed.  ``rates_dirty`` is permanently ``False`` — there is
no allocation pass to re-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ...cluster.topology import ClusterTopology
from ..transport import LoadSink, Transfer, TransferMeta
from .cwnd import (
    CC_VARIANTS,
    dctcp_cut,
    dctcp_update_alpha,
    grow,
    halve,
    timeout_collapse,
)
from .params import CongestionControlConfig
from .queue import LinkQueues

__all__ = ["CCReport", "QueuedTransport"]

#: A flow is complete when this many bytes remain un-acknowledged.
_EPS_BYTES = 0.5
#: Slack for "is this round due" / "is this flow stalled" comparisons.
_EPS_TIME = 1e-12

# Rows of the per-flow state matrix (one column per slot).  Rows that a
# tick updates by the same amount sit next to each other, so one sliced
# ``+=`` serves both.
_REMAINING = 0
_CWND = 1
_SSTHRESH = 2
_ALPHA = 3
_RTO_UNTIL = 4
_ROUND_END = 5
_ROUND_SENT = 6
_SENT_TOTAL = 7
_ROUND_LOST = 8
_RETX_BYTES = 9
_ROUND_MARKED = 10
_RTT_WEIGHTED = 11
_TIMEOUTS = 12
_SIZE = 13
_START_TIME = 14
_NUM_FIELDS = 15


@dataclass(frozen=True)
class CCReport:
    """End-of-run observables of a queued-transport campaign.

    The per-flow arrays are aligned over *completed* flows in completion
    order; the per-link ledgers duck-type
    :class:`~repro.simulation.cc.queue.LinkQueues` so the
    ``transport.queue_conservation`` checker accepts either a live
    transport's queues or this archived report.
    """

    variant: str
    ticks: int
    flow_fct: np.ndarray
    flow_sizes: np.ndarray
    flow_retransmitted_bytes: np.ndarray
    flow_timeouts: np.ndarray
    flow_mean_rtt: np.ndarray
    marked_packets: float
    dropped_packets: float
    forwarded_packets: float
    enqueued_bytes: np.ndarray
    dequeued_bytes: np.ndarray
    dropped_bytes: np.ndarray
    resident_bytes: np.ndarray
    peak_queue_bytes: float

    @property
    def completed_flows(self) -> int:
        """Number of flows that finished during the run."""
        return int(self.flow_fct.size)

    @property
    def total_retransmitted_bytes(self) -> float:
        """Bytes re-sent after loss, summed over completed flows."""
        return float(self.flow_retransmitted_bytes.sum())

    @property
    def total_timeouts(self) -> float:
        """Whole-window RTO events, summed over completed flows."""
        return float(self.flow_timeouts.sum())


@dataclass
class _ActiveGeometry:
    """The active flows' paths, in the shapes a tick consumes.

    Valid until a flow starts or finishes; the transport drops it then.
    """

    #: Active slots, ascending.
    slots: np.ndarray
    #: Every active path's links, flow by flow (the ``bincount`` keys).
    links: np.ndarray
    #: Hops per active flow (repeats each flow's bytes over its links).
    hops: np.ndarray
    #: ``(flows, max_path)`` link ids, padding pointing at the extra
    #: link slot ``num_links`` of the per-tick link vectors.
    padded: np.ndarray
    #: The same, hop-major and cut after the longest active path.
    hop_links: np.ndarray
    #: Per-flow RTT under the current queue occupancy, once computed.
    rtt: np.ndarray | None = None


class QueuedTransport:
    """Discrete-stepped congestion-controlled transport with FIFO queues."""

    #: Family tag used by the simulator dispatch and the validate layer.
    family = "queued"

    def __init__(
        self,
        topology: ClusterTopology,
        sinks: list[LoadSink] | None = None,
        impl: str = "dctcp",
        params: CongestionControlConfig | None = None,
        initial_capacity: int = 256,
    ) -> None:
        if impl not in CC_VARIANTS:
            raise ValueError(
                f"unknown queued transport impl {impl!r}; "
                f"expected one of {CC_VARIANTS}"
            )
        self.impl = impl
        self.params = params or CongestionControlConfig()
        self.topology = topology
        self.sinks: list[LoadSink] = list(sinks) if sinks else []
        #: Sinks that also understand queue-depth series (duck-typed so a
        #: plain byte-load sink still works unchanged).
        self._depth_sinks = [
            sink for sink in self.sinks if hasattr(sink, "add_queue_depth_bulk")
        ]
        self.capacities = topology.capacities.copy()
        self.num_links = topology.num_links
        self.max_path = 8
        self.queues = LinkQueues(self.num_links, self.capacities, self.params)

        size = max(16, initial_capacity)
        self._paths = np.full((size, self.max_path), -1, dtype=np.int64)
        self._active = np.zeros(size, dtype=bool)
        self._num_active = 0
        #: Per-slot ``(src, dst, meta, on_complete)`` of in-flight flows.
        self._flows: list[
            tuple[int, int, TransferMeta, Callable[[Transfer], None] | None]
            | None
        ] = [None] * size
        #: Per-flow numeric state, one row per field above (windows in
        #: packets).  The only copy: a tick works on a gathered block of
        #: its columns and scatters the block back before returning.
        self._state = np.zeros((_NUM_FIELDS, size))
        self._free_slots: list[int] = list(range(size - 1, -1, -1))
        self._geometry_cache: _ActiveGeometry | None = None
        # Per-link terms a tick composes along paths: queueing delay, and
        # the shares of arrivals surviving the drop and left unmarked.
        # The extra last link is where padded path hops point: it adds no
        # delay and keeps everything.
        self._hop_delay = np.zeros(self.num_links + 1)
        self._hop_keep = np.ones((2, self.num_links + 1))
        self._no_arrivals = np.zeros(self.num_links)
        self._peak_backlog = np.zeros(self.num_links)

        self.now = 0.0
        self._completed_buffer: list[
            tuple[Transfer, Callable[[Transfer], None] | None]
        ] = []
        self._next_transfer_id = 0
        self.transfers_started = 0
        self.peak_active = 0
        self.ticks = 0
        # Per-completed-flow records, in completion order.
        self._fct: list[float] = []
        self._done_sizes: list[float] = []
        self._done_retx: list[float] = []
        self._done_timeouts: list[int] = []
        self._done_mean_rtt: list[float] = []

        # Fluid-transport surface compatibility: the simulator reads
        # these unconditionally when publishing telemetry, and the
        # recompute machinery must never trigger for a queued transport.
        self.rates_dirty = False
        self.rate_recomputes = 0
        self.frontier_rebuilds = 0
        self._inc = None

    # ---------------------------------------------------------------- slots

    def _grow(self) -> None:
        old = self._paths.shape[0]
        self._paths = np.vstack(
            [self._paths, np.full((old, self.max_path), -1, dtype=np.int64)]
        )
        self._state = np.hstack([self._state, np.zeros((_NUM_FIELDS, old))])
        self._active = np.concatenate([self._active, np.zeros(old, dtype=bool)])
        self._flows.extend([None] * old)
        self._free_slots.extend(range(old * 2 - 1, old - 1, -1))

    @property
    def active_count(self) -> int:
        """Number of in-flight flows."""
        return self._num_active

    @property
    def peak_queue_bytes(self) -> float:
        """Deepest occupancy any queue reached at a tick's end, bytes."""
        return float(self._peak_backlog.max(initial=0.0))

    def _geometry(self) -> _ActiveGeometry:
        """The active set's cached path geometry, rebuilt when stale."""
        geometry = self._geometry_cache
        if geometry is None:
            slots = self._active.nonzero()[0]
            paths = self._paths[slots]
            valid = paths >= 0
            hops = valid.sum(axis=1)
            padded = np.where(valid, paths, self.num_links)
            geometry = _ActiveGeometry(
                slots=slots,
                links=paths[valid],
                hops=hops,
                padded=padded,
                hop_links=np.ascontiguousarray(padded.T[: hops.max(initial=0)]),
            )
            self._geometry_cache = geometry
        return geometry

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
        """Start a flow at the current time; returns its slot id."""
        if size <= 0:
            raise ValueError("flow size must be positive")
        if not path_links:
            raise ValueError("flow path must cross at least one link")
        if len(path_links) > self.max_path:
            raise ValueError("path exceeds transport's max path length")
        if not self._free_slots:
            self._grow()
        params = self.params
        slot = self._free_slots.pop()
        self._paths[slot, :] = -1
        self._paths[slot, : len(path_links)] = path_links
        self._active[slot] = True
        self._num_active += 1
        self._geometry_cache = None
        self._flows[slot] = (src, dst, meta, on_complete)
        column = self._state[:, slot]
        column[:] = 0.0
        column[_REMAINING] = size
        column[_SIZE] = size
        column[_START_TIME] = self.now
        column[_CWND] = params.initial_cwnd_packets
        column[_SSTHRESH] = params.max_cwnd_packets
        column[_RTO_UNTIL] = -np.inf
        column[_ROUND_END] = self.now + params.base_rtt
        self.transfers_started += 1
        if self._num_active > self.peak_active:
            self.peak_active = self._num_active
        return slot

    def _finish(self, slot: int) -> None:
        record = self._flows[slot]
        assert record is not None
        src, dst, meta, on_complete = record
        column = self._state[:, slot]
        transfer = Transfer(
            transfer_id=self._next_transfer_id,
            src=int(src),
            dst=int(dst),
            size=float(column[_SIZE]),
            start_time=float(column[_START_TIME]),
            end_time=self.now,
            meta=meta,
        )
        self._completed_buffer.append((transfer, on_complete))
        self._next_transfer_id += 1
        self._fct.append(transfer.duration)
        self._done_sizes.append(transfer.size)
        self._done_retx.append(float(column[_RETX_BYTES]))
        self._done_timeouts.append(int(column[_TIMEOUTS]))
        sent = float(column[_SENT_TOTAL])
        self._done_mean_rtt.append(
            float(column[_RTT_WEIGHTED]) / sent
            if sent > 0
            else self.params.base_rtt
        )
        self._active[slot] = False
        self._num_active -= 1
        self._geometry_cache = None
        self._flows[slot] = None
        self._free_slots.append(slot)

    def pop_completed(
        self,
    ) -> list[tuple[Transfer, Callable[[Transfer], None] | None]]:
        """Return and clear (transfer, callback) pairs completed since
        the last call; dispatch order is the simulator's job."""
        completed = self._completed_buffer
        self._completed_buffer = []
        return completed

    # ------------------------------------------------------------- stepping

    def _path_rtts(self, padded: np.ndarray) -> np.ndarray:
        """Base RTT plus the live queueing delay along each flow's path."""
        delay = self._hop_delay
        self.queues.queueing_delay(out=delay[:-1])
        return self.params.base_rtt + np.add.reduce(
            delay.take(padded), axis=1
        )

    def _pacing_rates(self, state: np.ndarray) -> np.ndarray:
        """Bytes/s each flow of a gathered state block paces this tick.

        One window per *base* RTT, zero while RTO-stalled.  The live
        queueing delay feeds the round duration and the RTT/FCT
        accounting, but not the pacing rate: offered load must stay a
        direct function of the window sum, so oversubscription
        manifests as marking and loss at the queue instead of being
        silently absorbed by delay-throttled senders.
        """
        params = self.params
        stalled = state[_RTO_UNTIL] > self.now + _EPS_TIME
        return np.where(
            stalled, 0.0, state[_CWND] * params.mtu_bytes / params.base_rtt
        )

    def _step(self, t_end: float) -> None:
        """Advance one tick (or partial tick) to ``t_end``."""
        dt = t_end - self.now
        geometry = self._geometry()
        active = geometry.slots.size
        arrivals = self._no_arrivals
        sent = None
        if active:
            state = self._state.take(geometry.slots, axis=1)
            if dt > 0:
                if geometry.rtt is None:
                    geometry.rtt = self._path_rtts(geometry.padded)
                sent = np.minimum(
                    self._pacing_rates(state) * dt, state[_REMAINING]
                )
                arrivals = np.bincount(
                    geometry.links,
                    weights=sent.repeat(geometry.hops),
                    minlength=self.num_links,
                )
        serviced, drop_frac, mark_frac = self.queues.step(arrivals, dt)
        backlog = self.queues.backlog_bytes
        np.maximum(self._peak_backlog, backlog, out=self._peak_backlog)
        if dt > 0:
            loaded = serviced.nonzero()[0]
            if loaded.size and self.sinks:
                for sink in self.sinks:
                    sink.add_interval_bulk(
                        loaded, serviced[loaded] / dt, self.now, t_end,
                        unique_keys=True,
                    )
            if self._depth_sinks:
                occupied = backlog.nonzero()[0]
                if occupied.size:
                    for sink in self._depth_sinks:
                        sink.add_queue_depth_bulk(
                            occupied, backlog[occupied], self.now, t_end,
                        )
        self.now = t_end
        self.ticks += 1
        if not active:
            return
        rtt = self._path_rtts(geometry.padded)
        if sent is not None:
            # Per-flow loss / mark probabilities compose multiplicatively
            # along the path, hop by hop (independent fluid approximation).
            keep = self._hop_keep
            np.subtract(1.0, drop_frac, out=keep[0, :-1])
            np.subtract(1.0, mark_frac, out=keep[1, :-1])
            survive, unmarked = np.multiply.reduce(
                keep.take(geometry.hop_links, axis=1), axis=1
            )
            delivered = sent * survive
            lost = sent - delivered
            remaining = state[_REMAINING]
            np.maximum(remaining - delivered, 0.0, out=remaining)
            state[_ROUND_SENT : _SENT_TOTAL + 1] += sent
            state[_ROUND_LOST : _RETX_BYTES + 1] += lost
            state[_ROUND_MARKED] += delivered * (1.0 - unmarked)
            state[_RTT_WEIGHTED] += geometry.rtt * sent
        # The post-step RTT closes this tick's rounds and paces the next
        # tick, unless a flow starts or finishes in between.
        geometry.rtt = rtt
        self._close_due_rounds(state, rtt)
        self._state[:, geometry.slots] = state
        for slot in geometry.slots[state[_REMAINING] <= _EPS_BYTES]:
            self._finish(int(slot))

    def _close_due_rounds(self, state: np.ndarray, rtt: np.ndarray) -> None:
        """Apply window transitions for flows whose RTT round elapsed.

        Works in place on a gathered ``(field, active flow)`` block;
        ``rtt`` is the active flows' RTT under the current queues.
        """
        due = (state[_ROUND_END] <= self.now + _EPS_TIME).nonzero()[0]
        if not due.size:
            return
        block = state.take(due, axis=1)
        # Flows that sent nothing this round (RTO-stalled) keep their
        # window.
        sent = block[_ROUND_SENT] > 0
        if sent.all():
            self._apply_transitions(block)
        elif sent.any():
            senders = block[:, sent]
            self._apply_transitions(senders)
            block[:, sent] = senders
        # Restart the round clock for every due flow (including idle and
        # RTO-stalled ones — their next round begins when the stall ends).
        start = np.maximum(self.now, block[_RTO_UNTIL])
        block[_ROUND_END] = start + rtt[due]
        block[_ROUND_SENT] = 0.0
        block[_ROUND_LOST] = 0.0
        block[_ROUND_MARKED] = 0.0
        state[:, due] = block

    def _apply_transitions(self, block: np.ndarray) -> None:
        """One round's window transition for each flow of ``block``.

        ``block`` holds the state columns of flows that sent data this
        round.  Each flow takes exactly one transition; each transition
        is computed for the whole block and copied in where it applies,
        which is elementwise and so exact.
        """
        params = self.params
        round_sent = block[_ROUND_SENT]
        round_lost = block[_ROUND_LOST]
        delivered = np.maximum(round_sent - round_lost, _EPS_BYTES)
        loss_frac = round_lost / round_sent
        mark_frac = np.minimum(block[_ROUND_MARKED] / delivered, 1.0)
        # A timeout is a loss (the threshold is positive); a marked
        # round is one with marks and no loss; a clean one has neither.
        loss = loss_frac > 0
        timeout = loss_frac >= params.timeout_loss_fraction
        lossy = loss ^ timeout
        marked = (mark_frac > 0) > loss
        clean = ~(loss | marked)
        cwnd = block[_CWND]
        ssthresh = block[_SSTHRESH]
        if self.impl == "dctcp":
            alpha = dctcp_update_alpha(
                block[_ALPHA], mark_frac, params.dctcp_gain
            )
            block[_ALPHA] = alpha
            if marked.any():
                cut = dctcp_cut(cwnd, alpha, params.min_cwnd_packets)
                np.copyto(cwnd, cut, where=marked)
                np.copyto(ssthresh, cut, where=marked)
        elif self.impl == "ecn_taildrop":
            # Classic ECN: a marked round is treated as a lossy one.
            lossy |= marked
        else:  # reno ignores CE marks entirely
            clean |= marked
        if lossy.any():
            new_cwnd, new_ss = halve(cwnd, params.min_cwnd_packets)
            np.copyto(cwnd, new_cwnd, where=lossy)
            np.copyto(ssthresh, new_ss, where=lossy)
        if clean.any():
            np.copyto(
                cwnd,
                grow(cwnd, ssthresh, params.max_cwnd_packets),
                where=clean,
            )
        if timeout.any():
            new_cwnd, new_ss = timeout_collapse(cwnd, params.min_cwnd_packets)
            np.copyto(cwnd, new_cwnd, where=timeout)
            np.copyto(ssthresh, new_ss, where=timeout)
            block[_RTO_UNTIL, timeout] = self.now + params.min_rto
            block[_TIMEOUTS, timeout] += 1

    def advance_to(self, time: float) -> None:
        """Integrate queue and window dynamics up to ``time``."""
        if time < self.now - 1e-9:
            raise ValueError("cannot advance backwards")
        tick = self.params.tick
        while time - self.now > _EPS_TIME:
            if (
                not self._num_active
                and self.queues.backlog_bytes.sum() <= _EPS_BYTES
            ):
                # Idle fabric: no window or queue dynamics to integrate,
                # so jump straight to the target time.
                break
            self._step(min(self.now + tick, time))
        self.now = max(self.now, time)

    # -------------------------------------------------------------- wakeups

    def recompute_rates(self) -> None:
        """No-op: queued transports have no allocation pass."""

    def next_completion_wakeup(self) -> float | None:
        """Dynamic engine wakeup: the next stepping tick.

        The queued transport needs a steady cadence while anything is in
        flight — active flows pacing into the queues, or residual
        backlog draining after the last flow finished (the sinks must
        see those serviced bytes).  Monotonically increasing because
        ``advance_to`` moves ``now`` to each granted wakeup.
        """
        if self._num_active or self.queues.backlog_bytes.sum() > _EPS_BYTES:
            return self.now + self.params.tick
        return None

    # ------------------------------------------------------------- inspection

    def earliest_active_start(self) -> float | None:
        """Start time of the oldest in-flight flow, or ``None`` if idle."""
        slots = self._geometry().slots
        if slots.size == 0:
            return None
        return float(self._state[_START_TIME, slots].min())

    def active_rates(self) -> np.ndarray:
        """Pacing rates (bytes/s) the in-flight flows offer next tick."""
        slots = self._geometry().slots
        return self._pacing_rates(self._state[:, slots])

    def utilization_snapshot(self) -> np.ndarray:
        """Per-link utilisation under the current pacing rates."""
        geometry = self._geometry()
        link_rates = np.bincount(
            geometry.links,
            weights=np.repeat(self.active_rates(), geometry.hops),
            minlength=self.num_links,
        )
        return link_rates / self.capacities

    # --------------------------------------------------------------- report

    def cc_report(self) -> CCReport:
        """Snapshot the run's congestion-control observables."""
        queues = self.queues
        return CCReport(
            variant=self.impl,
            ticks=self.ticks,
            flow_fct=np.asarray(self._fct),
            flow_sizes=np.asarray(self._done_sizes),
            flow_retransmitted_bytes=np.asarray(self._done_retx),
            flow_timeouts=np.asarray(self._done_timeouts, dtype=np.int64),
            flow_mean_rtt=np.asarray(self._done_mean_rtt),
            marked_packets=float(queues.marked_packets.sum()),
            dropped_packets=float(queues.dropped_packets.sum()),
            forwarded_packets=float(queues.forwarded_packets.sum()),
            enqueued_bytes=queues.enqueued_bytes.copy(),
            dequeued_bytes=queues.dequeued_bytes.copy(),
            dropped_bytes=queues.dropped_bytes.copy(),
            resident_bytes=queues.resident_bytes,
            peak_queue_bytes=self.peak_queue_bytes,
        )
