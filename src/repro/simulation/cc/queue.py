"""Per-link FIFO queue model: occupancy, ECN marking, tail-drop.

One vectorised state array per directed link.  Each tick the transport
offers aggregate arrival bytes per link; the queue services up to
``capacity * dt`` (backlog first — FIFO), CE-marks arrivals while the
post-service occupancy sits at or above the fixed threshold K, and
tail-drops whatever exceeds the buffer.  The class keeps exact
enqueued/dequeued/dropped byte ledgers per link, so the
``transport.queue_conservation`` invariant (enqueued == dequeued +
dropped + resident) is checkable at any instant.
"""

from __future__ import annotations

import numpy as np

from .params import CongestionControlConfig

__all__ = ["LinkQueues"]


class LinkQueues:
    """Vectorised FIFO queues for every directed link in the topology."""

    def __init__(
        self,
        num_links: int,
        capacities: np.ndarray,
        params: CongestionControlConfig,
    ) -> None:
        self.num_links = num_links
        self.capacities = np.asarray(capacities, dtype=float)
        self.params = params
        self.capacity_bytes = params.queue_capacity_bytes
        self.threshold_bytes = params.ecn_threshold_bytes
        #: Current occupancy, bytes per link.
        self.backlog_bytes = np.zeros(num_links)
        # Lifetime ledgers, one row each, and this step's per-link bytes
        # in the same row order, so one ``+=`` books a whole step.
        self._byte_ledger = np.zeros((3, num_links))
        self._packet_ledger = np.zeros((3, num_links))
        self._moved = np.zeros((3, num_links))
        self._moved_packets = np.zeros((3, num_links))
        #: Lifetime ledgers, bytes per link.
        self.enqueued_bytes, self.dequeued_bytes, self.dropped_bytes = (
            self._byte_ledger
        )
        #: Lifetime ledgers, (fractional fluid) packets per link.
        self.marked_packets, self.forwarded_packets, self.dropped_packets = (
            self._packet_ledger
        )
        # Scratch for :meth:`step`, which returns the serviced bytes and
        # the two fractions.
        self._surviving, self._serviced, self._dropped = self._moved
        self._drop_fraction = np.zeros(num_links)
        self._mark_fraction = np.zeros(num_links)
        self._level = np.zeros(num_links)
        self._scratch = np.zeros(num_links)
        self._arrived = np.zeros(num_links, dtype=bool)
        self._marked = np.zeros(num_links, dtype=bool)

    @property
    def resident_bytes(self) -> np.ndarray:
        """Bytes currently sitting in each queue (the conservation term)."""
        return self.backlog_bytes.copy()

    def queueing_delay(self, out: np.ndarray | None = None) -> np.ndarray:
        """Seconds a packet arriving now waits at each link's queue
        (written into ``out`` when given)."""
        return np.divide(self.backlog_bytes, self.capacities, out=out)

    def step(
        self, arrivals_bytes: np.ndarray, dt: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every queue by ``dt`` with the given arrivals.

        Returns ``(serviced_bytes, drop_fraction, mark_fraction)`` per
        link.  ``drop_fraction`` is the share of this tick's *arrivals*
        tail-dropped (resident backlog is never dropped); ``mark_fraction``
        is the share of surviving arrivals CE-marked under the fixed-K
        rule.  Service is work-conserving and bounded by
        ``capacity * dt``, which is what keeps the link-load sinks inside
        the ``linkloads.sane`` utilisation invariant.  The three arrays
        are buffers this object reuses: read them before the next call.
        """
        arrivals = np.asarray(arrivals_bytes, dtype=float)
        serviced = self._serviced
        level = self._level
        dropped = self._dropped
        scratch = self._scratch
        np.add(self.backlog_bytes, arrivals, out=level)  # offered
        np.multiply(self.capacities, dt, out=scratch)
        np.minimum(level, scratch, out=serviced)
        np.subtract(level, serviced, out=level)
        np.subtract(level, self.capacity_bytes, out=scratch)
        overflow = np.maximum(scratch, 0.0, out=scratch)
        # Tail-drop: only arriving bytes can be dropped, so the drop is
        # capped by what arrived this tick (service drains backlog first,
        # which can leave level > capacity only via arrivals).
        np.minimum(overflow, arrivals, out=dropped)
        np.subtract(level, dropped, out=self.backlog_bytes)

        arrived = np.greater(arrivals, 0.0, out=self._arrived)
        drop_fraction = self._drop_fraction
        drop_fraction.fill(0.0)
        np.divide(dropped, arrivals, out=drop_fraction, where=arrived)
        # Fixed-K marking: CE-mark arrivals that land in (or behind) a
        # queue at/above K once this tick's service has run.
        marked = np.greater_equal(
            self.backlog_bytes, self.threshold_bytes - 1e-9, out=self._marked
        )
        np.logical_and(arrived, marked, out=marked)
        mark_fraction = self._mark_fraction
        mark_fraction[:] = marked

        np.subtract(arrivals, dropped, out=self._surviving)
        # Bytes: enqueued += surviving, dequeued += serviced, dropped +=
        # dropped.  Packets: the same over the MTU, the surviving ones
        # counted as marked only where CE-marked.
        self._byte_ledger += self._moved
        moved_packets = np.divide(
            self._moved, self.params.mtu_bytes, out=self._moved_packets
        )
        moved_packets[0] *= mark_fraction
        self._packet_ledger += moved_packets
        return serviced, drop_fraction, mark_fraction

    def conservation_residual(self) -> np.ndarray:
        """Per-link ``enqueued - (dequeued + resident)`` in bytes.

        Dropped bytes never enter the ``enqueued`` ledger, so a healthy
        queue keeps this near zero (floating-point accumulation only).
        Exposed for the ``transport.queue_conservation`` checker and the
        Hypothesis property test.
        """
        return self.enqueued_bytes - (self.dequeued_bytes + self.backlog_bytes)
