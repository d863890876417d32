"""Bitwise equivalence of the water-filling allocators.

The vectorized allocator's entire claim is that it replays the reference
loop's floating-point operations exactly — not approximately.  Every
assertion here is ``array_equal`` (bitwise), never ``allclose``: a
single ULP of drift would compound over thousands of rate recomputations
into different completion times and therefore a different event log.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.routing import Router
from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.simulation import waterfill
from repro.simulation.transport import FluidTransport, TransferMeta
from repro.simulation.waterfill import (
    FlowIncidence,
    MaxMinState,
    _maxmin_csr,
    bottleneck_rates,
    maxmin_rates_reference,
    maxmin_rates_vectorized,
)

from strategies import fabric_topologies

_META = TransferMeta(kind="fetch")


def _random_problem(rng, num_flows, spec=None):
    """A random active set over a random small topology."""
    spec = spec or ClusterSpec(
        racks=int(rng.integers(2, 8)),
        servers_per_rack=int(rng.integers(2, 8)),
        racks_per_vlan=int(rng.integers(1, 4)),
        external_hosts=int(rng.integers(0, 4)),
    )
    topo = ClusterTopology(spec)
    router = Router(topo)
    endpoints = topo.endpoints()
    paths = np.full((num_flows, 8), -1, dtype=np.int64)
    for i in range(num_flows):
        src, dst = rng.choice(endpoints, size=2, replace=False)
        links = router.path_links(int(src), int(dst))
        paths[i, : len(links)] = links
    return paths, paths >= 0, topo.capacities, topo.num_links


class TestAllocatorEquivalence:
    def test_randomized_bitwise_equal(self):
        rng = np.random.default_rng(20260806)
        for trial in range(25):
            num_flows = int(rng.integers(1, 400))
            paths, valid, caps, num_links = _random_problem(rng, num_flows)
            expected = maxmin_rates_reference(paths, valid, caps, num_links)
            got = maxmin_rates_vectorized(paths, valid, caps, num_links)
            assert np.array_equal(expected, got), f"trial {trial} diverged"

    def test_both_internal_paths_bitwise_equal(self):
        """Heap and CSR regimes agree with the reference (and so with
        each other) on the same problems, regardless of the dispatch
        threshold."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            num_flows = int(rng.integers(2, 300))
            paths, valid, caps, num_links = _random_problem(rng, num_flows)
            incidence = FlowIncidence(paths, valid, num_links)
            expected = maxmin_rates_reference(paths, valid, caps, num_links)
            heap = maxmin_rates_vectorized(
                paths, valid, caps, num_links, regime="heap"
            )
            csr = _maxmin_csr(paths, valid, caps, num_links, incidence)
            assert np.array_equal(expected, heap)
            assert np.array_equal(expected, csr)

    def test_csr_dispatch_threshold(self, monkeypatch):
        """Dispatch switches on the threshold, invisibly to callers."""
        rng = np.random.default_rng(3)
        paths, valid, caps, num_links = _random_problem(rng, 64)
        expected = maxmin_rates_reference(paths, valid, caps, num_links)
        monkeypatch.setattr(waterfill, "_CSR_FLOW_THRESHOLD", 1)
        assert np.array_equal(
            expected, maxmin_rates_vectorized(paths, valid, caps, num_links)
        )
        monkeypatch.setattr(waterfill, "_CSR_FLOW_THRESHOLD", 10**9)
        assert np.array_equal(
            expected, maxmin_rates_vectorized(paths, valid, caps, num_links)
        )

    def test_empty_active_set(self):
        caps = np.array([1.0, 2.0])
        empty = np.zeros((0, 8), dtype=np.int64)
        assert maxmin_rates_vectorized(empty, empty >= 0, caps, 2).shape == (0,)

    def test_single_flow_gets_bottleneck_capacity(self):
        caps = np.array([100.0, 40.0, 70.0])
        paths = np.array([[0, 1, 2, -1, -1, -1, -1, -1]], dtype=np.int64)
        rates = maxmin_rates_vectorized(paths, paths >= 0, caps, 3)
        assert np.array_equal(rates, np.array([40.0]))

    def test_incidence_reuse_is_pure(self):
        """Repeated allocation through one cached incidence instance, or
        one persistent heap state, returns identical results — the
        per-call state must be copied, never mutated in place."""
        rng = np.random.default_rng(11)
        paths, valid, caps, num_links = _random_problem(rng, 120)
        incidence = FlowIncidence(paths, valid, num_links)
        first = maxmin_rates_vectorized(
            paths, valid, caps, num_links, incidence=incidence, regime="csr"
        )
        second = maxmin_rates_vectorized(
            paths, valid, caps, num_links, incidence=incidence, regime="csr"
        )
        assert np.array_equal(first, second)
        state = MaxMinState.from_rows(paths, valid, caps)
        ids = np.arange(paths.shape[0])
        assert np.array_equal(state.solve(ids, paths), first)
        assert np.array_equal(state.solve(ids, paths), first)


class TestTransportIntegration:
    def _transport(self, impl, num_flows=60, seed=2):
        topo = ClusterTopology(
            ClusterSpec(racks=4, servers_per_rack=4, racks_per_vlan=2,
                        external_hosts=1)
        )
        router = Router(topo)
        transport = FluidTransport(topo, impl=impl)
        rng = np.random.default_rng(seed)
        endpoints = topo.endpoints()
        for _ in range(num_flows):
            src, dst = rng.choice(endpoints, size=2, replace=False)
            transport.add_flow(int(src), int(dst), 1e8,
                               router.path_links(int(src), int(dst)), _META)
        return transport

    def test_invalid_impl_rejected(self):
        topo = ClusterTopology(ClusterSpec(racks=2, servers_per_rack=2))
        with pytest.raises(ValueError, match="transport impl"):
            FluidTransport(topo, impl="turbo")

    def test_impls_allocate_identical_rates(self):
        vec = self._transport("vectorized")
        ref = self._transport("reference")
        vec.recompute_rates()
        ref.recompute_rates()
        assert np.array_equal(vec.active_rates(), ref.active_rates())

    def test_cache_invalidated_on_add_and_finish(self):
        transport = self._transport("vectorized", num_flows=10)
        transport.recompute_rates()
        version = transport._flows_version
        topo = transport.topology
        router = Router(topo)
        endpoints = topo.endpoints()
        rng = np.random.default_rng(9)
        src, dst = rng.choice(endpoints, size=2, replace=False)
        transport.add_flow(int(src), int(dst), 1e6,
                           router.path_links(int(src), int(dst)), _META)
        assert transport._flows_version > version
        transport.recompute_rates()
        # Rates after the add must match a fresh transport built with the
        # same final flow set computed by the reference allocator.
        active_idx, paths, valid = transport._active_view()
        expected = maxmin_rates_reference(
            paths, valid, transport.capacities, transport.num_links
        )
        assert np.array_equal(
            transport._rates[active_idx], np.maximum(expected, 1.0)
        )
        # Completing flows must also invalidate: run until one drains.
        version = transport._flows_version
        horizon = transport.next_completion_time()
        assert horizon is not None
        transport.advance_to(horizon + 1e-6)
        assert transport.pop_completed()
        assert transport._flows_version > version

    def test_bottleneck_mode_unchanged(self):
        topo = ClusterTopology(
            ClusterSpec(racks=3, servers_per_rack=3, racks_per_vlan=1)
        )
        transport = FluidTransport(topo, fairness="bottleneck")
        router = Router(topo)
        endpoints = topo.endpoints()
        rng = np.random.default_rng(4)
        for _ in range(20):
            src, dst = rng.choice(endpoints, size=2, replace=False)
            transport.add_flow(int(src), int(dst), 1e7,
                               router.path_links(int(src), int(dst)), _META)
        transport.recompute_rates()
        active_idx, paths, valid = transport._active_view()
        expected = bottleneck_rates(
            paths, valid, transport.capacities, transport.num_links
        )
        assert np.array_equal(
            transport._rates[active_idx], np.maximum(expected, 1.0)
        )


# ------------------------------------------------ persistent heap state

#: One step of a transport's life: ``("add", src, dst, size, n)`` (``n``
#: arrivals at once), ``("drain",)`` (run to the next completion),
#: ``("finish", flow)`` (drain one chosen flow now) or
#: ``("reroute", flow, path)``.  The integer picks are taken modulo the
#: live endpoints, flows and equal-cost paths, so every sequence applies
#: to any topology.
_PICK = st.integers(min_value=0, max_value=2**16)
_TRANSPORT_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _PICK, _PICK,
                  st.floats(min_value=1e3, max_value=1e9),
                  st.integers(min_value=1, max_value=12)),
        st.tuples(st.just("drain")),
        st.tuples(st.just("finish"), _PICK),
        st.tuples(st.just("reroute"), _PICK, _PICK),
    ),
    min_size=1,
    max_size=40,
)


def _assert_matches_reference(transport: FluidTransport) -> None:
    """Live rates and the persistent state against a from-scratch solve."""
    active_idx, paths, valid = transport._active_view()
    expected = maxmin_rates_reference(
        paths, valid, transport.capacities, transport.num_links
    )
    assert np.array_equal(
        transport._rates[active_idx], np.maximum(expected, 1.0)
    )
    state = transport._heap
    counts = np.bincount(paths[valid], minlength=transport.num_links)
    assert np.array_equal(np.array(state.counts), counts)
    assert state.loaded == set(np.flatnonzero(counts).tolist())


@settings(max_examples=100, deadline=None)
@given(topology=fabric_topologies(), ops=_TRANSPORT_OPS)
def test_persistent_state_matches_reference_over_interleavings(
    topology, ops
):
    """The ``vectorized`` transport's max-min state is kept across
    solves and updated only by ``add_flow``, ``_finish`` and
    ``reroute_flow``.  Over any interleaving of those — with 16 initial
    slots, so the slot arrays grow and freed slots are reused — every
    solve equals the reference bit for bit, and the per-link counts
    equal a fresh ``bincount`` of the active paths."""
    router = Router(topology)
    transport = FluidTransport(topology, initial_capacity=16)
    endpoints = topology.endpoints()
    for op in ops:
        live = np.flatnonzero(transport._active)
        if op[0] == "add":
            for i in range(op[4]):
                src = int(endpoints[(op[1] + i) % len(endpoints)])
                others = [int(e) for e in endpoints if e != src]
                dst = others[(op[2] + 7 * i) % len(others)]
                choices = router.equal_cost_paths(src, dst)
                transport.add_flow(
                    src, dst, op[3] * (i + 1), choices[i % len(choices)],
                    _META,
                )
        elif not live.size:
            continue
        elif op[0] == "drain":
            horizon = transport.next_completion_time()
            if horizon is not None:
                transport.advance_to(horizon)
        elif op[0] == "finish":
            transport._remaining[live[op[1] % live.size]] = 0.0
            transport.advance_to(transport.now)
        else:
            slot = int(live[op[1] % live.size])
            choices = router.equal_cost_paths(
                int(transport._src[slot]), int(transport._dst[slot])
            )
            transport.reroute_flow(slot, choices[op[2] % len(choices)])
        transport.pop_completed()
        transport.recompute_rates()
        _assert_matches_reference(transport)
