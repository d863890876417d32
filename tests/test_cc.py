"""Queue-aware congestion-control transports (repro.simulation.cc)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.routing import Router
from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.config import SimulationConfig, WorkloadConfig
from repro.experiments.cache import dataset_content_hash
from repro.experiments.common import build_dataset, small_config
from repro.simulation.cc import (
    CC_VARIANTS,
    CongestionControlConfig,
    LinkQueues,
    QueuedTransport,
    incast_config,
    run_incast,
)
from repro.simulation.cc.cwnd import (
    dctcp_cut,
    dctcp_update_alpha,
    grow,
    halve,
    timeout_collapse,
)
from repro.simulation.impls import transport_family, transport_impl_names
from repro.simulation.simulator import simulate
from repro.simulation.transport import TransferMeta
from repro.validate import checker_names, validate
from strategies import cc_configs, fabric_topologies, routing_impls


class TestCwnd:
    def test_dctcp_alpha_ewma(self):
        alpha = np.array([0.0, 1.0])
        updated = dctcp_update_alpha(alpha, np.array([1.0, 0.0]), gain=0.25)
        assert updated == pytest.approx([0.25, 0.75])

    def test_dctcp_alpha_decays_without_marks(self):
        alpha = np.array([0.8])
        for _ in range(50):
            alpha = dctcp_update_alpha(alpha, np.array([0.0]), gain=0.0625)
        assert alpha[0] < 0.05

    def test_dctcp_cut_proportional_vs_reno_halving(self):
        cwnd = np.array([32.0])
        gentle = dctcp_cut(cwnd, np.array([0.1]), min_cwnd=1.0)
        harsh = dctcp_cut(cwnd, np.array([1.0]), min_cwnd=1.0)
        halved, ssthresh = halve(cwnd, min_cwnd=1.0)
        assert gentle[0] == pytest.approx(32.0 * 0.95)
        # With alpha = 1 DCTCP's cut equals Reno's halving.
        assert harsh[0] == pytest.approx(halved[0]) == pytest.approx(16.0)
        assert ssthresh[0] == pytest.approx(16.0)

    def test_slow_start_doubles_then_exits_at_ssthresh(self):
        cwnd = np.array([2.0])
        ssthresh = np.array([12.0])
        seen = []
        for _ in range(4):
            cwnd = grow(cwnd, ssthresh, max_cwnd=1024.0)
            seen.append(float(cwnd[0]))
        # 2 -> 4 -> 8 -> clipped at 12 -> additive from there on.
        assert seen == pytest.approx([4.0, 8.0, 12.0, 13.0])

    def test_grow_respects_max_cwnd(self):
        cwnd = np.array([1000.0])
        grown = grow(cwnd, np.array([2048.0]), max_cwnd=1024.0)
        assert grown[0] == pytest.approx(1024.0)

    def test_timeout_collapse_restarts_slow_start(self):
        cwnd = np.array([64.0])
        collapsed, ssthresh = timeout_collapse(cwnd, min_cwnd=1.0)
        assert collapsed[0] == pytest.approx(1.0)
        assert ssthresh[0] == pytest.approx(32.0)
        # The floor of 2 * min_cwnd keeps a tiny window in slow start.
        _, floor = timeout_collapse(np.array([1.0]), min_cwnd=1.0)
        assert floor[0] == pytest.approx(2.0)


class TestLinkQueues:
    def _queues(self, **overrides) -> LinkQueues:
        params = CongestionControlConfig(**overrides)
        return LinkQueues(1, np.array([1500.0]), params)

    def test_marks_at_exactly_threshold(self):
        queues = self._queues(queue_capacity_packets=10,
                              ecn_threshold_packets=2)
        serviced_capacity = 1500.0  # capacity * dt at dt = 1
        arrivals = np.array([serviced_capacity + queues.threshold_bytes])
        _, drop_frac, mark_frac = queues.step(arrivals, dt=1.0)
        # Post-service backlog sits at exactly K -> the arrival is marked.
        assert queues.backlog_bytes[0] == pytest.approx(queues.threshold_bytes)
        assert mark_frac[0] == 1.0
        assert drop_frac[0] == 0.0

    def test_no_mark_below_threshold(self):
        queues = self._queues(queue_capacity_packets=10,
                              ecn_threshold_packets=2)
        arrivals = np.array([1500.0 + queues.threshold_bytes - 1.0])
        _, _, mark_frac = queues.step(arrivals, dt=1.0)
        assert queues.backlog_bytes[0] == pytest.approx(
            queues.threshold_bytes - 1.0
        )
        assert mark_frac[0] == 0.0

    def test_tail_drop_beyond_capacity(self):
        queues = self._queues(queue_capacity_packets=4,
                              ecn_threshold_packets=2)
        arrivals = np.array([1500.0 + queues.capacity_bytes + 3000.0])
        _, drop_frac, _ = queues.step(arrivals, dt=1.0)
        assert queues.backlog_bytes[0] == pytest.approx(queues.capacity_bytes)
        assert queues.dropped_bytes[0] == pytest.approx(3000.0)
        assert drop_frac[0] == pytest.approx(
            3000.0 / float(arrivals[0])
        )

    @given(params=cc_configs(), data=st.data())
    def test_queue_conservation_property(self, params, data):
        """enqueued == dequeued + resident at every step, under arbitrary
        arrival sequences over arbitrary valid parameter sets (drops are
        excluded from the enqueued ledger by construction)."""
        num_links = data.draw(st.integers(min_value=1, max_value=4))
        capacities = np.array(data.draw(st.lists(
            st.floats(min_value=1e3, max_value=1e9),
            min_size=num_links, max_size=num_links,
        )))
        queues = LinkQueues(num_links, capacities, params)
        steps = data.draw(st.integers(min_value=1, max_value=30))
        for _ in range(steps):
            arrivals = np.array(data.draw(st.lists(
                st.floats(min_value=0.0, max_value=5e6),
                min_size=num_links, max_size=num_links,
            )))
            queues.step(arrivals, params.tick)
            assert np.all(queues.backlog_bytes >= 0.0)
            assert np.all(
                queues.backlog_bytes <= queues.capacity_bytes + 1e-6
            )
            residual = queues.conservation_residual()
            scale = np.maximum(queues.enqueued_bytes, 1.0)
            assert np.all(np.abs(residual) <= 1e-9 * scale + 1e-6)


class TestRegistry:
    def test_all_variants_registered_as_queued(self):
        names = transport_impl_names()
        for variant in CC_VARIANTS:
            assert variant in names
            assert transport_family(variant) == "queued"

    def test_fluid_impls_still_fluid(self):
        assert transport_family("vectorized") == "fluid"
        assert transport_family("reference") == "fluid"

    def test_unknown_impl_rejected_with_catalogue(self):
        with pytest.raises(ValueError, match="dctcp"):
            transport_family("bogus")

    def test_config_accepts_queued_impl(self):
        config = SimulationConfig(transport_impl="dctcp")
        assert config.cc.ecn_threshold_packets == 30

    def test_config_rejects_unknown_impl(self):
        with pytest.raises(ValueError, match="transport impl"):
            SimulationConfig(transport_impl="warp-speed")

    def test_cc_params_validated(self):
        with pytest.raises(ValueError):
            CongestionControlConfig(tick=0.0)
        with pytest.raises(ValueError):
            CongestionControlConfig(ecn_threshold_packets=0)
        with pytest.raises(ValueError):
            CongestionControlConfig(timeout_loss_fraction=1.5)


class TestIncastRegression:
    """Deterministic pins of the collapse physics.

    The scenario consumes no randomness, so these values are exact
    reruns; the asserted bands are wide enough to survive benign
    parameter-tuning drift but not a broken mechanism.
    """

    def test_reno_onset_between_4_and_8_senders(self):
        mild = run_incast("reno", 4)
        collapsed = run_incast("reno", 8)
        assert mild.timeouts == 0
        assert mild.goodput_ratio > 0.5
        assert collapsed.timeouts > 0
        assert collapsed.goodput_ratio < 0.3

    def test_dctcp_resists_collapse_at_8(self):
        run = run_incast("dctcp", 8)
        assert run.timeouts == 0
        assert run.goodput_ratio > 0.6

    def test_ecn_taildrop_between(self):
        run = run_incast("ecn_taildrop", 8)
        assert run.timeouts == 0
        assert run.goodput_ratio > 0.4

    def test_dctcp_beats_reno_under_collapse(self):
        dctcp = run_incast("dctcp", 16)
        reno = run_incast("reno", 16)
        assert dctcp.goodput_ratio > reno.goodput_ratio + 0.3

    def test_all_flows_complete(self):
        for variant in CC_VARIANTS:
            run = run_incast(variant, 8)
            assert run.completed == 8

    def test_ecn_threshold_tradeoff(self):
        low = run_incast("dctcp", 2, bytes_per_sender=8_000_000.0,
                         cc=replace(CongestionControlConfig(),
                                    ecn_threshold_packets=10))
        high = run_incast("dctcp", 2, bytes_per_sender=8_000_000.0,
                          cc=replace(CongestionControlConfig(),
                                     ecn_threshold_packets=60))
        # Low K: shorter queues, some throughput given up; high K the
        # reverse — the fixed-threshold trade-off.
        assert low.mean_queue_delay < high.mean_queue_delay
        assert low.goodput_ratio < high.goodput_ratio


#: The pinned fabrics (``None``: ``small_config``'s own tree) and the
#: routing each one runs under.
_PIN_FABRICS = {
    "leaf_spine": (
        ClusterSpec.leaf_spine(racks=4, spines=2, servers_per_rack=4), "ecmp"
    ),
    "fat_tree": (ClusterSpec.fat_tree(k=4), "flowlet"),
    "tree": (None, "single"),
}
#: ``(transport_impl, fabric, dataset_content_hash, cc_ticks,
#: cc_dropped_packets, cc_timeouts)`` of 10 s ``small_config(3)`` runs.
#: Every variant and every fabric appears twice.
_PINS = [
    ("dctcp", "leaf_spine",
     "c893c4263214fd1effc73f4787e06707adb946e4eb42d80c10fbb672fef683f0",
     3959.0, 1791.1666666675037, 4.0),
    ("dctcp", "fat_tree",
     "bcbcaa0fef925a8726dbb1da131965dd04a157c2e8c9f0884a1506cfbdbc372b",
     4169.0, 1486.166666667496, 4.0),
    ("reno", "fat_tree",
     "ea48f6042dbfb5cf89eb44ed0fd400d5d13e5dff91ee49aacee8f1c40c230f1d",
     4851.0, 7563.033169234537, 6.0),
    ("reno", "tree",
     "8411251ccf0fd296a504cfd079789c1ec608ca5b88b59a54e0e5586f6115364e",
     4977.0, 9618.382161462621, 6.0),
    ("ecn_taildrop", "tree",
     "4575b70069a49f61bbf71e2e8d86bfc1c5c380a8292ad056ec18f5edfc74f79e",
     3299.0, 0.0, 0.0),
    ("ecn_taildrop", "leaf_spine",
     "d2e06540dfa94f1c72d1abc32915716c8a4f32bd346907d51eff41bf4b8fb0c3",
     4107.0, 241.3333333331441, 0.0),
]


class TestBitIdentityPins:
    """Exact outputs of the queued tick, so a speed-up cannot drift them.

    The hashes were recorded on Linux x86-64 with Python 3.11 and numpy
    2.4; another platform or numpy release may round a float sum
    differently and legitimately change them.
    """

    @pytest.mark.parametrize(
        "impl,fabric,digest,ticks,dropped,timeouts", _PINS,
        ids=[f"{pin[0]}-{pin[1]}" for pin in _PINS],
    )
    def test_queued_run_is_bit_identical(
        self, impl, fabric, digest, ticks, dropped, timeouts
    ):
        spec, routing = _PIN_FABRICS[fabric]
        base = small_config(3)
        config = replace(
            base, cluster=spec or base.cluster, transport_impl=impl,
            routing_impl=routing, duration=10.0,
        )
        dataset = build_dataset(config, disk_cache=False)
        stats = dataset.result.stats
        assert dataset_content_hash(dataset) == digest
        assert stats["cc_ticks"] == ticks
        assert stats["cc_dropped_packets"] == dropped
        assert stats["cc_timeouts"] == timeouts


class TestPacingRate:
    def test_active_rates_match_the_next_ticks_offered_load(self):
        """``active_rates`` reports what each flow actually paces into
        the fabric, even while queues add delay to the live RTT."""
        config = incast_config("reno", 8)
        topology = ClusterTopology(config.cluster)
        transport = QueuedTransport(topology, impl="reno", params=config.cc)
        router = Router(topology)
        first_hop = {}
        for src in list(topology.servers_in_rack(1))[:8]:
            path = router.path_links(src, 0)
            slot = transport.add_flow(
                src, 0, 1e9, path, TransferMeta(kind="incast")
            )
            first_hop[slot] = path[0]
        tick = config.cc.tick
        transport.advance_to(20 * tick)
        assert transport.queues.backlog_bytes.max() > 0, "queues never built"

        rates = transport.active_rates()
        offered = []
        step = transport.queues.step

        def record(arrivals, dt):
            offered.append(arrivals.copy() / dt)
            return step(arrivals, dt)

        transport.queues.step = record
        transport.advance_to(transport.now + tick)
        links = [first_hop[slot] for slot in sorted(first_hop)]
        assert (rates > 0).any()
        np.testing.assert_allclose(rates, offered[0][links], rtol=1e-12)
        utilization = transport.utilization_snapshot()
        np.testing.assert_allclose(
            utilization[links], rates / topology.capacities[links],
            rtol=1e-12,
        )


#: Checkers a queued run on any fabric must run and pass.
_SWEEP_REQUIRED = (
    "transport.queue_conservation",
    "routing.path_consistency",
    *(
        name for name in checker_names()
        if name.startswith(("linkloads.", "bytes."))
    ),
)


class TestQueuedInvariantSweep:
    """Queued transports over the whole fabric × routing × variant matrix.

    Short campaigns (2 s of simulated time) under arbitrary valid
    congestion-control parameters, each validated end to end.
    """

    @pytest.mark.parametrize("variant", CC_VARIANTS)
    @settings(max_examples=20)
    @given(
        topology=fabric_topologies(),
        routing=routing_impls(),
        cc=cc_configs(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_queued_run_keeps_every_invariant(
        self, variant, topology, routing, cc, seed
    ):
        config = SimulationConfig(
            cluster=topology.spec,
            workload=WorkloadConfig(job_arrival_rate=2.0),
            duration=2.0,
            seed=seed,
            transport_impl=variant,
            routing_impl=routing,
            cc=cc,
        )
        report = validate(simulate(config))
        status = {result.name: result.status for result in report.results}
        violated = [name for name, state in status.items()
                    if state == "violation"]
        assert not violated, report.violations[0].message
        assert {name: status[name] for name in _SWEEP_REQUIRED} == {
            name: "ok" for name in _SWEEP_REQUIRED
        }
