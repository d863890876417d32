"""Microbenchmarks of the core operations a campaign exercises millions
of times: flow reconstruction, TM binning, max-min water-filling."""

import numpy as np

from repro.cluster.routing import Router
from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.core.flows import reconstruct_flows
from repro.core.traffic_matrix import tm_series_from_events
from repro.simulation.transport import FluidTransport, TransferMeta


def test_flow_reconstruction_throughput(benchmark, standard_dataset):
    log = standard_dataset.result.socket_log
    flows = benchmark(reconstruct_flows, log)
    assert len(flows) > 0


def test_tm_binning_throughput(benchmark, standard_dataset):
    result = standard_dataset.result
    series = benchmark(
        tm_series_from_events,
        result.socket_log,
        result.topology,
        10.0,
        standard_dataset.config.duration,
    )
    assert series.total().sum() > 0


def _loaded_transport(num_flows: int, spec: ClusterSpec) -> FluidTransport:
    topo = ClusterTopology(spec)
    router = Router(topo)
    transport = FluidTransport(topo)
    rng = np.random.default_rng(0)
    meta = TransferMeta(kind="fetch")
    endpoints = topo.endpoints()
    for _ in range(num_flows):
        src, dst = rng.choice(endpoints, size=2, replace=False)
        transport.add_flow(int(src), int(dst), 1e9,
                           router.path_links(int(src), int(dst)), meta)
    return transport


def test_maxmin_waterfill(benchmark):
    transport = _loaded_transport(
        500,
        ClusterSpec(racks=12, servers_per_rack=8, racks_per_vlan=4,
                    external_hosts=0),
    )

    def recompute():
        transport.rates_dirty = True
        transport.recompute_rates()

    benchmark(recompute)
    assert transport.utilization_snapshot().max() <= 1.05


def test_maxmin_waterfill_churn(benchmark, bench_record):
    """The allocator's unit of work in a campaign: one flow finishes,
    one arrives, rates recompute — 100 active flows on the standard
    12x8 tree, near the ~70 of a ``fluid_tree`` solve.  Unlike
    :func:`test_maxmin_waterfill` the active set changes before every
    solve, so state kept across solves only pays off if it is cheap to
    update.  Each timed call is one churn step (one solve); flows never
    drain, so the population stays at ``num_flows``."""
    num_flows = 100
    transport = _loaded_transport(
        num_flows,
        ClusterSpec(racks=12, servers_per_rack=8, racks_per_vlan=4,
                    external_hosts=0),
    )
    topo = transport.topology
    router = Router(topo)
    rng = np.random.default_rng(1)
    endpoints = topo.endpoints()
    arrivals = []
    for _ in range(512):
        src, dst = (int(e) for e in rng.choice(endpoints, size=2, replace=False))
        arrivals.append((src, dst, router.path_links(src, dst)))
    picks = rng.integers(0, 2**31, size=4096).tolist()
    live = np.flatnonzero(transport._active).tolist()
    meta = TransferMeta(kind="fetch")
    step = {"n": 0}

    def churn():
        n = step["n"]
        step["n"] = n + 1
        i = picks[n % len(picks)] % len(live)
        slot = live[i]
        live[i] = live[-1]
        live.pop()
        transport._finish(slot)
        transport.pop_completed()
        src, dst, path = arrivals[n % len(arrivals)]
        live.append(transport.add_flow(src, dst, 1e12, path, meta))
        transport.recompute_rates()

    # Five rounds of 2500 solves: ~0.5-2 s a round on a 2-core host.
    benchmark.pedantic(churn, rounds=5, iterations=2500, warmup=200)
    assert transport.active_count == num_flows
    assert transport.utilization_snapshot().max() <= 1.05
    bench_record(
        "maxmin_waterfill_churn",
        {"flows": num_flows, "num_links": int(topo.num_links),
         "solves_per_round": 2500},
    )


def test_maxmin_waterfill_large(benchmark):
    """The allocator at scale: 8000 concurrent flows on a 1536-server
    cluster, where the batched CSR elimination path takes over."""
    transport = _loaded_transport(
        8000,
        ClusterSpec(racks=64, servers_per_rack=24, racks_per_vlan=8,
                    external_hosts=0),
    )

    def recompute():
        transport.rates_dirty = True
        transport.recompute_rates()

    benchmark(recompute)
    assert transport.utilization_snapshot().max() <= 1.05


def test_small_campaign_simulation(benchmark):
    """End-to-end cost of a small measurement campaign."""
    from repro.config import SimulationConfig
    from repro.simulation.simulator import simulate
    from repro.workload.generator import WorkloadConfig

    config = SimulationConfig(
        cluster=ClusterSpec(racks=4, servers_per_rack=5, racks_per_vlan=2,
                            external_hosts=1),
        workload=WorkloadConfig(job_arrival_rate=0.2),
        duration=30.0,
        seed=5,
    )
    result = benchmark.pedantic(simulate, args=(config,), rounds=1, iterations=1)
    assert result.stats["transfers_completed"] > 0
