"""Paper-scale benchmarks: allocator event latency and a full campaign.

The IMC'09 cluster has ~1500 servers; these benchmarks pin the cost of
running a *single* simulated campaign at that size.  Two angles:

* Steady-state arrival/departure latency — one flow finishes, one flow
  arrives, rates recompute — at 2k / 8k / 32k concurrent flows on the
  1536-server topology, for the incremental allocator and (at the sizes
  where it is tolerable) the from-scratch reference.  This is the
  allocator's actual unit of work during a run: the event loop pays it
  once per batch.
* Wall-clock and peak RSS for an end-to-end 1536-server campaign under
  ``transport_impl="incremental"`` — the number a user planning a
  paper-scale reproduction actually needs (see EXPERIMENTS.md).

Each timed call covers ``_EVENTS_PER_ROUND`` churn events, so
``wall_seconds / _EVENTS_PER_ROUND`` is the per-event latency.
"""

import numpy as np
import pytest

from repro.cluster.routing import Router, make_router
from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.simulation.transport import FluidTransport, TransferMeta

#: The paper-scale cluster: 64 racks x 24 servers, 8 racks per VLAN —
#: 1536 servers, 3216 links (matches EXPERIMENTS.md scale defaults).
PAPER_SPEC = ClusterSpec(
    racks=64, servers_per_rack=24, racks_per_vlan=8, external_hosts=0
)

#: The same server count on a k=16 fat-tree: 128 edge racks x 12
#: servers.  Longer paths (up to 6 links) and 64-way cross-pod path
#: diversity exercise the allocator's incidence structures harder than
#: the tree's fixed 6-hop worst case.
FAT_TREE_SPEC = ClusterSpec.fat_tree(
    k=16, servers_per_rack=12, external_hosts=0
)

_EVENTS_PER_ROUND = 50


class _ChurnHarness:
    """A loaded transport plus a steady-state churn step.

    Every step retires one random active flow, admits one fresh random
    flow, and recomputes rates — the arrival/departure cycle the event
    engine drives millions of times per campaign.  ``routing`` selects
    the per-flow path policy (ECMP spreads flows across a multi-path
    fabric's equal-cost sets; each flow gets a distinct hash key).
    """

    def __init__(
        self,
        impl: str,
        num_flows: int,
        seed: int = 0,
        spec: ClusterSpec = PAPER_SPEC,
        routing: str = "single",
    ) -> None:
        self.topo = ClusterTopology(spec)
        self.router = make_router(self.topo, routing, seed=seed)
        self.transport = FluidTransport(self.topo, impl=impl)
        self.rng = np.random.default_rng(seed)
        self.meta = TransferMeta(kind="fetch")
        self.endpoints = self.topo.endpoints()
        self._flow_serial = 0
        for _ in range(num_flows):
            self._add_one()
        self.transport.recompute_rates()

    def _add_one(self) -> None:
        src, dst = self.rng.choice(self.endpoints, size=2, replace=False)
        self._flow_serial += 1
        self.transport.add_flow(
            int(src), int(dst), 1e12,
            self.router.path_for_flow(
                int(src), int(dst), key=self._flow_serial
            ),
            self.meta,
        )

    def churn(self, events: int = _EVENTS_PER_ROUND) -> None:
        transport = self.transport
        for _ in range(events):
            slot = int(self.rng.choice(np.flatnonzero(transport._active)))
            transport._finish(slot)
            self._add_one()
            transport.recompute_rates()


@pytest.mark.parametrize(
    "num_flows", [2000, 8000, 32000], ids=["n2000", "n8000", "n32000"]
)
def test_event_latency_incremental(benchmark, num_flows):
    harness = _ChurnHarness("incremental", num_flows)
    benchmark(harness.churn)
    assert harness.transport.utilization_snapshot().max() <= 1.05
    # The incremental path must actually be taken, not fall back to
    # full re-solves every event.
    inc = harness.transport._inc
    assert inc.incremental_solves > inc.full_solves


@pytest.mark.parametrize("num_flows", [2000, 8000], ids=["n2000", "n8000"])
def test_event_latency_reference(benchmark, num_flows):
    """From-scratch baseline at the sizes where it finishes in seconds.

    At 32k flows the reference loop costs ~300 ms *per event*; the
    incremental/reference speedup there is documented in EXPERIMENTS.md
    rather than re-measured on every bench run.
    """
    harness = _ChurnHarness("reference", num_flows)
    benchmark(harness.churn)
    assert harness.transport.utilization_snapshot().max() <= 1.05


@pytest.mark.parametrize("num_flows", [2000, 8000], ids=["n2000", "n8000"])
def test_event_latency_fat_tree_ecmp(benchmark, bench_record, num_flows):
    """Incremental-allocator churn on the paper-scale k=16 fat-tree.

    ECMP routing spreads flows over up to 64 equal-cost cross-pod
    paths, so the incidence matrix is denser and less tree-structured
    than the 2-tier baseline — the realistic worst case for the
    incremental solver's frontier updates.
    """
    harness = _ChurnHarness(
        "incremental", num_flows, spec=FAT_TREE_SPEC, routing="ecmp",
    )
    benchmark(harness.churn)
    assert harness.transport.utilization_snapshot().max() <= 1.05
    inc = harness.transport._inc
    assert inc.incremental_solves > inc.full_solves
    bench_record(
        f"fat_tree_allocator_n{num_flows}",
        {
            "servers": FAT_TREE_SPEC.racks * FAT_TREE_SPEC.servers_per_rack,
            "fat_tree_k": FAT_TREE_SPEC.fat_tree_k,
            "num_links": int(harness.topo.num_links),
            "flows": num_flows,
            "events_per_round": _EVENTS_PER_ROUND,
            "routing": "ecmp",
        },
    )


def test_event_latency_queued(benchmark, bench_record):
    """Tick-stepping cost of the queued (DCTCP) transport under load.

    A 32-to-1 incast holds every queue busy, so each measured span pays
    the full per-tick path: pacing, queue integration, marking, round
    closes.  The recorded metric is wall time per simulated tick — the
    queued transports' unit of work, as arrival/departure churn is for
    the fluid allocators.  Five rounds of 5000 ticks (about 0.5 s each
    on a 2-core host) are timed and their median is the figure to read:
    best-of-3 over 200-tick rounds ranged over ±25% from run to run on a
    shared host.
    """
    from repro.simulation.cc import CongestionControlConfig
    from repro.simulation.cc.transport import QueuedTransport

    params = CongestionControlConfig()
    spec = ClusterSpec(racks=2, servers_per_rack=32, racks_per_vlan=2,
                       external_hosts=0)
    topo = ClusterTopology(spec)
    router = Router(topo)
    transport = QueuedTransport(topo, impl="dctcp", params=params)
    victim = 0
    meta = TransferMeta(kind="incast")
    for src in topo.servers_in_rack(1):
        transport.add_flow(
            int(src), victim, 1e12, router.path_links(int(src), victim), meta,
        )

    span = 200 * params.tick
    cursor = {"now": 0.0}

    def advance():
        cursor["now"] += span
        transport.advance_to(cursor["now"])

    benchmark.pedantic(advance, rounds=5, iterations=25, warmup=2)
    assert int(transport.ticks) > 0
    # The timing entry's median_seconds divided by ticks_per_call is the
    # per-tick latency; recorded here so `repro bench compare` keeps a
    # flat timing list while the scale metrics stay self-describing.
    bench_record(
        "queued_transport_tick",
        {
            "flows": 32,
            "ticks_per_call": 200,
            "calls_per_round": 25,
            "rounds": 5,
            "ticks_total": int(transport.ticks),
        },
    )


def test_paper_scale_campaign(benchmark, bench_record, report):
    """End-to-end 1536-server campaign: wall-clock plus peak RSS."""
    from repro.config import SimulationConfig
    from repro.simulation.simulator import simulate
    from repro.telemetry.resources import read_rss_bytes
    from repro.workload.generator import WorkloadConfig

    config = SimulationConfig(
        cluster=PAPER_SPEC,
        workload=WorkloadConfig(job_arrival_rate=4.0),
        duration=15.0,
        seed=7,
        transport_impl="incremental",
    )
    result = benchmark.pedantic(simulate, args=(config,), rounds=1, iterations=1)
    assert result.stats["transfers_completed"] > 0

    peak_rss = read_rss_bytes()
    stats = result.stats
    bench_record(
        "paper_scale_campaign",
        {
            "servers": PAPER_SPEC.racks * PAPER_SPEC.servers_per_rack,
            "duration_simulated_seconds": config.duration,
            "peak_rss_bytes": peak_rss,
            "transfers_completed": int(stats["transfers_completed"]),
            "events_processed": int(stats["events_processed"]),
            "rate_recomputes": int(stats["rate_recomputes"]),
        },
    )
    rss_mb = peak_rss / 1e6 if peak_rss else float("nan")
    report(
        "paper-scale campaign (1536 servers, incremental allocator): "
        f"{config.duration:.0f}s simulated, peak RSS {rss_mb:.0f} MB, "
        f"{int(stats['transfers_completed'])} transfers completed"
    )
