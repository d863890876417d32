"""The benchmark's four workloads, driven through public APIs only.

Each workload is built from a seed, sets itself up once, then runs
measured passes.  A pass returns its end-to-end timings, the output
digest and work counts that identify what it computed, per-layer values
the :class:`~layers.Tracer` cannot see, and the correctness checks that
failed.  A pass with any failed check is a failed operation.

Input sizing.  Job sizes in the workload generator are heavy-tailed, so
a schedule drawn from the seed makes the work itself swing with the
seed: the 100 s standard campaign took 4.8 s to 23 s across seeds 1-6.
Each simulation workload therefore replays one fixed job schedule and
lets ``--seed`` draw everything else: task placement, partition skew,
compute noise, collector sampling and ECMP hashing.  The schedules were
picked for size, so that a pass takes a few seconds and a run holds
several passes: fluid_tree and trace_replay replay seed 23's schedule
(25 jobs, the lightest of seeds 1-40 by offered bytes),
queued_fabric replays seed 4's.  At ``DEFAULT_SEED`` the fluid_tree
inputs are ``standard_config(DEFAULT_SEED)`` unmodified.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.routing import bisection_bandwidth
from repro.cluster.topology import ClusterSpec
from repro.core.flows import reconstruct_flows
from repro.core.traffic_matrix import tm_series_from_events
from repro.experiments import (
    DatasetDiskCache,
    ExperimentDataset,
    dataset_from_trace,
    experiment_specs,
    run_campaign,
    small_config,
    standard_config,
)
from repro.experiments.cache import dataset_content_hash
from repro.simulation.simulator import Simulator
from repro.trace import TraceReader, TraceWriter, check_against_inmemory
from repro.trace.record import trace_meta
from repro.util.randomness import RandomSource
from repro.validate import validate
from repro.workload.generator import generate_schedule

from hostspeed import SAMPLER
from layers import Tracer

__all__ = ["DEFAULT_SEED", "HELD_OUT_SEED", "WORKLOADS", "PassResult"]

#: The seed at which the expected digests below were recorded.
DEFAULT_SEED = 23
#: A seed kept out of every run made while the benchmark was built; a
#: performance claim must also hold on it.
HELD_OUT_SEED = 8675309

#: The shortest campaign over which every figure experiment runs: Figs
#: 10, 12-14 and the role-prior extension aggregate the 10 s TM series
#: into 100 s windows.
FIGURE_DURATION = 100.0
#: Simulated seconds of the queued leaf-spine run (the cc tick costs
#: ~0.2 s of host time per simulated second).
QUEUED_DURATION = 30.0
#: The job schedules the simulation workloads replay (see above).
FLUID_SCHEDULE_SEED = DEFAULT_SEED
QUEUED_SCHEDULE_SEED = 4
CAMPAIGN_SEEDS = 4

_FLUID_DIGEST = (
    "b78a1a3ba632fb7ac12c449ee3612cb5a00d63d6b6d4376ea64fa0e44784045b"
)
#: ``dataset_content_hash`` at ``DEFAULT_SEED``, recorded on Linux x86-64
#: with Python 3.11 and numpy 2.4.  The fluid_tree value equals
#: ``build_dataset(fluid_config(DEFAULT_SEED), disk_cache=False)``;
#: trace_replay must rebuild that dataset from its trace; campaign lists
#: its four seeds' hashes.
EXPECTED_DIGESTS = {
    "fluid_tree": _FLUID_DIGEST,
    "queued_fabric": (
        "ccdcaf4296bd2677c8d5cbc4d93b93483a7d29140acb905be3812e065357f11f"
    ),
    "trace_replay": _FLUID_DIGEST,
    "campaign": ",".join((
        "e4ebe037dc9d689ad2688256e7077bcce64be3112dabfd9b89d8827b67d8895f",
        "c9081857bf4b8fecc47db3bed881ffedef0b959508fbed092a9408ebc7da57ea",
        "e79d56d9edc770bca31a7a8d9789c3e3adace46beb757ce1331ad6b5e29828ef",
        "0f2e02d5bad6c17e0c1cfa73345d64040dad3524b1ca9ddd5119813bf0755432",
    )),
}

#: ``SimulationResult.stats`` keys reported as exact per-layer counts.
STAT_COUNTS = {
    "sim.events_processed": "events_processed",
    "sim.event_batches": "event_batches",
    "sim.rate_recomputes": "rate_recomputes",
    "sim.transfers_completed": "transfers_completed",
    "sim.socket_events": "socket_events",
    "cc.ticks": "cc_ticks",
    "cc.dropped_packets": "cc_dropped_packets",
    "cc.timeouts": "cc_timeouts",
}

def fluid_config(seed: int):
    """The standard 96-server tree campaign, cut to ``FIGURE_DURATION``."""
    return standard_config(seed).with_duration(FIGURE_DURATION)


def queued_config(seed: int):
    """``small_config`` on a 6x2 leaf-spine under DCTCP with ECMP."""
    return dataclasses.replace(
        small_config(seed),
        cluster=ClusterSpec.leaf_spine(racks=6, spines=2, servers_per_rack=8),
        transport_impl="dctcp",
        routing_impl="ecmp",
        duration=QUEUED_DURATION,
    )


def campaign_config(seed: int):
    """``small_config`` over ``FIGURE_DURATION`` with interactive jobs only.

    The campaign workload measures the scheduler, lease files, shared
    memory and disk cache, so each seed's build is kept small and of
    steady cost: without the rare 10-50 GB production jobs one seed's
    build takes ~0.2-0.4 s instead of 1-13 s.
    """
    base = small_config(seed)
    workload = dataclasses.replace(
        base.workload, template_weights={"interactive": 1.0}
    )
    return dataclasses.replace(
        base, workload=workload, duration=FIGURE_DURATION
    )


@dataclass
class PassResult:
    """One measured pass: timings, identity and verdict."""

    wall_s: float
    cpu_s: float
    #: Content hash(es) of what the pass computed; equal across passes
    #: of one seed, traced or not.
    digest: str
    #: Exact work counts (``sim.*``/``cc.*``); equal across passes too.
    counts: dict = field(default_factory=dict)
    #: Per-layer values measured by the workload rather than the tracer.
    layers: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    #: Mean seconds of the host-speed kernel run during and around the
    #: pass (see hostspeed.py), 0 when the workload is not scaled; set
    #: by the runner.
    ref_s: float = 0.0


class Stopwatch:
    """Host and CPU seconds summed over the timed segments of a pass.

    With ``sample`` set, the host-speed sampler runs inside each segment
    (see hostspeed.py) and the time its timer handler took is not
    counted.  With ``children`` set, CPU time of reaped child processes
    (campaign workers) counts too.
    """

    def __init__(self, children: bool = False, sample: bool = True) -> None:
        self.children = children
        self.sample = sample
        self.wall = 0.0
        self.cpu = 0.0

    def _cpu(self) -> float:
        times = os.times()
        total = times.user + times.system
        if self.children:
            total += times.children_user + times.children_system
        return total

    @contextmanager
    def running(self):
        with SAMPLER.active() if self.sample else nullcontext():
            handler = SAMPLER.handler_s
            cpu = self._cpu()
            start = time.perf_counter()
            try:
                yield
            finally:
                sampling = SAMPLER.handler_s - handler
                self.wall += time.perf_counter() - start - sampling
                self.cpu += self._cpu() - cpu - sampling


def simulate_dataset(
    config, schedule_seed: int, tracer: Tracer
) -> ExperimentDataset:
    """Simulate ``config`` over ``schedule_seed``'s job schedule and build
    its dataset, stage by stage.

    The stages are ``build_dataset``'s own, called one by one so the
    live simulator can be instrumented and fed the fixed schedule.
    """
    sim = Simulator(config)
    tracer.instrument_simulator(sim)
    with tracer.span("workload.generate_schedule"):
        schedule = generate_schedule(
            config.workload,
            duration=config.duration,
            rng=RandomSource(schedule_seed).stream("workload"),
            external_hosts=list(sim.topology.external_hosts()),
        )
    result = sim.run(schedule=schedule)
    with tracer.span("core.reconstruct_flows"):
        flows = reconstruct_flows(result.socket_log)
    with tracer.span("core.tm_series_from_events"):
        tm10 = tm_series_from_events(
            result.socket_log, result.topology, window=10.0,
            duration=config.duration,
        )
    utilization = result.link_loads.utilization_matrix()
    tracer.unwrap()
    observed = np.array(
        [link.link_id for link in result.topology.inter_switch_links()],
        dtype=int,
    )
    return ExperimentDataset(
        config=config,
        result=result,
        flows=flows,
        tm10=tm10,
        utilization=utilization,
        observed_links=observed,
        bisection=bisection_bandwidth(result.topology),
    )


def run_figures(dataset, tracer: Tracer) -> None:
    """Run every registered figure experiment and consume its summary."""
    with tracer.span("experiments.figures"):
        for spec in experiment_specs("figure"):
            with tracer.span(f"experiments.{spec.name}"):
                spec.summary(spec.run(dataset))


def stat_counts(stats: dict) -> dict:
    return {name: float(stats.get(key, 0.0)) for name, key in STAT_COUNTS.items()}


def invariant_failures(source, required: tuple = ()) -> list[str]:
    """Run the cheap and bytes checkers; return what they found broken.

    ``required`` names checkers that must have run (not been skipped).
    """
    report = validate(source, tags=("cheap", "bytes"))
    failures = [
        f"{result.name}: {result.violations[0].message}"
        for result in report.results
        if result.status == "violation"
    ]
    ran = {result.name for result in report.results if result.status == "ok"}
    failures += [f"{name}: did not run" for name in required if name not in ran]
    return failures


def dataset_failures(dataset, required: tuple = ()) -> list[str]:
    failures = invariant_failures(dataset, required)
    if dataset.result.stats.get("transfers_completed", 0.0) <= 0:
        failures.append("pass completed no transfers")
    return failures


class Workload:
    """A named workload bound to one seed and one scratch directory."""

    name = ""
    #: Whether passes are scaled to the host's speed (see hostspeed.py).
    host_scaled = True

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Work done once before the first pass (part of ``setup_s``)."""

    def run_pass(self, tracer: Tracer) -> PassResult:
        raise NotImplementedError


class _SimulationWorkload(Workload):
    """Simulate one config and build its dataset; optionally the figures."""

    figures = False
    schedule_seed = FLUID_SCHEDULE_SEED
    #: Checkers that must have run on the dataset, beyond the defaults.
    required: tuple = ()

    def config(self):
        raise NotImplementedError

    def run_pass(self, tracer: Tracer) -> PassResult:
        clock = Stopwatch()
        with clock.running():
            dataset = simulate_dataset(
                self.config(), self.schedule_seed, tracer
            )
            if self.figures:
                run_figures(dataset, tracer)
        return PassResult(
            wall_s=clock.wall, cpu_s=clock.cpu,
            digest=dataset_content_hash(dataset),
            counts=stat_counts(dataset.result.stats),
            failures=dataset_failures(dataset, self.required),
        )


class FluidTree(_SimulationWorkload):
    """The standard campaign under the vectorized max-min allocator."""

    name = "fluid_tree"
    figures = True

    def config(self):
        return fluid_config(self.seed)


class QueuedFabric(_SimulationWorkload):
    """DCTCP queues on an ECMP leaf-spine: the cc tick does the work."""

    name = "queued_fabric"
    schedule_seed = QUEUED_SCHEDULE_SEED
    required = ("transport.queue_conservation",)

    def config(self):
        return queued_config(self.seed)


class TraceReplay(Workload):
    """Write, verify, rebuild and analyse a trace of a finished campaign."""

    name = "trace_replay"

    def setup(self) -> None:
        self.source = simulate_dataset(
            fluid_config(self.seed), FLUID_SCHEDULE_SEED, Tracer(enabled=False)
        )
        self.source_digest = dataset_content_hash(self.source)
        self.passes = 0
        # The source campaign stays in memory only to be written out each
        # pass.  Without this the collector's full sweeps rescan it every
        # other pass, a sixth of the pass spent on benchmark scaffolding
        # and the part of it that a loaded host slows most.
        gc.freeze()

    def _write(self, path) -> None:
        result = self.source.result
        loads = result.link_loads
        writer = TraceWriter(path, meta=trace_meta(result.config))
        writer.append_log(result.socket_log)
        writer.set_linkloads(
            loads.byte_matrix(), loads.capacities, loads.bin_width,
            self.source.observed_links,
            queue_depth=loads.queue_depth_matrix(),
        )
        writer.close()

    def run_pass(self, tracer: Tracer) -> PassResult:
        self.passes += 1
        path = self.workdir / f"pass-{self.passes}.reprotrace"
        clock = Stopwatch()
        with clock.running():
            with tracer.span("trace.write"):
                self._write(path)
            with tracer.span("trace.verify"):
                bad = TraceReader(path).verify()
            with tracer.span("trace.dataset_from_trace"):
                rebuilt = dataset_from_trace(path)
            run_figures(rebuilt, tracer)

        digest = dataset_content_hash(rebuilt)
        failures = [f"trace verify: {name}" for name in bad]
        if digest != self.source_digest:
            failures.append("dataset rebuilt from trace differs from in-memory")
        if not check_against_inmemory(path)["all_equal"]:
            failures.append("streaming analysis differs from in-memory")
        failures += invariant_failures(path, ("trace.manifest",))
        if not validate(path, names=["trace.chunk_hashes"]).ok:
            failures.append("trace.chunk_hashes failed")
        if self.source.result.stats.get("transfers_completed", 0.0) <= 0:
            failures.append("source campaign completed no transfers")
        reader = TraceReader(path)
        layers = {
            "trace.bytes_on_disk": float(reader.bytes_on_disk()),
            "trace.rows": float(reader.total_rows),
        }
        shutil.rmtree(path)
        return PassResult(
            wall_s=clock.wall, cpu_s=clock.cpu, digest=digest,
            counts=stat_counts(self.source.result.stats), layers=layers,
            failures=failures,
        )


#: Timeline phases of a campaign, as ``repro.telemetry.resources`` names them.
CAMPAIGN_PHASES = (
    "dataset-load", "import", "spawn", "claim", "lease-wait", "wait",
    "shm-attach", "compute", "merge",
)


class Campaign(Workload):
    """A warm-pool campaign, cold over an empty cache, then warm over it.

    One pass is the pair: ``wall_s`` covers both runs, and the per-layer
    ``campaign.cold_wall_s``/``campaign.warm_wall_s`` split it.
    """

    name = "campaign"
    # The workers keep every core busy during the pass, so a kernel run
    # inside it would time their contention, not the host; runs just
    # around the pass tracked it worse than no scaling at all.
    host_scaled = False

    def setup(self) -> None:
        self.jobs = min(len(os.sched_getaffinity(0)), CAMPAIGN_SEEDS)
        self.passes = 0

    def _run(self, cache_dir):
        return run_campaign(
            campaign_config(self.seed), seeds=CAMPAIGN_SEEDS, pool="warm",
            jobs=self.jobs, cache_dir=cache_dir, disk_cache=True,
        )

    def run_pass(self, tracer: Tracer) -> PassResult:
        self.passes += 1
        cache_dir = self.workdir / f"cache-{self.passes}"
        clock = Stopwatch(children=True, sample=self.host_scaled)
        with clock.running():
            cold = self._run(cache_dir)
        cold_wall = clock.wall
        with clock.running():
            warm = self._run(cache_dir)

        failures = []
        cold_hashes = [run.content_hash for run in cold.seed_runs]
        if [run.content_hash for run in warm.seed_runs] != cold_hashes:
            failures.append("warm pass content hashes differ from cold")
        if any(run.from_disk_cache for run in cold.seed_runs):
            failures.append("cold pass hit a disk cache it should not have")
        hits = sum(run.from_disk_cache for run in warm.seed_runs)
        if hits != len(warm.seed_runs):
            failures.append("warm pass missed the disk cache")
        disk = DatasetDiskCache(cache_dir)
        for run in cold.seed_runs:
            dataset = disk.load(run.fingerprint)
            if dataset is None:
                failures.append(f"seed {run.seed}: dataset not in the cache")
                continue
            failures += [f"seed {run.seed}: {text}"
                         for text in dataset_failures(dataset)]
        totals = cold.timeline.get("phase_totals", {})
        layers = {
            f"campaign.phase.{phase}.s": float(totals.get(phase, 0.0))
            for phase in CAMPAIGN_PHASES
        }
        layers.update({
            "campaign.cold_wall_s": cold_wall,
            "campaign.warm_wall_s": clock.wall - cold_wall,
            "campaign.seed_build_s.max": max(
                run.build_seconds for run in cold.seed_runs
            ),
            "campaign.disk_cache_hits": float(hits),
            "campaign.takeovers": float(cold.scheduler.get("takeovers", 0)),
            "campaign.respawns": float(cold.scheduler.get("respawns", 0)),
            "campaign.timeline_coverage": float(
                cold.timeline.get("coverage", 0.0)
            ),
        })
        shutil.rmtree(cache_dir)
        return PassResult(
            wall_s=clock.wall, cpu_s=clock.cpu, digest=",".join(cold_hashes),
            layers=layers, failures=failures,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (FluidTree, QueuedFabric, TraceReplay, Campaign)
}
