"""Multi-seed campaign runner: confidence intervals, in parallel.

The paper's headline statistics come from one two-month campaign on one
cluster; a reproduction can do better by repeating the campaign over
many seeds and reporting the distribution.  :func:`run_campaign` builds
the dataset and runs a selected set of registered experiments for each
seed through the resumable work queue of
:mod:`~repro.experiments.scheduler` — in-process for ``jobs=1``, across
``jobs`` persistent workers otherwise — then aggregates every numeric
summary metric into mean / sample stdev / normal-approximation 95% CI
rows.

Workers share nothing in memory but everything on disk: each builds (or
loads) its dataset through the content-addressed disk cache, so a warm
campaign re-run touches no simulator code at all.  Each unit also
runs under its own :class:`~repro.telemetry.Telemetry` handle and
:class:`~repro.telemetry.ResourceProfiler` with a propagated trace
context (campaign id, seed, worker pid); its metrics, spans and
per-phase resource profile ship back with the seed result and the
parent merges them into one campaign-wide timeline
(:func:`repro.telemetry.merge_worker_reports`) — counters sum,
histograms merge reservoirs, spans interleave on wall-clock in
per-worker lanes.  The campaign's provenance — per-seed content hashes,
timings, cache behaviour and the aggregate table — lands in a
:class:`~repro.telemetry.RunManifest` that ``repro campaign report``
renders back into tables; the timeline is written next to it.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

from ..config import SimulationConfig
from ..telemetry import (
    NULL_TELEMETRY,
    RunManifest,
    Telemetry,
    merge_worker_reports,
)
from .cache import config_fingerprint
from .common import small_config
from .registry import experiment_names, get_experiment
from .reporting import format_table
from .scheduler import DEFAULT_LEASE_TTL, run_queue

__all__ = [
    "SeedRun",
    "CampaignResult",
    "run_campaign",
    "aggregate_summaries",
    "campaign_manifest",
    "render_campaign_report",
]

#: Normal-approximation z for a two-sided 95% confidence interval.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SeedRun:
    """One seed's completed campaign: provenance, timings, summaries."""

    seed: int
    fingerprint: str
    content_hash: str
    wall_seconds: float
    build_seconds: float
    from_disk_cache: bool
    #: ``{experiment name: {metric: value}}`` numeric summary rows.
    summaries: dict = field(default_factory=dict)
    #: True when this seed's record was loaded from a previously
    #: published queue result (``resume=True``) instead of being
    #: recomputed in this invocation.
    resumed: bool = False

    def to_dict(self) -> dict:
        """JSON-friendly record (manifest ``per_seed`` rows)."""
        return asdict(self)


@dataclass
class CampaignResult:
    """A finished multi-seed campaign and its aggregate statistics."""

    base_config: SimulationConfig
    seeds: list[int]
    experiments: list[str]
    jobs: int
    wall_seconds: float
    seed_runs: list[SeedRun]
    #: ``{experiment: {metric: {mean, stdev, ci95, n, min, max}}}``.
    aggregates: dict
    #: Propagated trace context shared by every worker.
    campaign_id: str = ""
    #: Merged cross-process timeline (:mod:`repro.telemetry.merge`);
    #: written next to the manifest by ``repro campaign run``.
    timeline: dict = field(default_factory=dict)
    #: Work-queue bookkeeping (queue id/dir, takeovers, resumed seeds,
    #: respawns).
    scheduler: dict = field(default_factory=dict)

    def extra(self) -> dict:
        """The manifest ``extra['campaign']`` payload."""
        payload = {
            "campaign_id": self.campaign_id,
            "seeds": list(self.seeds),
            "experiments": list(self.experiments),
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "per_seed": [run.to_dict() for run in self.seed_runs],
            "aggregates": self.aggregates,
        }
        if self.scheduler:
            payload["scheduler"] = dict(self.scheduler)
        if self.timeline:
            payload["observability"] = {
                "coverage": self.timeline.get("coverage", 0.0),
                "phase_totals": self.timeline.get("phase_totals", {}),
            }
        return payload


def aggregate_summaries(
    seed_runs: Sequence[SeedRun], experiments: Iterable[str]
) -> dict:
    """Per-experiment, per-metric mean / stdev / 95% CI across seeds.

    The CI half-width uses the normal approximation
    ``1.96 * stdev / sqrt(n)`` (stdev is the ``ddof=1`` sample estimate;
    both are 0 for a single seed) — adequate for the handful-of-seeds
    regime this runner targets, and dependency-free.
    """
    aggregates: dict = {}
    for name in experiments:
        metrics: dict = {}
        keys: list[str] = []
        for run in seed_runs:
            for key in run.summaries.get(name, {}):
                if key not in keys:
                    keys.append(key)
        for key in keys:
            values = [
                run.summaries[name][key]
                for run in seed_runs
                if key in run.summaries.get(name, {})
            ]
            n = len(values)
            mean = sum(values) / n
            if n > 1:
                variance = sum((v - mean) ** 2 for v in values) / (n - 1)
                stdev = math.sqrt(variance)
            else:
                stdev = 0.0
            metrics[key] = {
                "mean": mean,
                "stdev": stdev,
                "ci95": _Z95 * stdev / math.sqrt(n),
                "n": n,
                "min": min(values),
                "max": max(values),
            }
        aggregates[name] = metrics
    return aggregates


def run_campaign(
    base_config: SimulationConfig | None = None,
    *,
    seeds: int | Sequence[int] = 4,
    experiments: Sequence[str] | None = None,
    jobs: int = 1,
    telemetry: Telemetry | None = None,
    cache_dir=None,
    disk_cache: bool | None = True,
    progress: Callable[[dict, int, int], None] | None = None,
    campaign_id: str | None = None,
    heartbeat_interval: float | None = None,
    pool: str = "warm",
    resume: bool = False,
    lease_ttl: float | None = None,
) -> CampaignResult:
    """Run the campaign over multiple seeds, optionally in parallel.

    ``seeds`` is either a count (seeds ``base.seed .. base.seed+N-1``) or
    an explicit sequence.  ``experiments`` defaults to every registered
    figure experiment.  Every campaign runs through the
    :mod:`~repro.experiments.scheduler` work queue: ``jobs <= 1`` runs
    its claim loop in-process (sharing the in-memory dataset cache);
    ``jobs > 1`` runs it in that many persistent spawn workers claiming
    config-fingerprint keys through lease files in the cache directory.
    ``progress`` (if given) is called with ``(record, completed, total)``
    per seed.

    ``resume=True`` honours results a previous (possibly interrupted)
    invocation published — only missing seeds are computed, and the
    finished campaign's content hashes are identical to an
    uninterrupted run — while ``resume=False`` resets the queue first.
    ``lease_ttl`` bounds how long a dead worker's claim blocks takeover.
    ``pool`` accepts only ``"warm"`` and selects nothing; it is kept so
    existing callers that name it keep working.

    ``campaign_id`` is the trace context every worker stamps on its
    spans (default: derived from the config fingerprint — deterministic,
    so re-runs of the same campaign are diffable).  With
    ``heartbeat_interval`` set, each seed's simulation prints progress
    heartbeats to stderr every that many simulated seconds.  The result
    carries a merged cross-process ``timeline`` whose per-worker lanes
    and phase totals say where the wall-clock went.
    """
    if pool != "warm":
        raise ValueError(f"unknown pool {pool!r}: expected 'warm'")
    tele = telemetry or NULL_TELEMETRY
    if base_config is None:
        base_config = small_config()
    if isinstance(seeds, int):
        if seeds < 1:
            raise ValueError("seeds must be >= 1")
        seed_list = [base_config.seed + i for i in range(seeds)]
    else:
        seed_list = list(seeds)
        if not seed_list:
            raise ValueError("seeds must not be empty")
    if len(set(seed_list)) != len(seed_list):
        raise ValueError("seeds must be distinct")
    names = list(experiments) if experiments else experiment_names(kind="figure")
    for name in names:
        get_experiment(name)  # fail fast on unknown experiments
    if campaign_id is None:
        campaign_id = (
            f"{config_fingerprint(base_config)[:12]}"
            f".s{seed_list[0]}x{len(seed_list)}.j{jobs}"
        )

    window_start = time.time()
    started = time.perf_counter()
    with tele.span("campaign.run", seeds=len(seed_list), jobs=jobs,
                   campaign_id=campaign_id):
        outcome = run_queue(
            base_config, seed_list, names,
            jobs=jobs, telemetry=tele, cache_dir=cache_dir,
            disk_cache=disk_cache, progress=progress,
            campaign_id=campaign_id,
            heartbeat_interval=heartbeat_interval,
            lease_ttl=lease_ttl if lease_ttl else DEFAULT_LEASE_TTL,
            resume=resume,
        )
        # Merge every worker's metrics, spans and resource phases into
        # the campaign-wide timeline (and, through it, the parent
        # telemetry session the manifest snapshots).  Resumed records
        # carry no report — their stale lanes would misdate the window —
        # so they contribute hashes and summaries only.
        ordered = [outcome["records"][seed] for seed in seed_list]
        reports = []
        for record in ordered:
            record.setdefault("resumed", False)
            report = record.pop("report", None)
            if report is not None and not record["resumed"]:
                reports.append(report)
        with tele.span("campaign.merge", campaign_id=campaign_id):
            timeline = merge_worker_reports(
                reports,
                campaign_id=campaign_id,
                window_start=window_start,
                jobs=jobs,
                telemetry=tele,
            )
    wall_seconds = time.perf_counter() - started

    tele.counter("campaign.seeds_completed").inc(len(ordered))
    seed_runs = [SeedRun(**record) for record in ordered]
    return CampaignResult(
        base_config=base_config,
        seeds=seed_list,
        experiments=names,
        jobs=jobs,
        wall_seconds=wall_seconds,
        seed_runs=seed_runs,
        aggregates=aggregate_summaries(seed_runs, names),
        campaign_id=campaign_id,
        timeline=timeline,
        scheduler={
            key: outcome[key]
            for key in ("queue_id", "queue_dir", "takeovers",
                        "resumed_seeds", "respawns")
        },
    )


def campaign_manifest(
    result: CampaignResult, telemetry: Telemetry
) -> RunManifest:
    """A provenance manifest for a finished campaign."""
    return RunManifest.capture(
        "campaign run",
        result.base_config,
        telemetry,
        extra={"campaign": result.extra()},
    )


def _format_value(value: float) -> str:
    return f"{value:.6g}"


def _seed_row(run: dict) -> tuple:
    """One per-seed table row, tolerant of partial records.

    A manifest written mid-campaign (interrupted run, or a queue result
    recovered without timings) may lack any field; missing values render
    as ``?`` instead of crashing the report.
    """
    def seconds(name: str) -> str:
        value = run.get(name)
        return f"{value:.2f}" if isinstance(value, (int, float)) else "?"

    source = "disk" if run.get("from_disk_cache") else "built"
    if run.get("resumed"):
        source += " (resumed)"
    content_hash = run.get("content_hash") or "?"
    return (
        str(run.get("seed", "?")),
        content_hash[:12],
        seconds("build_seconds"),
        seconds("wall_seconds"),
        source,
    )


def render_campaign_report(campaign: dict) -> str:
    """Human-readable tables from a manifest's ``extra['campaign']``.

    Degrades gracefully on a manifest from an interrupted run: partial
    per-seed records render with ``?`` placeholders, and seeds the
    campaign planned but never completed appear as ``missing`` rows so
    the operator sees exactly what a ``--resume`` would pick up.
    """
    sections = []
    per_seed = [run for run in campaign.get("per_seed", []) if isinstance(run, dict)]
    rows = [_seed_row(run) for run in per_seed]
    completed = {run.get("seed") for run in per_seed}
    missing = [
        seed for seed in campaign.get("seeds", []) if seed not in completed
    ]
    for seed in missing:
        rows.append((str(seed), "-", "-", "-", "missing"))
    title = (
        f"campaign — {len(per_seed)} seeds, jobs={campaign.get('jobs', '?')}, "
        f"{campaign.get('wall_seconds', 0.0):.2f}s wall"
    )
    if missing:
        title += f" — INCOMPLETE ({len(missing)} seed(s) missing)"
    sections.append(format_table(
        title, rows,
        headers=("seed", "content hash", "build s", "total s", "dataset"),
    ))
    scheduler = campaign.get("scheduler")
    if scheduler:
        notes = [
            f"queue {scheduler.get('queue_id', '?')} at "
            f"{scheduler.get('queue_dir', '?')}"
        ]
        if scheduler.get("resumed_seeds"):
            notes.append(f"resumed seeds {scheduler['resumed_seeds']}")
        if scheduler.get("takeovers"):
            notes.append(f"{scheduler['takeovers']} lease takeover(s)")
        if scheduler.get("respawns"):
            notes.append(f"{scheduler['respawns']} worker respawn(s)")
        sections.append("scheduler: " + "; ".join(notes))
    observability = campaign.get("observability")
    if observability and observability.get("phase_totals"):
        rows = [
            (name, f"{seconds:.2f}")
            for name, seconds in observability["phase_totals"].items()
        ]
        sections.append(format_table(
            "where the wall-clock went — lane coverage "
            f"{observability.get('coverage', 0.0):.0%}",
            rows,
            headers=("phase", "total s"),
        ))
    for name in campaign.get("experiments", []):
        metrics = campaign.get("aggregates", {}).get(name, {})
        rows = [
            (
                metric,
                f"{_format_value(agg['mean'])} ± {_format_value(agg['ci95'])}",
                _format_value(agg["stdev"]),
                _format_value(agg["min"]),
                _format_value(agg["max"]),
                str(agg["n"]),
            )
            for metric, agg in metrics.items()
        ]
        sections.append(format_table(
            f"{name} — across seeds",
            rows,
            headers=("metric", "mean ± 95% CI", "stdev", "min", "max", "n"),
        ))
    return "\n\n".join(sections)
