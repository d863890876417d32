"""Resumable work-queue campaign scheduler over the content-addressed cache.

This is the one way a campaign runs.  Instead of assigning each seed
to a worker up front (where a crashed worker loses its seed and a
re-run repeats everything), a campaign is a **work queue coordinated
entirely through the disk cache directory**: every unit of work is a
config-fingerprint key (the same sha256 the dataset cache is addressed
by), and a campaign's queue lives in ``<cache-root>/queue-<id>/`` as
two kinds of small files —

* ``<fingerprint>.lease`` — an atomically-created (``O_CREAT|O_EXCL``)
  claim holding pid / host / heartbeat / TTL.  A background thread
  renews the heartbeat; any worker that finds a lease whose heartbeat
  is older than its TTL (or whose pid is dead on this host) may take
  the unit over.
* ``<fingerprint>.result.json`` — the published result record, written
  via temp-file + ``os.replace`` so publication is atomic and
  idempotent: two workers racing the same unit (a takeover of a slow
  but living worker) publish byte-identical records, deterministically.

Because the queue *is* the state, a crashed, killed or late-added
worker is a no-op and ``repro campaign run`` is resumable by
construction — re-invoking with ``resume=True`` loads every published
result and only the missing keys are computed.  With ``jobs=1`` the
loop claim → load-or-compute → run experiments → publish runs
in-process; with more, the workers are a **persistent warm pool**:
each spawned process imports numpy/repro once, then runs the same loop
until every key in the queue has a result.  A takeover redoes a unit
from the disk cache, so it loads rather than rebuilds whatever the
dead worker already stored.  The timeline gains two phases for the
queue: ``claim`` (lease acquisition) and ``lease-wait`` (idle while
every remaining unit is leased elsewhere).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import queue as queue_module
import secrets
import signal
import socket
import sys
import threading
import time
from typing import Callable, Sequence

from ..telemetry import NULL_TELEMETRY, ResourceProfiler, Telemetry, worker_report
from ..telemetry.resources import (
    PHASE_CLAIM,
    PHASE_COMPUTE,
    PHASE_DATASET,
    PHASE_LEASE_WAIT,
    PHASE_WAIT,
)
from .cache import (
    DatasetDiskCache,
    config_fingerprint,
    dataset_content_hash,
    default_cache_dir,
)
from .common import _disk_cache_enabled, build_dataset
from .registry import get_experiment

__all__ = [
    "DEFAULT_LEASE_TTL",
    "campaign_queue_id",
    "queue_dir_for",
    "claim_lease",
    "read_lease",
    "lease_is_stale",
    "Lease",
    "publish_result",
    "load_result",
    "reset_queue",
    "queue_status",
    "run_queue",
]

#: Default lease time-to-live, seconds.  A worker whose heartbeat is
#: older than this is presumed dead and its unit may be taken over;
#: heartbeats renew every TTL/4, so transient stalls shorter than
#: ~3/4 TTL never trigger a takeover.
DEFAULT_LEASE_TTL = 30.0

#: Worker poll cadence while every remaining unit is leased elsewhere.
_POLL_INTERVAL = 0.05

#: Parent drain cadence (result-queue timeout between housekeeping).
_DRAIN_INTERVAL = 0.25

#: Upper bound on the concurrent-build gate wait.  The gate serialises
#: CPU-bound dataset builds to the core count (an optimisation, never a
#: correctness dependency); the timeout guarantees a permit leaked by a
#: SIGKILLed builder cannot wedge the queue.
_GATE_TIMEOUT = 120.0

#: Fields that make up a published (and resumable) result record.
_RESULT_FIELDS = (
    "seed",
    "fingerprint",
    "content_hash",
    "wall_seconds",
    "build_seconds",
    "from_disk_cache",
    "summaries",
)

#: Test hook: ``"<seed>:<stage>"`` makes the first worker to reach that
#: stage (``claimed`` or ``published``) for that seed SIGKILL itself,
#: exactly once per queue.  Used by the crash-injection tests and the
#: CI kill-one-worker scenario; never set in normal operation.
KILL_ENV = "REPRO_SCHEDULER_KILL"


# ------------------------------------------------------------------ queue id


def campaign_queue_id(base_config, seeds: Sequence[int],
                      experiments: Sequence[str]) -> str:
    """Stable id for a campaign's work queue (16 hex chars).

    Derived from the base config fingerprint plus the seed and
    experiment lists, so re-invoking the same campaign — hours later,
    from another process — lands on the same queue directory, which is
    what makes ``resume`` find its own results.
    """
    blob = json.dumps(
        {
            "base": config_fingerprint(base_config),
            "seeds": list(seeds),
            "experiments": list(experiments),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def queue_dir_for(queue_id: str, cache_dir=None) -> pathlib.Path:
    """The on-disk queue directory for a campaign queue id."""
    root = pathlib.Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return root / f"queue-{queue_id}"


def _lease_path(queue_dir: pathlib.Path, key: str) -> pathlib.Path:
    return queue_dir / f"{key}.lease"


def _result_path(queue_dir: pathlib.Path, key: str) -> pathlib.Path:
    return queue_dir / f"{key}.result.json"


# -------------------------------------------------------------------- leases


def read_lease(path) -> dict | None:
    """The lease body at ``path``, or None when absent/corrupt."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):  # pragma: no cover - exists, not ours
        return True
    return True


def lease_is_stale(lease: dict, now: float | None = None) -> bool:
    """Whether a lease's holder should be presumed dead.

    Stale means either the heartbeat is older than the lease's TTL, or
    — cheaper and immediate — the holding pid no longer exists on this
    host.  A stale lease may be unlinked and the unit re-claimed.
    """
    now = time.time() if now is None else now
    if lease.get("host") == socket.gethostname():
        pid = int(lease.get("pid", -1))
        if pid > 0 and not _pid_alive(pid):
            return True
    ttl = float(lease.get("ttl", DEFAULT_LEASE_TTL))
    return now - float(lease.get("heartbeat", 0.0)) > ttl


class Lease:
    """One held claim on a work unit, renewed by a background thread.

    ``acquire`` creates the lease file with ``O_CREAT | O_EXCL`` — the
    kernel guarantees exactly one winner per filename — then starts a
    renewer that rewrites the body (fresh ``heartbeat``) every TTL/4
    via temp-file + ``os.replace``.  ``release`` stops the renewer and
    unlinks the file (only if it still carries this lease's token).
    """

    def __init__(self, path, ttl: float = DEFAULT_LEASE_TTL) -> None:
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.path = pathlib.Path(path)
        self.ttl = float(ttl)
        self.token = secrets.token_hex(8)
        self.claimed_at: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _body(self) -> dict:
        return {
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "token": self.token,
            "claimed_at": self.claimed_at,
            "heartbeat": time.time(),
            "ttl": self.ttl,
        }

    def acquire(self) -> bool:
        """Try to create the lease file; True exactly for the winner."""
        self.claimed_at = time.time()
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(self._body(), handle)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._renew_loop, name="repro-lease-renewer", daemon=True
        )
        self._thread.start()
        return True

    def _renew(self) -> None:
        staging = self.path.with_name(
            f"{self.path.name}.renew-{os.getpid()}"
        )
        try:
            with open(staging, "w", encoding="utf-8") as handle:
                json.dump(self._body(), handle)
            os.replace(staging, self.path)
        except OSError:  # pragma: no cover - disk full / dir removed
            pass

    def _renew_loop(self) -> None:
        interval = self.ttl / 4.0
        while not self._stop.wait(interval):
            self._renew()

    def release(self) -> None:
        """Stop renewing and remove the lease file (token-checked)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        current = read_lease(self.path)
        if current is not None and current.get("token") != self.token:
            return  # taken over while we were presumed dead; not ours
        try:
            os.unlink(self.path)
        except OSError:  # pragma: no cover - already gone
            pass


def claim_lease(queue_dir, key: str,
                ttl: float = DEFAULT_LEASE_TTL) -> tuple[Lease | None, bool]:
    """Try to claim a unit; returns ``(lease, was_takeover)``.

    The fast path is a plain exclusive create.  When the file already
    exists, the current lease is read and — only if stale — unlinked
    (token-checked, so a fresh lease written in between survives) and
    claimed again.  ``(None, False)`` means someone live holds it.
    """
    path = _lease_path(pathlib.Path(queue_dir), key)
    lease = Lease(path, ttl)
    if lease.acquire():
        return lease, False
    current = read_lease(path)
    if current is not None and not lease_is_stale(current):
        return None, False
    recheck = read_lease(path)
    if recheck is not None and current is not None and \
            recheck.get("token") != current.get("token"):
        return None, False  # replaced underneath us; holder is live
    try:
        os.unlink(path)
    except OSError:
        pass
    if lease.acquire():
        return lease, True
    return None, False


# ------------------------------------------------------------------- results


def publish_result(queue_dir, key: str, record: dict) -> pathlib.Path:
    """Atomically publish a unit's result record into the queue.

    Only the resumable fields are written (telemetry reports stay
    in-band: a resumed unit contributes its hashes and summaries but
    not a stale timeline lane).  ``os.replace`` makes publication
    atomic and idempotent — the records are deterministic, so a
    takeover double-publish is byte-identical.
    """
    path = _result_path(pathlib.Path(queue_dir), key)
    payload = {name: record[name] for name in _RESULT_FIELDS}
    staging = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    with open(staging, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(staging, path)
    return path


def load_result(queue_dir, key: str) -> dict | None:
    """A previously published record, or None if absent/invalid."""
    try:
        with open(_result_path(pathlib.Path(queue_dir), key),
                  "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if any(name not in record for name in _RESULT_FIELDS):
        return None
    if record.get("fingerprint") != key:
        return None
    return record


def reset_queue(queue_dir) -> int:
    """Remove every queue artefact (leases, results, staging files).

    Returns the number of files removed.  This is what a non-``resume``
    campaign run does on startup — the default is a fresh computation.
    """
    root = pathlib.Path(queue_dir)
    if not root.is_dir():
        return 0
    removed = 0
    for pattern in ("*.lease", "*.result.json", "*.killed",
                    "*.tmp-*", "*.renew-*"):
        for path in root.glob(pattern):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
    return removed


def queue_status(base_config, seeds: Sequence[int],
                 experiments: Sequence[str], *, cache_dir=None) -> dict:
    """Inspect a campaign queue without touching it.

    Recomputes the queue id from the campaign parameters (the same
    derivation ``run_queue`` uses) and classifies every unit as
    ``done`` (result published), ``leased`` (live heartbeat),
    ``stale`` (takeover-eligible lease) or ``pending``.
    """
    qid = campaign_queue_id(base_config, seeds, experiments)
    qdir = queue_dir_for(qid, cache_dir)
    now = time.time()
    units = []
    counts = {"done": 0, "leased": 0, "stale": 0, "pending": 0}
    for seed in seeds:
        key = config_fingerprint(base_config.with_seed(seed))
        lease = None
        if _result_path(qdir, key).exists():
            state = "done"
        else:
            lease = read_lease(_lease_path(qdir, key))
            if lease is None:
                state = "pending"
            elif lease_is_stale(lease, now=now):
                state = "stale"
            else:
                state = "leased"
        counts[state] += 1
        units.append({
            "seed": seed,
            "fingerprint": key,
            "state": state,
            "lease": lease,
        })
    return {
        "queue_id": qid,
        "queue_dir": str(qdir),
        "exists": qdir.is_dir(),
        "units": units,
        "counts": counts,
    }


# ------------------------------------------------------------ crash injection


def _maybe_self_kill(stage: str, seed: int, queue_dir: pathlib.Path,
                     key: str) -> None:
    """Honour the ``REPRO_SCHEDULER_KILL`` test hook (at most once)."""
    spec = os.environ.get(KILL_ENV)
    if not spec:
        return
    try:
        want_seed, want_stage = spec.split(":", 1)
        if int(want_seed) != seed or want_stage != stage:
            return
    except ValueError:
        return
    marker = queue_dir / f"{key}.killed"
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # this queue already took its one injected crash
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


# ------------------------------------------------------------- worker bodies


def _acquire_dataset(config, key: str, tele, profiler, *, cache_dir,
                     disk_cache, build_gate, heartbeat, heartbeat_interval):
    """Materialise the unit's dataset through :func:`build_dataset`.

    The source is memory LRU → disk cache → simulate.  CPU-bound builds
    serialise through ``build_gate`` so N workers on a C-core host never
    run more than C simulations at once — the wait is billed to the
    ``wait`` phase, the build itself to ``dataset-load``, keeping the
    summed dataset-load comparable to a serial run.
    """
    needs_build = True
    if _disk_cache_enabled(disk_cache, cache_dir):
        needs_build = not DatasetDiskCache(cache_dir).entry_dir(key).exists()
    gated = needs_build and build_gate is not None
    if gated:
        wait_started = time.time()
        acquired = build_gate.acquire(timeout=_GATE_TIMEOUT)
        waited = time.time() - wait_started
        gated = acquired  # a timed-out permit is simply not released
        if waited > 0.01:
            profiler.add_phase(PHASE_WAIT, wait_started, waited,
                               reason="build-gate")
    try:
        with profiler.phase(PHASE_DATASET):
            return build_dataset(
                config, telemetry=tele, disk_cache=disk_cache,
                cache_dir=cache_dir, heartbeat=heartbeat,
                heartbeat_interval=heartbeat_interval,
            )
    finally:
        if gated:
            build_gate.release()


def _seed_heartbeat(seed: int) -> Callable[[dict], None]:
    """A per-seed progress printer for long campaigns (stderr)."""

    def beat(snapshot: dict) -> None:
        print(
            "[campaign seed {seed}] t={now:.1f}s/{duration:.1f}s "
            "({percent:.0f}%) events={events_processed} "
            "active_flows={active_flows}".format(seed=seed, **snapshot),
            file=sys.stderr,
            flush=True,
        )

    return beat


def _process_unit(seed: int, key: str, params: dict, build_gate, *,
                  submitted_at: float, idle_since: float | None,
                  claim_started: float, takeover: bool) -> dict:
    """Run one claimed unit end to end; returns the full result record.

    The caller holds the lease.  Builds or loads the dataset, runs the
    experiments into summaries and packs the worker's telemetry report;
    the queue phases are ``lease-wait`` for time idle before this claim
    and ``claim`` for the acquisition itself.
    """
    queue_dir = pathlib.Path(params["queue_dir"])
    config = params["base_config"].with_seed(seed)
    heartbeat_interval = params["heartbeat_interval"]
    started_at = time.time()
    tele = Telemetry()
    profiler = ResourceProfiler()
    profiler.start()
    profiler.add_startup_phases(submitted_at)
    if idle_since is not None and claim_started - idle_since > 0.01:
        profiler.add_phase(PHASE_LEASE_WAIT, idle_since,
                           claim_started - idle_since)
    profiler.add_phase(PHASE_CLAIM, claim_started,
                       started_at - claim_started, takeover=takeover)
    heartbeat = _seed_heartbeat(seed) if heartbeat_interval else None
    started = time.perf_counter()
    with tele.span("campaign.seed", seed=seed,
                   campaign_id=params["campaign_id"], pid=profiler.pid,
                   takeover=takeover):
        dataset = _acquire_dataset(
            config, key, tele, profiler,
            cache_dir=params["cache_dir"], disk_cache=params["disk_cache"],
            build_gate=build_gate, heartbeat=heartbeat,
            heartbeat_interval=heartbeat_interval,
        )
        build_seconds = time.perf_counter() - started
        _maybe_self_kill("published", seed, queue_dir, key)
        summaries = {}
        with profiler.phase(PHASE_COMPUTE):
            for name in params["names"]:
                spec = get_experiment(name)
                with tele.span("campaign.experiment", experiment=name):
                    if spec.kind == "ablation":
                        result = spec.run(seed=seed)
                    else:
                        result = spec.run(dataset)
                summaries[name] = spec.summary(result)
    profiler.stop()
    snapshot = tele.metrics.snapshot()
    from_disk_cache = (
        snapshot.get("dataset.disk_cache_hits", {}).get("value", 0.0) > 0
    )
    return {
        "seed": seed,
        "fingerprint": key,
        "content_hash": dataset_content_hash(dataset),
        "wall_seconds": time.perf_counter() - started,
        "build_seconds": build_seconds,
        "from_disk_cache": from_disk_cache,
        "summaries": summaries,
        "resumed": False,
        "takeover": takeover,
        "report": worker_report(
            tele, profiler,
            campaign_id=params["campaign_id"], seed=seed,
            submitted_at=submitted_at, started_at=started_at,
        ),
    }


def _worker_loop(params: dict, emit: Callable[[dict], None],
                 build_gate) -> int:
    """Claim-and-process until every unit in the queue has a result.

    The warm-pool body: runs in a long-lived process (or in-process for
    ``jobs <= 1``), so imports are paid once and the loop touches only
    queue files between units.  Returns the number of units this worker
    completed.  Crash tolerance is structural — if this process dies at
    *any* point in the loop, its lease goes stale and another worker
    redoes the unit from the cache.
    """
    queue_dir = pathlib.Path(params["queue_dir"])
    units = list(params["units"])
    offset = int(params.get("worker_index", 0))
    submitted_at = params["submitted_at"]
    lease_ttl = params["lease_ttl"]
    completed = 0
    first_unit = True
    idle_since: float | None = None
    while True:
        progressed = False
        remaining = False
        for index in range(len(units)):
            seed, key = units[(index + offset) % len(units)]
            if _result_path(queue_dir, key).exists():
                continue
            remaining = True
            claim_started = time.time()
            lease, takeover = claim_lease(queue_dir, key, ttl=lease_ttl)
            if lease is None:
                continue
            try:
                _maybe_self_kill("claimed", seed, queue_dir, key)
                record = _process_unit(
                    seed, key, params, build_gate,
                    submitted_at=(submitted_at if first_unit
                                  else claim_started),
                    idle_since=idle_since, claim_started=claim_started,
                    takeover=takeover,
                )
                publish_result(queue_dir, key, record)
                emit(record)
            finally:
                lease.release()
            completed += 1
            progressed = True
            first_unit = False
            idle_since = None
        if not remaining:
            return completed
        if not progressed:
            if idle_since is None:
                idle_since = time.time()
            time.sleep(_POLL_INTERVAL)


def _pool_worker(params: dict, result_queue, build_gate) -> None:
    """Entry point of one warm-pool process (spawn context).

    Importing this module in the child pulls in :mod:`repro.experiments`
    — numpy, the simulator and every registered experiment load once,
    then the worker loops on the queue shipping each record home.  Once
    its records are flushed to the parent it exits without interpreter
    teardown: the parent waits on that exit, and tearing down numpy and
    the simulator modules is most of it.
    """
    _worker_loop(params, result_queue.put, build_gate)
    result_queue.close()
    result_queue.join_thread()
    os._exit(0)


# ----------------------------------------------------------------- the queue


def run_queue(
    base_config,
    seed_list: Sequence[int],
    names: Sequence[str],
    *,
    jobs: int = 1,
    telemetry: Telemetry | None = None,
    cache_dir=None,
    disk_cache: bool | None = True,
    progress: Callable[[dict, int, int], None] | None = None,
    campaign_id: str = "",
    heartbeat_interval: float | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    resume: bool = False,
) -> dict:
    """Drive a campaign's work queue to completion.

    Builds the unit list (one config-fingerprint key per seed), resumes
    any published results when ``resume`` (otherwise resets the queue),
    then runs the claim/compute/publish loop — in-process for
    ``jobs <= 1``, else across ``jobs`` persistent spawn workers whose
    records drain through a multiprocessing queue.  Dead workers are
    respawned while unpublished units remain; results published by a
    worker that died before shipping its record are recovered from the
    queue directory.

    Returns ``{"records", "queue_id", "queue_dir", "takeovers",
    "resumed_seeds", "respawns"}`` where ``records`` maps
    seed → result record (freshly computed records carry a telemetry
    ``report``; resumed ones do not).
    """
    tele = telemetry or NULL_TELEMETRY
    queue_id = campaign_queue_id(base_config, seed_list, names)
    disk_on = _disk_cache_enabled(disk_cache, cache_dir)
    ephemeral: str | None = None
    if cache_dir is None and not disk_on:
        # Nothing persists without a cache, so don't scatter queue files
        # into the default cache root either — coordinate through a
        # throwaway directory (resume finds nothing there, correctly).
        import tempfile

        ephemeral = tempfile.mkdtemp(prefix="repro-queue-")
        queue_dir = queue_dir_for(queue_id, ephemeral)
    else:
        queue_dir = queue_dir_for(queue_id, cache_dir)
    queue_dir.mkdir(parents=True, exist_ok=True)
    units = [
        (seed, config_fingerprint(base_config.with_seed(seed)))
        for seed in seed_list
    ]
    if not resume:
        reset_queue(queue_dir)

    records: dict[int, dict] = {}
    resumed_seeds: list[int] = []
    total = len(units)

    def collect(record: dict) -> None:
        fresh = record["seed"] not in records
        records[record["seed"]] = record
        if fresh and progress is not None:
            progress(record, len(records), total)

    if resume:
        for seed, key in units:
            record = load_result(queue_dir, key)
            if record is not None:
                record["resumed"] = True
                resumed_seeds.append(seed)
                collect(record)

    pending = [(seed, key) for seed, key in units if seed not in records]
    takeovers = 0
    respawns = 0

    def absorb(record: dict) -> None:
        nonlocal takeovers
        if record.pop("takeover", False):
            takeovers += 1
        collect(record)

    base_params = {
        "queue_dir": str(queue_dir),
        "units": pending,
        "base_config": base_config,
        "names": tuple(names),
        "cache_dir": cache_dir,
        "disk_cache": disk_cache,
        "campaign_id": campaign_id,
        "heartbeat_interval": heartbeat_interval,
        "lease_ttl": lease_ttl,
    }

    if pending and jobs <= 1:
        params = dict(base_params, worker_index=0, submitted_at=time.time())
        _worker_loop(params, absorb, build_gate=None)
    elif pending:
        from multiprocessing import get_context

        context = get_context("spawn")
        result_queue = context.Queue()
        build_gate = context.BoundedSemaphore(max(1, os.cpu_count() or 1))
        workers: dict[int, object] = {}
        spawned = 0

        def spawn_worker() -> None:
            nonlocal spawned
            params = dict(base_params, worker_index=spawned,
                          submitted_at=time.time())
            process = context.Process(
                target=_pool_worker,
                args=(params, result_queue, build_gate),
                name=f"repro-campaign-worker-{spawned}",
            )
            process.start()
            workers[spawned] = process
            spawned += 1

        for _ in range(min(jobs, len(pending))):
            spawn_worker()
        max_respawns = max(4, 2 * jobs)
        try:
            while len(records) < total:
                try:
                    absorb(result_queue.get(timeout=_DRAIN_INTERVAL))
                    continue
                except queue_module.Empty:
                    pass
                dead = [
                    index for index, process in workers.items()
                    if not process.is_alive()
                ]
                for index in dead:
                    workers.pop(index).join()
                if dead:
                    # Records a dead worker shipped are all in the pipe;
                    # take them first, then recover results it published
                    # but died before shipping home.
                    while True:
                        try:
                            absorb(result_queue.get_nowait())
                        except queue_module.Empty:
                            break
                    for seed, key in pending:
                        if seed in records:
                            continue
                        record = load_result(queue_dir, key)
                        if record is not None:
                            record["resumed"] = False
                            collect(record)
                missing = total - len(records)
                if missing and not workers and respawns >= max_respawns:
                    raise RuntimeError(
                        f"campaign queue stalled: {missing} unit(s) missing "
                        f"after {respawns} respawns (queue {queue_dir})"
                    )
                if missing and len(workers) < min(jobs, missing) and \
                        respawns < max_respawns:
                    spawn_worker()
                    respawns += 1
        finally:
            # Keep reading while the workers exit: each flushes its
            # records into the pipe first, and an unread pipe would block
            # that exit.  A record arriving now supersedes one recovered
            # from the queue directory, which carries no report.
            deadline = time.time() + 10.0
            while workers and time.time() < deadline:
                try:
                    absorb(result_queue.get(timeout=0.01))
                except queue_module.Empty:
                    pass
                for index in [index for index, process in workers.items()
                              if not process.is_alive()]:
                    workers.pop(index).join()
            for process in workers.values():  # pragma: no cover - wedged
                process.terminate()
                process.join(timeout=2.0)
            result_queue.close()
            result_queue.join_thread()

    if ephemeral is not None:
        import shutil

        shutil.rmtree(ephemeral, ignore_errors=True)
    if takeovers:
        tele.counter("campaign.lease_takeovers").inc(takeovers)
    if resumed_seeds:
        tele.counter("campaign.seeds_resumed").inc(len(resumed_seeds))
    return {
        "records": records,
        "queue_id": queue_id,
        "queue_dir": str(queue_dir),
        "takeovers": takeovers,
        "resumed_seeds": resumed_seeds,
        "respawns": respawns,
    }
