"""Benchmark fixtures: one standard campaign + standardized timing.

The standard campaign (96 servers, eight scaled days) takes a couple of
minutes to build and is shared — memoised — by every benchmark.  Each
benchmark appends its paper-vs-measured table to a session report that is
printed at the end and written to ``benchmarks/report.txt``.

Timing goes through the shared :func:`repro.bench.timing.measure`
helper, so every benchmark in every file gets identical repeat/min
semantics — warmup discarded, best-of-rounds reported — instead of each
file's ad-hoc (and mutually incomparable) treatment of warm-up effects.
The ``benchmark`` fixture keeps the familiar call styles::

    result = benchmark(fn, *args)                 # repeat/min defaults
    result = benchmark.pedantic(fn, args=(), rounds=1, iterations=1)

``pytest_sessionfinish`` writes the collected timings as a schema-v2
``BENCH_*.json`` (see :mod:`repro.bench.results`) — to
``benchmarks/BENCH_core_ops.json`` by default, or wherever the
``REPRO_BENCH_OUT`` environment variable points (that is how
``repro bench run`` collects results from its pytest subprocess).
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.bench.results import BenchResult, write_results
from repro.bench.timing import Timing, measure
from repro.experiments import build_dataset, standard_config
from repro.experiments.common import ExperimentDataset
from repro.telemetry import Telemetry

_REPORT: list[str] = []
_TIMINGS: dict[str, Timing] = {}
_RECORDS: dict[str, dict] = {}
_TELEMETRY = Telemetry()
_PROFILER = None


@pytest.fixture(scope="session")
def standard_dataset() -> ExperimentDataset:
    """The standard measurement campaign, built once per session."""
    return build_dataset(standard_config(), telemetry=_TELEMETRY)


@pytest.fixture()
def report():
    """Callable that records a table for the end-of-session report."""

    def add(text: str) -> None:
        _REPORT.append(text)

    return add


class _Benchmark:
    """Standardized timing entry point handed to each benchmark."""

    def __init__(self, nodeid: str) -> None:
        self._nodeid = nodeid

    def _record(self, timing: Timing) -> None:
        _TIMINGS[self._nodeid] = timing

    def __call__(self, fn, *args, **kwargs):
        result, timing = measure(
            fn, *args, rounds=3, iterations=1, warmup=1, **kwargs
        )
        self._record(timing)
        return result

    def pedantic(self, fn, args=(), kwargs=None, rounds: int = 1,
                 iterations: int = 1, warmup: int = 0):
        result, timing = measure(
            fn, *args, rounds=rounds, iterations=iterations, warmup=warmup,
            **(kwargs or {}),
        )
        self._record(timing)
        return result


@pytest.fixture()
def benchmark(request) -> _Benchmark:
    """Repeat/min timing for one benchmark (shadows pytest-benchmark)."""
    return _Benchmark(request.node.nodeid)


@pytest.fixture()
def bench_record():
    """Record structured non-timing metrics (peak RSS, counters).

    Entries land in the results JSON under ``"scale_metrics"``, keyed by
    the name the benchmark chooses — alongside, not inside, the timing
    entries, so ``repro bench compare`` keeps seeing a flat timing list.
    """

    def record(name: str, payload: dict) -> None:
        _RECORDS[name] = payload

    return record


def pytest_configure(config):
    # If pytest-benchmark happens to be installed, unregister it: its
    # makereport hook rejects any `benchmark` fixture that is not its
    # own, and this suite supplies the standardized one above.
    plugin = config.pluginmanager.get_plugin("pytest-benchmark")
    if plugin is not None:
        config.pluginmanager.unregister(plugin)
    # ``repro bench run --profile`` asks for a whole-session cProfile
    # (see repro.bench.runner): the dump lands next to the BENCH json.
    if os.environ.get("REPRO_BENCH_PROFILE"):
        import cProfile

        global _PROFILER
        _PROFILER = cProfile.Profile()
        _PROFILER.enable()


def _write_bench_json(directory: pathlib.Path) -> None:
    from repro.telemetry.tracing import aggregate_spans

    results = [
        BenchResult(
            id=nodeid,
            wall_seconds=timing.best,
            mean_seconds=timing.mean,
            median_seconds=timing.median,
            rounds=timing.rounds,
            iterations=timing.iterations,
        )
        for nodeid, timing in _TIMINGS.items()
    ]
    out = os.environ.get("REPRO_BENCH_OUT")
    path = pathlib.Path(out) if out else directory / "BENCH_core_ops.json"
    extra = {
        "campaign_timings": aggregate_spans(_TELEMETRY.tracer.spans),
        "campaign_metrics": _TELEMETRY.metrics.snapshot(),
    }
    if _RECORDS:
        extra["scale_metrics"] = _RECORDS
    write_results(path, results, extra=extra)


def _write_profile_dump(directory: pathlib.Path, top_n: int = 40) -> None:
    """Dump the session profile next to the BENCH json (``--profile``)."""
    import io
    import pstats

    _PROFILER.disable()
    out = os.environ.get("REPRO_BENCH_OUT")
    bench_path = pathlib.Path(out) if out else directory / "BENCH_core_ops.json"
    profile_path = bench_path.with_suffix(".profile.txt")
    stream = io.StringIO()
    stats = pstats.Stats(_PROFILER, stream=stream)
    stats.sort_stats("cumulative").print_stats(top_n)
    profile_path.write_text(stream.getvalue())
    print(f"profile dump written to {profile_path}")


def pytest_sessionfinish(session, exitstatus):
    directory = pathlib.Path(__file__).parent
    if _TIMINGS:
        _write_bench_json(directory)
    if _PROFILER is not None:
        _write_profile_dump(directory)
    if not _REPORT:
        return
    body = "\n\n".join(_REPORT)
    banner = "\n" + "=" * 72 + "\nPAPER vs MEASURED (this session)\n" + "=" * 72
    print(banner)
    print(body)
    out = directory / "report.txt"
    out.write_text(body + "\n")
