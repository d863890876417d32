"""Run one benchmark workload and print its metrics as one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload fluid_tree --seed 4 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json
with no timers in the program.  ``--trace 1`` alternates untraced and
traced passes of the same workload and prints the per-layer metrics,
including ``tracing.overhead_s`` (traced minus untraced wall seconds).
Passes repeat until ``--seconds`` have gone by, and at least
``MIN_PASSES`` run; times are medians over passes.  Every pass is
checked (see workloads.py) and a pass that fails a check counts in
``failed``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the host description and per-pass figures.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# numpy here links a threaded OpenBLAS: one thread per process keeps the
# passes from oversubscribing a small host, and campaign workers inherit
# the setting because they are spawned from this environment.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path.cwd()
#: Child processes that repeat the set-up, so ``setup_s`` is a median.
SETUP_PROBES = 4
#: A run makes at least this many passes (traced and untraced together).
MIN_PASSES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def host_info() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
    }


def probe_setup(args: argparse.Namespace) -> tuple[float, float]:
    """(scaled, unscaled) set-up seconds of a fresh interpreter running the
    same workload."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=150, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["setup_raw_s"]


def peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def layer_values(tracer, result) -> dict:
    """Every per-layer value one traced pass produced, by metric name."""
    values = {f"{name}.s": seconds for name, seconds in tracer.seconds.items()}
    values.update(
        {f"{name}.calls": float(calls) for name, calls in tracer.calls.items()}
    )
    values["engine.self_s"] = tracer.self_seconds.get("engine.run", 0.0)
    values["process.cpu_s"] = result.cpu_s
    values.update(result.counts)
    values.update(result.layers)
    return values


def run_passes(workload, seconds: float, traced: bool):
    """Measured passes until ``seconds`` elapse and at least ``MIN_PASSES``
    ran: (untraced, traced) lists.

    For a workload scaled to the host's speed, ``PassResult.ref_s`` is
    the mean time of the host-speed kernel over the runs the pass's
    timer made and one run just before and one just after the pass.  A pass that raises is recorded as ``None`` (a
    failed operation).
    """
    from hostspeed import SAMPLER
    from layers import Tracer

    SAMPLER.sample()  # warm-up
    untraced, with_trace = [], []
    deadline = time.perf_counter() + seconds
    while True:
        modes = (False, True) if traced else (False,)
        for enabled in modes:
            tracer = Tracer(enabled=enabled)
            SAMPLER.reset()
            SAMPLER.sample()
            try:
                result = workload.run_pass(tracer)
            except Exception:
                traceback.print_exc()
                result = None
            SAMPLER.sample()
            if result is not None and workload.host_scaled:
                result.ref_s = SAMPLER.mean_kernel_s()
            (with_trace if enabled else untraced).append((result, tracer))
        passes = len(untraced) + len(with_trace)
        if time.perf_counter() >= deadline and passes >= MIN_PASSES:
            return untraced, with_trace


def descendants() -> list[int]:
    """Pids of every live process descended from this one."""
    parents: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # ended while we looked
            continue
        # The command name may hold spaces; the ppid follows its ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry.name))
    found, frontier = [], [os.getpid()]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found += children
        frontier += children
    return found


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Campaign workers are joined by ``run_campaign`` itself; what outlives
    it is multiprocessing's resource tracker, which would otherwise only
    notice this process's exit after the fact.  Anything else still
    running is terminated, then killed after ``grace`` seconds.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        with contextlib.suppress(OSError, ChildProcessError):
            tracker._stop()  # closes its pipe and waits for it
    deadline = time.monotonic() + grace
    signal_to_send = signal.SIGTERM
    while pids := descendants():
        if time.monotonic() >= deadline:
            signal_to_send = signal.SIGKILL
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal_to_send)
        # Reap our own children; others end once their parent has.
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        time.sleep(0.05)


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    from hostspeed import scaled, setup_kernel_s
    from workloads import DEFAULT_SEED, EXPECTED_DIGESTS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_raw = time.perf_counter() - STARTED
        setups = [(scaled(setup_raw, setup_kernel_s()), setup_raw)]
        if args.setup_probe:
            print(json.dumps({
                "setup_s": setups[0][0], "setup_raw_s": setup_raw,
            }))
            return 0
        if not args.trace:  # only the untraced run reports setup_s
            setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
        untraced, traced = run_passes(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    passes = untraced + traced
    expected = (
        EXPECTED_DIGESTS.get(args.workload)
        if args.seed == DEFAULT_SEED else None
    )
    reference = next((r for r, _ in passes if r is not None), None)
    failed = 0
    for result, _ in passes:
        if result is None:
            failed += 1
            continue
        if result.digest != reference.digest:
            result.failures.append("output differs from the first pass")
        if result.counts != reference.counts:
            result.failures.append("work counts differ from the first pass")
        if expected is not None and result.digest != expected:
            result.failures.append("output differs from the recorded digest")
        if result.failures:
            failed += 1
            for failure in result.failures:
                print(f"check failed: {failure}", file=sys.stderr)

    def median_of(results, key) -> float:
        # 0 when every pass failed: the run is then reported as incorrect.
        values = [getattr(r, key) for r, _ in results if r is not None]
        return float(statistics.median(values)) if values else 0.0

    def scaled_wall(result) -> float:
        if not result.ref_s:  # the workload is not scaled
            return result.wall_s
        return scaled(result.wall_s, result.ref_s)

    def metric(name: str, value: float, unit: str) -> dict:
        return {name: {"value": value, "unit": unit}}

    metrics: dict = {}
    if args.trace:
        per_pass = [layer_values(tracer, r) for r, tracer in traced
                    if r is not None]
        overhead = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
        for entry in spec["per_layer"]:
            name = entry["name"]
            if name == "tracing.overhead_s":
                value = overhead
            elif name == "host.wall_s":
                value = median_of(untraced, "wall_s")
            elif name == "host.ref_kernel_s":  # 0 when not scaled
                value = median_of(passes, "ref_s")
            else:
                samples = [values.get(name, 0.0) for values in per_pass]
                value = float(statistics.median(samples)) if samples else 0.0
            metrics.update(metric(name, value, entry["unit"]))
    else:
        measured = {
            "setup_s": float(statistics.median(s for s, _ in setups)),
            "scaled_wall_s": float(statistics.median(
                [scaled_wall(r) for r, _ in untraced if r is not None] or [0.0]
            )),
            "peak_rss_mb": peak_rss_mb(children=args.workload == "campaign"),
        }
        for entry in spec["end_to_end"]:
            metrics.update(
                metric(entry["name"], measured[entry["name"]], entry["unit"])
            )

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "host": host_info(),
        "setup_s": [s for s, _ in setups],
        "setup_raw_s": [raw for _, raw in setups],
        "passes": [
            None if r is None else {
                "traced": tracer.enabled, "wall_s": r.wall_s,
                "ref_s": r.ref_s, "scaled_wall_s": scaled_wall(r),
                "cpu_s": r.cpu_s, "digest": r.digest,
                "failures": r.failures,
            }
            for r, tracer in passes
        ],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
