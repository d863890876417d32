"""Shared fixtures.

The expensive artefact — a simulated measurement campaign — is built once
per session on the small configuration and shared by every analysis and
experiment test.  Unit tests for the substrates build their own tiny
structures instead.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.cluster.routing import Router
from repro.cluster.topology import ClusterSpec, ClusterTopology
from repro.config import SimulationConfig
from repro.experiments.cache import dataset_content_hash
from repro.experiments.common import (
    ExperimentDataset,
    build_dataset,
    clear_dataset_cache,
    small_config,
)

# Property tests must be deterministic in CI: fixed derivation, no
# wall-clock deadline flakes, a bounded example budget.
settings.register_profile(
    "repro", derandomize=True, deadline=None, max_examples=25
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def tiny_spec() -> ClusterSpec:
    """A 4-rack, 20-server cluster spec for structural tests."""
    return ClusterSpec(racks=4, servers_per_rack=5, racks_per_vlan=2,
                       external_hosts=2)


@pytest.fixture(scope="session")
def tiny_topology(tiny_spec: ClusterSpec) -> ClusterTopology:
    """A built tiny cluster."""
    return ClusterTopology(tiny_spec)


@pytest.fixture(scope="session")
def tiny_router(tiny_topology: ClusterTopology) -> Router:
    """Router over the tiny cluster."""
    return Router(tiny_topology)


@pytest.fixture(scope="session")
def dataset() -> ExperimentDataset:
    """The session-wide small campaign (simulation + derived artefacts)."""
    return build_dataset(small_config())


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


def micro_trace_config() -> SimulationConfig:
    """A seconds-scale campaign for trace/validation tests."""
    return SimulationConfig(
        cluster=ClusterSpec(racks=3, servers_per_rack=4, racks_per_vlan=2,
                            external_hosts=1),
        duration=40.0,
        seed=3,
    )


def oracle_hashes(config: SimulationConfig, seeds) -> list[str]:
    """Per-seed dataset content hashes built directly, outside any runner.

    The reference campaign tests compare against: each seed's dataset is
    simulated afresh with :func:`build_dataset` and no disk cache.  The
    in-memory dataset cache is cleared around every build, so the oracle
    never shares a dataset object with a campaign run in this process.
    """
    hashes = []
    for seed in seeds:
        clear_dataset_cache()
        hashes.append(dataset_content_hash(
            build_dataset(config.with_seed(seed), disk_cache=False)
        ))
    clear_dataset_cache()
    return hashes


@pytest.fixture(scope="session")
def recorded_trace(tmp_path_factory):
    """One recorded ``.reprotrace`` shared by validation/corruption tests.

    Corruption tests must copy it before mutating.
    """
    from repro.trace.record import record_trace

    path = tmp_path_factory.mktemp("traces") / "micro.reprotrace"
    # A small chunk size forces several chunks, so chunk-boundary and
    # per-chunk corruption paths are genuinely exercised.
    record_trace(micro_trace_config(), path, chunk_size=128)
    return path


@pytest.fixture(scope="session")
def assert_invariants():
    """Run invariant checkers over any artefact; fail with the report.

    Usable by every test module::

        def test_something(dataset, assert_invariants):
            assert_invariants(dataset)

    Returns the :class:`~repro.validate.ValidationReport` so callers can
    make additional per-checker assertions.
    """
    from repro.validate import validate

    def check(source, names=None, tags=None):
        report = validate(source, names=names, tags=tags)
        assert report.ok, f"invariant violations:\n{report.render()}"
        return report

    return check
