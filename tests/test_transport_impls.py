"""Differential test: the four transport impls, end to end.

Runs the seeded fuzz configs from :mod:`test_differential` through full
campaigns under every ``transport_impl`` setting.  ``vectorized`` and
``csr`` must be *identical* to ``reference`` — socket-event logs column
for column, reconstructed flow tables, link-load matrices, and
congestion episodes.  ``incremental`` is tolerance-based by design
(documented ``INCREMENTAL_RTOL``): those campaigns are checked for
matching workload structure plus the inline
``transport.incremental_equivalence`` validator on every batch, which
bounds rate drift against a from-scratch reference solve throughout the
run.  Unlike the three-path trace fuzz (which is ``slow``-marked),
these configs are small enough to run in the tier-1 suite, so any float
divergence fails fast on every push.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.congestion import find_episodes
from repro.core.flows import reconstruct_flows
from repro.experiments.cache import dataset_content_hash
from repro.experiments.common import build_dataset, small_config
from repro.simulation.simulator import simulate
from repro.trace.analyze import _flow_tables_equal

from test_differential import _random_configs


@pytest.mark.parametrize("impl", ["vectorized", "csr"])
@pytest.mark.parametrize("index,config", list(enumerate(_random_configs(3))))
def test_exact_impls_match_reference(index, config, impl):
    result_vec = simulate(
        dataclasses.replace(config, transport_impl=impl)
    )
    result_ref = simulate(
        dataclasses.replace(config, transport_impl="reference")
    )

    # Socket-event logs: identical column for column (bitwise).
    columns_vec = result_vec.socket_log.to_columns()
    columns_ref = result_ref.socket_log.to_columns()
    assert columns_vec.keys() == columns_ref.keys()
    for name in columns_vec:
        assert np.array_equal(columns_vec[name], columns_ref[name]), (
            f"config {index}: column {name!r} diverged"
        )

    # Reconstructed flow tables.
    assert _flow_tables_equal(
        reconstruct_flows(result_vec.socket_log),
        reconstruct_flows(result_ref.socket_log),
    )

    # Link loads: every one-second byte bin on every link.
    assert np.array_equal(
        result_vec.link_loads.byte_matrix(), result_ref.link_loads.byte_matrix()
    )

    # Congestion episodes (paper §4.2) — derived, but cheap to pin.
    hot_vec = (
        result_vec.link_loads.utilization_matrix()
        >= config.congestion_threshold
    )
    hot_ref = (
        result_ref.link_loads.utilization_matrix()
        >= config.congestion_threshold
    )
    assert find_episodes(hot_vec) == find_episodes(hot_ref)

    # And the run-level stats counters.
    assert result_vec.stats == result_ref.stats


@pytest.mark.parametrize("index,config", list(enumerate(_random_configs(2))))
def test_incremental_tracks_reference_within_tolerance(index, config):
    """Incremental campaigns finish the same workload with continuously
    validated rates.

    ``validate_every_n_batches=1`` runs the
    ``transport.incremental_equivalence`` checker after *every* engine
    batch: any live rate further than ``INCREMENTAL_RTOL`` from a
    from-scratch reference solve, or any oversubscribed link, aborts the
    run.  Workload-level outputs (jobs, transfer population, byte
    volume) must agree with the reference campaign — completion
    *timestamps* may legitimately drift within the rate tolerance.
    """
    result_inc = simulate(
        dataclasses.replace(
            config, transport_impl="incremental", validate_every_n_batches=1
        )
    )
    result_ref = simulate(
        dataclasses.replace(config, transport_impl="reference")
    )

    assert result_inc.stats["jobs_submitted"] == result_ref.stats["jobs_submitted"]
    assert result_inc.stats["jobs_finished"] == result_ref.stats["jobs_finished"]
    assert (
        result_inc.stats["transfers_started"]
        == result_ref.stats["transfers_started"]
    )

    # Completed-transfer population: same flows (src, dst, size), order-
    # and timing-insensitive.
    def population(result):
        return sorted(
            (t.src, t.dst, t.size, t.meta.kind) for t in result.transfers
        )

    assert population(result_inc) == population(result_ref)

    # Byte conservation at the link level: total bytes moved agree to the
    # documented tolerance (drifted completions shift bins, not volume).
    bytes_inc = result_inc.link_loads.byte_matrix().sum()
    bytes_ref = result_ref.link_loads.byte_matrix().sum()
    assert bytes_inc == pytest.approx(bytes_ref, rel=0.05)


#: The pinned fabrics (``None``: ``small_config``'s own tree) and the
#: routing each one runs under.
_PIN_FABRICS = {
    "leaf_spine": (
        ClusterSpec.leaf_spine(racks=4, spines=2, servers_per_rack=4), "ecmp"
    ),
    "fat_tree": (ClusterSpec.fat_tree(k=4), "flowlet"),
    "tree": (None, "single"),
}
#: ``(transport_impl, fabric, dataset_content_hash, rate_recomputes,
#: transfers_completed)`` of 10 s ``small_config(3)`` fluid runs.
_PINS = [
    ("vectorized", "tree",
     "419a1e219c7220ab38c0f865c539ab7702f41b33a4533862bd5502e62aef1d24",
     65.0, 75.0),
    ("vectorized", "fat_tree",
     "45724a418269c930d8f658404c28517f15aee348cba583be27ffad7a78521d63",
     50.0, 60.0),
    ("vectorized", "leaf_spine",
     "1ddd5b42f504aba102b2c41f16a3256a8924ac6fe1f0fef33eecef18a7662ac6",
     50.0, 60.0),
    ("csr", "tree",
     "419a1e219c7220ab38c0f865c539ab7702f41b33a4533862bd5502e62aef1d24",
     65.0, 75.0),
]


class TestBitIdentityPins:
    """Exact outputs of fluid runs, so an allocator speed-up cannot
    drift them.

    The hashes were recorded on Linux x86-64 with Python 3.11 and numpy
    2.4; another platform or numpy release may round a float sum
    differently and legitimately change them.
    """

    @pytest.mark.parametrize(
        "impl,fabric,digest,recomputes,completed", _PINS,
        ids=[f"{pin[0]}-{pin[1]}" for pin in _PINS],
    )
    def test_fluid_run_is_bit_identical(
        self, impl, fabric, digest, recomputes, completed
    ):
        spec, routing = _PIN_FABRICS[fabric]
        base = small_config(3)
        config = dataclasses.replace(
            base, cluster=spec or base.cluster, transport_impl=impl,
            routing_impl=routing, duration=10.0,
        )
        dataset = build_dataset(config, disk_cache=False)
        stats = dataset.result.stats
        assert dataset_content_hash(dataset) == digest
        assert stats["rate_recomputes"] == recomputes
        assert stats["transfers_completed"] == completed
