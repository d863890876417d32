"""Time-binned accumulation, including conservation properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.timeseries import BinAccumulator, split_interval_over_bins


class TestSplitInterval:
    def test_simple_split(self):
        assert split_interval_over_bins(0.5, 2.25, 1.0) == [
            (0, 0.5),
            (1, 1.0),
            (2, 0.25),
        ]

    def test_empty_interval(self):
        assert split_interval_over_bins(1.0, 1.0, 1.0) == []

    def test_inside_one_bin(self):
        assert split_interval_over_bins(0.2, 0.7, 1.0) == [(0, pytest.approx(0.5))]

    def test_bin_aligned(self):
        pieces = split_interval_over_bins(1.0, 3.0, 1.0)
        assert [p[0] for p in pieces] == [1, 2]
        assert all(p[1] == pytest.approx(1.0) for p in pieces)

    def test_backwards_interval_raises(self):
        with pytest.raises(ValueError):
            split_interval_over_bins(2.0, 1.0, 1.0)

    def test_zero_width_raises(self):
        with pytest.raises(ValueError):
            split_interval_over_bins(0.0, 1.0, 0.0)

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_durations_conserved(self, start, length, width):
        pieces = split_interval_over_bins(start, start + length, width)
        assert sum(p[1] for p in pieces) == pytest.approx(length, rel=1e-9, abs=1e-8)

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=0.001, max_value=100.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_bins_contiguous(self, start, length, width):
        pieces = split_interval_over_bins(start, start + length, width)
        indices = [p[0] for p in pieces]
        assert indices == list(range(indices[0], indices[0] + len(indices)))


class TestBinAccumulator:
    def test_point_lands_in_bin(self):
        acc = BinAccumulator(num_keys=2, bin_width=1.0)
        acc.add_point(1, 2.5, 10.0)
        assert acc.series(1)[2] == 10.0
        assert acc.series(0).sum() == 0.0

    def test_interval_integration(self):
        acc = BinAccumulator(num_keys=1, bin_width=1.0)
        acc.add_interval(0, 0.5, 2.5, 4.0)
        series = acc.series(0)
        assert series[0] == pytest.approx(2.0)
        assert series[1] == pytest.approx(4.0)
        assert series[2] == pytest.approx(2.0)

    def test_totals_conserve_rate_times_time(self):
        acc = BinAccumulator(num_keys=1, bin_width=0.7)
        acc.add_interval(0, 0.13, 9.77, 3.0)
        assert acc.totals()[0] == pytest.approx(3.0 * (9.77 - 0.13))

    def test_bulk_matches_scalar(self):
        bulk = BinAccumulator(num_keys=3, bin_width=1.0)
        scalar = BinAccumulator(num_keys=3, bin_width=1.0)
        keys = np.array([0, 2])
        rates = np.array([1.5, 2.5])
        bulk.add_interval_bulk(keys, rates, 0.3, 4.1)
        for key, rate in zip(keys, rates):
            scalar.add_interval(int(key), 0.3, 4.1, float(rate))
        assert np.allclose(bulk.matrix(), scalar.matrix())

    def test_growth_preserves_data(self):
        acc = BinAccumulator(num_keys=1, bin_width=1.0)
        acc.add_point(0, 0.5, 1.0)
        acc.add_point(0, 500.5, 2.0)  # forces growth
        assert acc.series(0)[0] == 1.0
        assert acc.series(0)[500] == 2.0
        assert acc.num_bins == 501

    def test_negative_time_rejected(self):
        acc = BinAccumulator(num_keys=1, bin_width=1.0)
        with pytest.raises(ValueError):
            acc.add_point(0, -0.1, 1.0)
        with pytest.raises(ValueError):
            acc.add_interval(0, -0.1, 1.0, 1.0)

    def test_bin_times(self):
        acc = BinAccumulator(num_keys=1, bin_width=2.0)
        acc.add_point(0, 5.0, 1.0)
        assert list(acc.bin_times()) == [0.0, 2.0, 4.0]

    def test_empty_bulk_noop(self):
        acc = BinAccumulator(num_keys=2, bin_width=1.0)
        acc.add_interval_bulk(np.array([], dtype=int), np.array([]), 0.0, 5.0)
        assert acc.num_bins == 0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.floats(min_value=0, max_value=10),
                st.floats(min_value=0, max_value=1e6),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_total_is_sum_of_contributions(self, intervals):
        acc = BinAccumulator(num_keys=1, bin_width=0.9)
        expected = 0.0
        for start, length, rate in intervals:
            acc.add_interval(0, start, start + length, rate)
            expected += rate * length
        assert acc.totals()[0] == pytest.approx(expected, rel=1e-9, abs=1e-6)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=20),
                st.floats(min_value=1e-6, max_value=1.5),
            ),
            min_size=1,
            max_size=20,
        ),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bulk_matches_per_key_intervals_exactly(self, intervals, unique):
        """One-bin and bin-straddling bulk intervals add the same floats
        in the same order as :meth:`add_interval`, key by key."""
        keys = np.array([0, 2, 3]) if unique else np.array([1, 1, 3])
        rates = np.array([1.5e6, 3.0e-3, 7.0])
        bulk = BinAccumulator(num_keys=4, bin_width=0.5)
        reference = BinAccumulator(num_keys=4, bin_width=0.5)
        for start, length in intervals:
            bulk.add_interval_bulk(
                keys, rates, start, start + length, unique_keys=unique
            )
            for key, rate in zip(keys, rates):
                reference.add_interval(int(key), start, start + length, rate)
        assert np.array_equal(bulk.matrix(), reference.matrix())
