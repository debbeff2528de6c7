import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpnetlab.metrics import rmse, snr_histogram, snr_out


class TestRmse:
    def test_perfect_estimate(self):
        h = np.array([1.0 + 1j, 2.0], complex)
        assert rmse(h, h) == 0.0

    def test_zero_estimate(self):
        h = np.array([1.0, 2.0j, -1.0], complex)
        assert rmse(np.zeros(3, complex), h) == pytest.approx(1.0)

    def test_rejects_zero_truth(self):
        with pytest.raises(ValueError):
            rmse(np.ones(3, complex), np.zeros(3, complex))


class TestSnrOut:
    def test_perfect_estimates_give_infinity(self):
        hs = [np.ones(4, complex)] * 3
        assert snr_out(hs, hs) == math.inf

    def test_identical_inputs_identical_value(self, rng):
        hs = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(5)]
        es = [h + 0.1 for h in hs]
        assert snr_out(es, hs) == snr_out(es, hs)

    def test_known_ratio(self):
        h = [np.array([2.0, 0.0], complex)]
        e = [np.array([2.0, 0.2], complex)]  # error energy 0.04, signal 4
        assert snr_out(e, h) == pytest.approx(20.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            snr_out([np.ones(2)], [])


class TestSnrHistogram:
    def test_fixed_snr_single_bin(self):
        edges, counts = snr_histogram([10.0] * 20)
        assert counts.sum() == 20
        assert (counts > 0).sum() == 1

    def test_truncated_stream_has_no_mass_below_floor(self):
        rng = np.random.default_rng(0)
        values = []
        while len(values) < 3000:
            v = rng.normal(10.0, 4.0)
            if v >= 1.0:
                values.append(v)
        edges, counts = snr_histogram(values)
        assert edges[0] >= 1.0
        assert counts.sum() == 3000

    def test_one_db_bins(self):
        edges, counts = snr_histogram([2.5, 3.5, 9.9])
        assert np.allclose(np.diff(edges), 1.0)
        assert counts.sum() == 3


_edge_ints = st.integers(-30, 60)
_snr_values = st.one_of(
    st.floats(-50.0, 80.0),
    st.floats(-50.0, 80.0).map(lambda v: round(v, 1)),
    _edge_ints.map(float),
    st.tuples(_edge_ints, st.sampled_from([-math.inf, math.inf])).map(lambda t: math.nextafter(t[0], t[1])),
)
_snr_lists = st.one_of(
    st.lists(_snr_values, min_size=1, max_size=40),
    st.tuples(_snr_values, st.integers(1, 5)).map(lambda t: [t[0]] * t[1]),  # all equal
)


class TestSnrBinning:
    """One binning rule: the integers from floor(min) to ceil(max) (one bin at
    least) as edges, counted as np.histogram counts them."""

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(_snr_lists)
    def test_matches_numpy_histogram_on_integer_edges(self, values):
        lo = math.floor(min(values))
        expected_edges = np.arange(lo, max(math.ceil(max(values)), lo + 1) + 1, dtype=float)
        expected_counts, _ = np.histogram(values, bins=expected_edges)
        edges, counts = snr_histogram(values)
        assert np.array_equal(edges, expected_edges)
        assert np.array_equal(counts, expected_counts)

    def test_value_on_the_top_edge_falls_in_the_last_bin(self):
        edges, counts = snr_histogram([-1.5, 1.0])
        assert edges.tolist() == [-2.0, -1.0, 0.0, 1.0]
        assert counts.tolist() == [1, 0, 1]
