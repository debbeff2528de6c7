"""Estimation-quality metrics and result histograms."""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from .utils import energy, to_db


def rmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Squared estimation error relative to the true channel energy."""
    truth_energy = energy(truth)
    if truth_energy == 0.0:
        raise ValueError("relative error is undefined for a zero ground truth")
    return energy(np.asarray(estimate) - np.asarray(truth)) / truth_energy


def snr_out(estimates: Sequence[np.ndarray], truths: Sequence[np.ndarray]) -> float:
    """Post-estimation SNR in dB: mean channel energy over mean squared error.

    Returns +inf when every estimate is exact.
    """
    estimates = list(estimates)
    truths = list(truths)
    if not estimates or len(estimates) != len(truths):
        raise ValueError("need equally many estimates and ground truths")
    signal = float(np.mean([energy(h) for h in truths]))
    error = float(np.mean([energy(np.asarray(e) - np.asarray(h)) for e, h in zip(estimates, truths)]))
    if error == 0.0:
        return math.inf
    return to_db(signal / error)


def snr_bins(floor_counts: Mapping[int, int], top: float) -> tuple[np.ndarray, np.ndarray]:
    """1-dB histogram of SNR values (dB) from the count of each value's floor
    and the largest value; returns (bin_edges, counts). The edges are the
    integers from the lowest floor to ceil(top), one bin at least, so a value's
    bin is its floor, except that a value on the top edge falls in the last bin
    (as in np.histogram)."""
    lo = min(floor_counts)
    hi = max(math.ceil(top), lo + 1)
    counts = np.zeros(hi - lo, dtype=int)
    for floor, count in floor_counts.items():
        counts[min(floor, hi - 1) - lo] += count
    return np.arange(lo, hi + 1, dtype=float), counts


def snr_histogram(snr_values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Counts of SNR values (dB) in 1-dB bins; returns (bin_edges, counts)."""
    values = np.asarray(snr_values, dtype=float).tolist()
    if not values:
        raise ValueError("need at least one SNR value")
    return snr_bins(Counter(math.floor(v) for v in values), max(values))
