"""Shared randomness and small numeric helpers."""

from __future__ import annotations

import numpy as np


def as_rng(seed) -> np.random.Generator:
    """Pass a Generator through unchanged, otherwise seed a fresh one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def complex_normal(rng: np.random.Generator, size, var: float = 1.0) -> np.ndarray:
    """Circularly-symmetric complex Gaussian draws with per-entry variance ``var``.

    Real and imaginary parts are independent N(0, var / 2).
    """
    if var < 0.0:
        raise ValueError("variance must be nonnegative")
    scale = np.sqrt(var / 2.0)
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


def energy(v: np.ndarray) -> float:
    """Squared l2 norm of a vector."""
    return float(np.vdot(v, v).real)


def row_energies(X: np.ndarray) -> np.ndarray:
    """Squared l2 norm of every row of a (B, N) array, in one stacked product;
    each equals ``energy`` of that row to the bit."""
    return (X.conj()[:, None, :] @ X[:, :, None]).real[:, 0, 0]


def add_rows_at(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(target, rows, values)`` to the bit (repeats of a row sum in
    arrival order), as one vectorized add per repeat rank: the entries are
    stable-sorted by row and ranked within it."""
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    rank = np.arange(len(rows)) - np.searchsorted(ranked, ranked)
    for k in range(rank.max(initial=-1) + 1):
        picked = order[rank == k]
        target[rows[picked]] += values[picked]


def to_db(x: float) -> float:
    return 10.0 * float(np.log10(x))


def from_db(x: float) -> float:
    return float(10.0 ** (x / 10.0))
