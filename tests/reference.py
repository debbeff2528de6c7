"""Independent reference implementations used as test oracles.

Everything here is written in plain loops, deliberately sharing no code with
the package under test, except :func:`ref_snr_loss`: it restates the SNR-loss
sweep cell by cell over the package's per-array building blocks, so that the
whole-matrix sweep can be held to the same bits. :func:`ref_adam_step` is the
Adam update as whole-array expressions, the bits the in-place update keeps.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from mpnetlab.arrays import AntennaArray, build_dictionary, doa_grid_ula, steering_vector
from mpnetlab.estimators import StoppingRule, pursuit_batch
from mpnetlab.utils import as_rng, complex_normal, energy, from_db, row_energies


def ref_matching_pursuit(atoms: np.ndarray, x: np.ndarray, depth: int):
    """Loop-based greedy pursuit with unit-norm atoms; returns (estimate, support)."""
    n, a = atoms.shape
    r = np.array(x, dtype=complex)
    support = []
    for _ in range(depth):
        best_idx = 0
        best_mag = -1.0
        for j in range(a):
            inner = 0.0 + 0.0j
            for i in range(n):
                inner += np.conj(atoms[i, j]) * r[i]
            mag = abs(inner)
            if mag > best_mag:
                best_mag = mag
                best_idx = j
        inner = sum(np.conj(atoms[i, best_idx]) * r[i] for i in range(n))
        for i in range(n):
            r[i] -= atoms[i, best_idx] * inner
        support.append(best_idx)
    return np.asarray(x, dtype=complex) - r, support


def best_support_error(atoms: np.ndarray, x: np.ndarray, k: int) -> float:
    """Smallest residual norm over every k-atom support, each fit by least squares."""
    best = np.inf
    for support in combinations(range(atoms.shape[1]), k):
        sub = atoms[:, support]
        coeffs, *_ = np.linalg.lstsq(sub, x, rcond=None)
        best = min(best, float(np.linalg.norm(x - sub @ coeffs)))
    return best


def numerical_gradient(cost, weights: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a real cost over the real and imaginary parts,
    packaged as a complex matrix (d/dRe + 1j * d/dIm)."""
    grad = np.zeros(weights.shape, dtype=complex)
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            for unit in (1.0, 1j):
                plus = weights.copy()
                minus = weights.copy()
                plus[i, j] += step * unit
                minus[i, j] -= step * unit
                diff = (cost(plus) - cost(minus)) / (2.0 * step)
                grad[i, j] += diff if unit == 1.0 else 1j * diff
    return grad


def selection_margin(weights: np.ndarray, x: np.ndarray, depth: int) -> float:
    """Smallest gap between the winning and runner-up correlation magnitudes over
    ``depth`` pursuit layers; perturbations below it cannot flip a selection."""
    r = np.array(x, dtype=complex)
    margin = np.inf
    for _ in range(depth):
        mags = np.abs(weights.conj().T @ r)
        order = np.sort(mags)
        if mags.size > 1:
            margin = min(margin, float(order[-1] - order[-2]))
        s = int(np.argmax(mags))
        r = r - weights[:, s] * np.vdot(weights[:, s], r)
    return margin


def ref_adam_step(m: np.ndarray, v: np.ndarray, step: int, cfg, weights: np.ndarray, grad: np.ndarray):
    """One Adam update (Kingma & Ba, ICLR 2015) of complex weights on their
    stacked real and imaginary parts, from moments ``m`` and ``v`` after
    ``step`` updates, at the rate ``cfg.base_rate`` decayed by ``cfg.decay``
    every ``cfg.decay_every`` updates; returns the new weights, m and v."""
    g = np.stack([grad.real, grad.imag])
    t = step + 1
    rate = cfg.base_rate * cfg.decay ** (step // cfg.decay_every)
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * g**2
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    stacked = np.stack([weights.real, weights.imag]) - rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return stacked[0] + 1j * stacked[1], m, v


def ref_snr_loss(cfg) -> np.ndarray:
    """``snr_loss_experiment(cfg)``'s loss_db, one cell at a time: a new
    ``AntennaArray`` and dictionary per cell, one ``steering_vector`` per
    azimuth and one observation per channel."""
    spec = cfg.snr_loss
    nominal = cfg.array.build_nominal()
    n = nominal.size
    directions = doa_grid_ula(cfg.n_atoms)
    dict_nominal = build_dictionary(nominal, directions)
    rule = StoppingRule.fixed(1)
    rng = as_rng(np.random.SeedSequence(cfg.seed))
    snr_lin = from_db(cfg.snr.value_db)
    ratios = np.zeros((len(spec.pos_stds), len(spec.gain_stds)))
    for _ in range(spec.n_arrays):
        gain_noise = complex_normal(rng, n, 1.0)
        pos_noise = rng.standard_normal(n)
        azimuths = rng.uniform(-np.pi / 2.0, np.pi / 2.0, spec.channels_per_array)
        noise_draws = complex_normal(rng, (spec.channels_per_array, n), 1.0)
        for i, pos_std in enumerate(spec.pos_stds):
            for j, gain_std in enumerate(spec.gain_stds):
                offsets = np.zeros((n, 3))
                offsets[:, 0] = pos_std * pos_noise
                true_array = AntennaArray(nominal.positions + offsets, nominal.gains + gain_std * gain_noise, geometry="ula")
                dict_true = build_dictionary(true_array, directions)
                H = np.array([steering_vector(true_array, np.array([np.sin(az), np.cos(az), 0.0])) for az in azimuths])
                X = np.array([h + np.sqrt(energy(h) / (n * snr_lin)) * noise for h, noise in zip(H, noise_draws)])
                no_noise_var = [0.0] * len(X)
                by_nominal = pursuit_batch(dict_nominal, X, rule, no_noise_var).channel
                by_true = pursuit_batch(dict_true, X, rule, no_noise_var).channel
                cell = 0.0
                for ratio in (row_energies(by_nominal - H) / row_energies(by_true - H)).tolist():
                    cell += ratio
                ratios[i, j] += cell / spec.channels_per_array
    ratios /= spec.n_arrays
    return 10.0 * np.log10(ratios)
