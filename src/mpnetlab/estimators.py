"""Classical channel estimators: least squares, matching pursuit, and OMP.

The residual-energy stopping rules live here because the unfolded network
shares them; thresholds are always evaluated on the unit-normalized input
scale, with the noise variance divided by the input energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import Dictionary
from .utils import energy

# Residual energies at or below this fraction of the input energy count as an
# exact representation: recovery of a pure atom leaves only rounding noise.
ZERO_RESIDUAL_FLOOR = 1e-24

_RANK_TOL = 1e-10

# Rows of the residual matrix that run through the layers together, one matrix
# product per layer. Correlating a whole minibatch at once would hold an A x B
# complex matrix per layer, and OMP a basis per sample; tiles keep both small
# at the same speed.
CORR_TILE = 32


@dataclass(frozen=True)
class StoppingRule:
    """When greedy atom selection stops.

    kind "fixed" always runs ``depth`` layers; "sc1" and "sc2" stop once the
    normalized residual energy falls under a noise-calibrated threshold.
    ``max_depth`` is a safety cap; left unset it resolves to max(N // 4, 1) at
    call time (never below ``depth`` for fixed rules).
    """

    kind: str
    depth: int | None = None
    max_depth: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "sc1", "sc2"):
            raise ValueError("rule kind must be 'fixed', 'sc1' or 'sc2'")
        if self.kind == "fixed":
            if self.depth is None or self.depth < 1:
                raise ValueError("fixed rules need depth >= 1")
        elif self.depth is not None:
            raise ValueError("depth only applies to fixed rules")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    @classmethod
    def fixed(cls, depth: int, max_depth: int | None = None) -> "StoppingRule":
        return cls("fixed", depth=depth, max_depth=max_depth)

    @classmethod
    def sc1(cls, max_depth: int | None = None) -> "StoppingRule":
        return cls("sc1", max_depth=max_depth)

    @classmethod
    def sc2(cls, max_depth: int | None = None) -> "StoppingRule":
        return cls("sc2", max_depth=max_depth)

    def cap(self, n_dims: int) -> int:
        if self.max_depth is not None:
            return self.max_depth
        cap = max(n_dims // 4, 1)
        if self.kind == "fixed":
            cap = max(cap, self.depth)
        return cap


def sc_threshold(rule: StoppingRule, noise_var_norm: float, n_dims: int) -> float:
    """Residual-energy threshold on the unit-input scale.

    ``noise_var_norm`` is the noise variance divided by the input energy.
    """
    if noise_var_norm < 0.0:
        raise ValueError("normalized noise variance must be nonnegative")
    if rule.kind == "fixed":
        return 0.0
    if rule.kind == "sc1":
        if n_dims < 2:
            raise ValueError("sc1 needs N >= 2 so that log N is positive")
        return noise_var_norm * (n_dims + 2.0 * np.sqrt(n_dims * np.log(n_dims)))
    return noise_var_norm * n_dims


def should_stop(
    rule: StoppingRule,
    residual_energy_norm: float,
    depth: int,
    noise_var_norm: float,
    n_dims: int,
) -> bool:
    if depth >= rule.cap(n_dims):
        return True
    if residual_energy_norm <= ZERO_RESIDUAL_FLOOR:
        return True
    if rule.kind == "fixed":
        return depth >= rule.depth
    return residual_energy_norm <= sc_threshold(rule, noise_var_norm, n_dims)


@dataclass(frozen=True)
class Estimate:
    """Denoised channel plus the visited atom support, in selection order."""

    channel: np.ndarray
    support: tuple[int, ...]
    depth: int
    residual_energy: float

    def __post_init__(self) -> None:
        if self.depth != len(self.support):
            raise ValueError("depth must equal the support length")
        if self.residual_energy < 0.0:
            raise ValueError("residual energy must be nonnegative")


def ls_estimate(x: np.ndarray) -> Estimate:
    """The raw observation itself: unbiased, depth-zero estimate."""
    x = np.asarray(x, dtype=complex)
    return Estimate(x.copy(), (), 0, 0.0)


def _check_inputs(dictionary: Dictionary, X, rule: StoppingRule):
    """Validate a (B, N) batch of inputs; returns the atoms, the batch and the
    energy of every input."""
    if not dictionary.normalized:
        raise ValueError("greedy pursuit needs unit-norm atoms; build with normalize=True")
    atoms = dictionary.atoms
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[1] != atoms.shape[0]:
        raise ValueError(f"inputs must have shape (B, {atoms.shape[0]})")
    energies = [energy(x) for x in X]
    if rule.kind != "fixed" and 0.0 in energies:
        raise ValueError("residual stopping rules are undefined for a zero input")
    return atoms, X, energies


def pursue(
    atoms: np.ndarray,
    X: np.ndarray,
    input_energies: Sequence[float],
    noise_var_norms: Sequence[float],
    rule: StoppingRule,
    orthogonal: bool = False,
) -> tuple[list[tuple[int, ...]], list[list[complex]], np.ndarray]:
    """Greedy pursuit of every row of ``X`` (B x N) over the columns of ``atoms``:
    the one kernel behind matching pursuit, OMP and the mpNet forward pass.

    Rows run in tiles of CORR_TILE. Each layer correlates the tile's
    still-active rows with the atoms in one matrix product and picks the
    largest modulus per row (lowest index on ties). Matching pursuit subtracts
    the rank-one projection onto the picked atom, so atoms may be reselected.
    With ``orthogonal`` (OMP) selected atoms are masked out and the residual is
    projected off an orthonormal basis of the support instead; OMP raises
    numpy.linalg.LinAlgError when the support becomes linearly dependent.

    Stopping compares the residual energy divided by the row's
    ``input_energies`` entry against the rule. Returns the supports, the
    per-layer coefficients (onto the atom, or onto the new basis vector for
    OMP) and the final residuals, one row per input.
    """
    n, n_atoms = atoms.shape
    atoms_h = atoms.conj().T
    residuals = np.array(X, dtype=complex)
    supports: list[list[int]] = [[] for _ in residuals]
    coeffs: list[list[complex]] = [[] for _ in residuals]
    if orthogonal:
        selected = np.zeros((len(residuals), n_atoms), dtype=bool)

    def running(i: int, residual_norm: float) -> bool:
        return not should_stop(rule, residual_norm, len(supports[i]), noise_var_norms[i], n)

    for start in range(0, len(residuals), CORR_TILE):
        tile = range(start, min(start + CORR_TILE, len(residuals)))
        active = [i for i in tile if running(i, 1.0 if input_energies[i] > 0.0 else 0.0)]
        bases = {i: np.zeros((n, 0), dtype=complex) for i in active} if orthogonal else {}
        while active:
            corr = np.abs(atoms_h @ residuals[active].T)
            if orthogonal:
                if selected[active].all(axis=1).any():
                    raise np.linalg.LinAlgError("every atom is already in the support")
                corr[selected[active].T] = -1.0
            still_active = []
            for i, s in zip(active, np.argmax(corr, axis=0).tolist()):
                direction = atoms[:, s]
                if orthogonal:
                    direction, bases[i] = _extend_basis(bases[i], direction)
                    selected[i, s] = True
                coeff = np.vdot(direction, residuals[i])
                residuals[i] -= direction * coeff
                supports[i].append(s)
                coeffs[i].append(coeff)
                if running(i, energy(residuals[i]) / input_energies[i]):
                    still_active.append(i)
            active = still_active
    return [tuple(s) for s in supports], coeffs, residuals


def _extend_basis(basis: np.ndarray, atom: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalize ``atom`` against the columns of ``basis``; returns the unit
    vector and the basis extended by it."""
    # two orthogonalization passes keep the basis orthonormal even for
    # nearly collinear grid atoms
    q = atom - basis @ (basis.conj().T @ atom)
    q = q - basis @ (basis.conj().T @ q)
    q_norm = np.linalg.norm(q)
    if q_norm <= _RANK_TOL:
        raise np.linalg.LinAlgError("selected atoms are linearly dependent")
    q = q / q_norm
    return q, np.column_stack([basis, q])


def pursuit_batch(
    dictionary: Dictionary,
    X,
    rule: StoppingRule,
    noise_vars: Sequence[float],
    orthogonal: bool = False,
) -> list[Estimate]:
    """Matching pursuit (or OMP with ``orthogonal``) of every row of ``X``,
    each with its own noise variance."""
    atoms, X, energies = _check_inputs(dictionary, X, rule)
    noise_var_norms = [v / e if e > 0.0 else 0.0 for v, e in zip(noise_vars, energies)]
    supports, _, residuals = pursue(atoms, X, energies, noise_var_norms, rule, orthogonal)
    return [Estimate(x - r, s, len(s), energy(r)) for x, s, r in zip(X, supports, residuals)]


def matching_pursuit(dictionary: Dictionary, x, rule: StoppingRule, noise_var: float = 0.0) -> Estimate:
    """Greedy projection pursuit: repeatedly select the atom most correlated with
    the residual and subtract its rank-one projection.

    Atoms may be reselected. Argmax ties break toward the lowest index.
    """
    return pursuit_batch(dictionary, np.asarray(x)[None], rule, [noise_var])[0]


def omp(dictionary: Dictionary, x, rule: StoppingRule, noise_var: float = 0.0) -> Estimate:
    """Orthogonal matching pursuit: same selection rule, but the residual is kept
    orthogonal to every selected atom (coefficients re-fit by least squares via
    incremental orthogonalization). The support is duplicate-free.

    Raises numpy.linalg.LinAlgError when the selected atoms become linearly
    dependent (degenerate grid).
    """
    return pursuit_batch(dictionary, np.asarray(x)[None], rule, [noise_var], orthogonal=True)[0]
