"""Classical channel estimators: least squares, matching pursuit, and OMP.

The residual-energy stopping rules live here because the unfolded network
shares them; thresholds are always evaluated on the unit-normalized input
scale, with the noise variance divided by the input energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .arrays import Dictionary
from .utils import row_energies

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


def sc_threshold(rule: StoppingRule, noise_var_norm, n_dims: int):
    """Residual-energy threshold on the unit-input scale, shaped like
    ``noise_var_norm`` (the noise variance divided by the input energy)."""
    noise_var_norm = np.asarray(noise_var_norm, dtype=float)
    if (noise_var_norm < 0.0).any():
        raise ValueError("normalized noise variance must be nonnegative")
    if rule.kind == "fixed":
        return np.zeros_like(noise_var_norm)[()]
    if rule.kind == "sc1":
        if n_dims < 2:
            raise ValueError("sc1 needs N >= 2 so that log N is positive")
        return noise_var_norm * (n_dims + 2.0 * np.sqrt(n_dims * np.log(n_dims)))
    return noise_var_norm * n_dims


def should_stop(rule: StoppingRule, residual_energy_norm, depth, noise_var_norm, n_dims: int):
    """Whether pursuit stops after ``depth`` layers; broadcasts over array arguments."""
    residual_energy_norm, depth = np.asarray(residual_energy_norm, dtype=float), np.asarray(depth)
    if rule.kind == "fixed":
        reached = depth >= rule.depth
    else:
        reached = residual_energy_norm <= sc_threshold(rule, noise_var_norm, n_dims)
    return ((depth >= rule.cap(n_dims)) | (residual_energy_norm <= ZERO_RESIDUAL_FLOOR) | reached)[()]


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


@dataclass(frozen=True)
class BatchEstimate:
    """Estimates of a batch, one row per sample: channels (B x N), depths (B),
    supports in selection order (B x K, zero past a row's depth) and residual
    energies (B). ``len`` gives the row count and ``batch[i]`` row i's Estimate."""

    channel: np.ndarray
    depth: np.ndarray
    support: np.ndarray
    residual_energy: np.ndarray

    def __len__(self) -> int:
        return len(self.depth)

    def __getitem__(self, i: int) -> Estimate:
        depth = int(self.depth[i])
        return Estimate(self.channel[i], tuple(self.support[i, :depth].tolist()), depth, float(self.residual_energy[i]))


def ls_estimate(x: np.ndarray) -> Estimate:
    """The raw observation itself: unbiased, depth-zero estimate."""
    x = np.asarray(x, dtype=complex)
    return Estimate(x.copy(), (), 0, 0.0)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i]^H b[i]`` per row of C-contiguous (m, N) arrays, to the bit whatever m is."""
    return np.einsum("bn,bn->b", a.conj(), b)


def pursue(
    atoms: np.ndarray,
    X: np.ndarray,
    input_energies: Sequence[float],
    noise_var_norms: Sequence[float],
    rule: StoppingRule,
    orthogonal: bool = False,
    on_tile: Callable[[list[tuple], np.ndarray], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy pursuit of every row of ``X`` (B x N) over the columns of ``atoms``:
    the one kernel behind matching pursuit, OMP and the mpNet forward pass.

    Rows run in tiles of CORR_TILE, layer by layer; the rows still active in a
    tile share their depth, so a layer is a few whole-block operations. One
    matrix product correlates the block with the atoms and the largest modulus
    per row wins (lowest index on ties). Matching pursuit subtracts the
    rank-one projection onto the picked atom, so atoms may be reselected. OMP
    (``orthogonal``) masks the support, orthonormalizes the picked atom
    against the row's basis and projects the residual off it; it raises
    numpy.linalg.LinAlgError when the support is linearly dependent or full.

    A row stops where ``should_stop`` first holds for its residual energy over
    its ``input_energies`` entry, tested against bounds set once per tile. A
    row's results are the same bytes whatever the batch and tile sizes, and
    within 1e-12 of a per-sample loop. ``on_tile`` gets each finished tile's
    final residual rows (a view) and its layers, one (live rows as ascending
    tile positions, picked atoms, vectors peeled off, coefficients, residual
    rows before the update) tuple each. Returns the depths (B), the supports
    (B x K, zero past a row's depth) and the final residuals (B x N).
    """
    n, n_atoms = atoms.shape
    atoms_h, atom_rows = atoms.conj().T, atoms.T
    residuals = np.array(X, dtype=complex)
    input_energies, noise_var_norms = np.asarray(input_energies, dtype=float), np.asarray(noise_var_norms, dtype=float)
    stop_depth = min(rule.depth, rule.cap(n)) if rule.kind == "fixed" else rule.cap(n)  # should_stop's depth test
    found = []  # (rows, layer index, picks) of every layer of every tile
    for start in range(0, len(residuals), CORR_TILE):
        tile = slice(start, start + CORR_TILE)
        energies = input_energies[tile]
        # should_stop's residual tests folded into one bound per row
        limits = np.fmax(sc_threshold(rule, noise_var_norms[tile], n), ZERO_RESIDUAL_FLOOR)
        live = np.flatnonzero((energies > 0.0).astype(float) > limits)
        R = residuals[tile][live]
        if orthogonal:  # each row's support and an orthonormal basis of it (at most N vectors)
            support = np.empty((len(energies), min(rule.cap(n), n)), dtype=np.intp)
            basis = np.empty((*support.shape, n), dtype=complex)
        layers = []
        while len(live):
            depth = len(layers)
            corr = np.abs(atoms_h @ R.T)
            if orthogonal:
                if depth >= n_atoms:
                    raise np.linalg.LinAlgError("every atom is already in the support")
                corr[support[live, :depth].T, np.arange(len(live))] = -1.0
            picks = np.argmax(corr, axis=0)
            cols = atom_rows[picks]
            if orthogonal:
                cols = _orthonormalize(cols, basis[live, :depth])
                support[live, depth], basis[live, depth] = picks, cols
            coeffs = row_dot(cols, R)
            layers.append((live, picks, cols, coeffs, R))
            R = R - cols * coeffs[:, None]
            stop = (row_dot(R, R).real / energies[live] <= limits[live]) | (depth + 1 >= stop_depth)
            residuals[start + live[stop]] = R[stop]
            live, R = live[~stop], R[~stop]
        if on_tile is not None:
            on_tile(layers, residuals[tile])
        found += [(start + live, k, picks) for k, (live, picks, *_) in enumerate(layers)]
    supports = np.zeros((len(residuals), 1 + max((k for _, k, _ in found), default=-1)), dtype=np.intp)
    depths = np.zeros(len(residuals), dtype=int)
    for rows, k, picks in found:
        supports[rows, k], depths[rows] = picks, k + 1
    return depths, supports, residuals


def _orthonormalize(cols: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows of ``cols`` (m x N) orthonormalized against their ``basis`` entries (m x k
    x N); two Gram-Schmidt passes keep nearly collinear grid atoms orthogonal."""
    for _ in range(2):
        cols = cols - ((basis.conj() @ cols[:, :, None]).transpose(0, 2, 1) @ basis)[:, 0]
    norms = np.linalg.norm(cols, axis=1)
    if np.any(norms <= _RANK_TOL):
        raise np.linalg.LinAlgError("selected atoms are linearly dependent")
    return cols / norms[:, None]


def pursuit_batch(
    dictionary: Dictionary,
    X,
    rule: StoppingRule,
    noise_vars: Sequence[float],
    orthogonal: bool = False,
) -> BatchEstimate:
    """Matching pursuit (or OMP with ``orthogonal``) of every row of ``X``
    (B x N), each under its own noise variance."""
    atoms = dictionary.atoms
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[1] != atoms.shape[0]:
        raise ValueError(f"inputs must have shape (B, {atoms.shape[0]})")
    energies = row_energies(X)
    if rule.kind != "fixed" and np.any(energies == 0.0):
        raise ValueError("residual stopping rules are undefined for a zero input")
    noise_var_norms = [v / e if e > 0.0 else 0.0 for v, e in zip(noise_vars, energies.tolist())]
    depths, supports, residuals = pursue(atoms, X, energies, noise_var_norms, rule, orthogonal)
    return BatchEstimate(X - residuals, depths, supports, row_energies(residuals))


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
