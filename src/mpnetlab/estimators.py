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

# Atoms per block of a layer's correlation: the product with a tile is formed
# ATOM_BLOCK atoms at a time, so its scratch stays CORR_TILE x ATOM_BLOCK
# whatever the dictionary size.
ATOM_BLOCK = 512


@dataclass(frozen=True)
class StoppingRule:
    """When greedy atom selection stops.

    kind "fixed" always runs ``depth`` layers; "sc1" and "sc2" stop once the
    normalized residual energy falls under a noise-calibrated threshold. Every
    rule stops at the safety cap max(N // 4, 1), never below ``depth`` for a
    fixed rule. A rule is spelled ``fixed<depth>``, ``sc1`` or ``sc2``:
    :meth:`parse` reads the token and ``str`` gives it back.
    """

    kind: str
    depth: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "sc1", "sc2"):
            raise ValueError("rule kind must be 'fixed', 'sc1' or 'sc2'")
        if self.kind == "fixed":
            if self.depth is None or self.depth < 1:
                raise ValueError("fixed rules need depth >= 1")
        elif self.depth is not None:
            raise ValueError("depth only applies to fixed rules")

    @classmethod
    def fixed(cls, depth: int) -> "StoppingRule":
        return cls("fixed", depth=depth)

    @classmethod
    def sc1(cls) -> "StoppingRule":
        return cls("sc1")

    @classmethod
    def sc2(cls) -> "StoppingRule":
        return cls("sc2")

    @classmethod
    def parse(cls, token: str) -> "StoppingRule":
        if token in ("sc1", "sc2"):
            return cls(token)
        if not token.startswith("fixed"):
            raise ValueError(f"unknown stopping rule {token!r}")
        try:
            depth = int(token[len("fixed") :])
        except ValueError:
            depth = None
        if token != f"fixed{depth}":  # one spelling per depth: int() also takes "03", "+3", " 3" and "1_0"
            raise ValueError(f"bad fixed-depth rule {token!r}")
        return cls.fixed(depth)

    def __str__(self) -> str:
        return f"fixed{self.depth}" if self.kind == "fixed" else self.kind

    def cap(self, n_dims: int) -> int:
        return max(n_dims // 4, 1, self.depth or 0)


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
) -> BatchEstimate:
    """Greedy pursuit of every row of ``X`` (B x N) over the columns of ``atoms``:
    the one kernel behind matching pursuit, OMP and the mpNet forward pass.

    Rows run in tiles of CORR_TILE, layer by layer; the rows still active in a
    tile share their depth, so a layer is a few whole-block operations. The
    block is correlated with ATOM_BLOCK atoms at a time and the largest modulus
    per row wins (lowest index on ties), so the correlation scratch is at most
    CORR_TILE x ATOM_BLOCK whatever the atom count. The product is ``atoms.T``
    times the residual block, conjugated once per layer: conjugating the block
    (at most CORR_TILE x N) instead of the atoms copies nothing N x A-sized,
    and the moduli are the same bits as those of ``atoms^H`` times the block.
    Matching pursuit subtracts the rank-one projection onto the picked atom,
    so atoms may be reselected. OMP (``orthogonal``) masks the support,
    orthonormalizes the picked atom against the row's basis and projects the
    residual off it; it raises numpy.linalg.LinAlgError when the support is
    linearly dependent or full.

    A row stops where ``should_stop`` first holds for its residual energy over
    its ``input_energies`` entry, tested against bounds set once per tile. A
    row's results are the same bytes whatever the batch, tile and atom-block
    sizes, and within 1e-12 of a per-sample loop. ``on_tile`` gets each
    finished tile's final residual rows (a view) and its layers, one (live
    rows as ascending tile positions, picked atoms, vectors peeled off,
    coefficients, residual rows before the update) tuple each. Only then are
    the layers kept: MP and OMP drop a layer's arrays once the next layer
    starts. OMP allocates its bases once per call, one tile's worth. Returns
    the rows' estimates: ``X`` minus the final residuals, with supports as
    wide as the deepest row.
    """
    n, n_atoms = atoms.shape
    atom_rows = atoms.T
    X = np.asarray(X, dtype=complex)
    residuals = np.array(X)  # a copy, in X's memory order
    input_energies, noise_var_norms = np.asarray(input_energies, dtype=float), np.asarray(noise_var_norms, dtype=float)
    stop_depth = min(rule.depth, rule.cap(n)) if rule.kind == "fixed" else rule.cap(n)  # should_stop's depth test
    depths = np.zeros(len(residuals), dtype=int)
    supports = np.zeros((len(residuals), stop_depth), dtype=np.intp)
    if orthogonal:  # an orthonormal basis of each tile row's support (at most N vectors)
        basis = np.empty((min(len(residuals), CORR_TILE), min(rule.cap(n), n), n), dtype=complex)
    for start in range(0, len(residuals), CORR_TILE):
        tile = slice(start, start + CORR_TILE)
        energies = input_energies[tile]
        # should_stop's residual tests folded into one bound per row
        limits = np.fmax(sc_threshold(rule, noise_var_norms[tile], n), ZERO_RESIDUAL_FLOOR)
        live = np.flatnonzero((energies > 0.0).astype(float) > limits)
        R = residuals[tile][live]
        depth, layers = 0, []
        while len(live):
            taken = None
            if orthogonal:
                if depth >= n_atoms:
                    raise np.linalg.LinAlgError("every atom is already in the support")
                taken = supports[tile][live, :depth]
            picks = _select(atom_rows, R.conj().T, taken)
            cols = atom_rows[picks]
            if orthogonal:
                cols = _orthonormalize(cols, basis[live, :depth])
                basis[live, depth] = cols
            supports[start + live, depth], depths[start + live] = picks, depth + 1
            coeffs = row_dot(cols, R)
            if on_tile is not None:
                layers.append((live, picks, cols, coeffs, R))
            R = R - cols * coeffs[:, None]
            depth += 1
            stop = (row_dot(R, R).real / energies[live] <= limits[live]) | (depth >= stop_depth)
            residuals[start + live[stop]] = R[stop]
            live, R = live[~stop], R[~stop]
        if on_tile is not None:
            on_tile(layers, residuals[tile])
    return BatchEstimate(X - residuals, depths, supports[:, : depths.max(initial=0)], row_energies(residuals))


def _select(atom_rows: np.ndarray, Rc: np.ndarray, taken: np.ndarray | None) -> np.ndarray:
    """Per column j of ``Rc`` (N x m), the atom row with the largest modulus in
    column j of ``atom_rows @ Rc``, lowest index on ties, skipping the atoms in
    row j of ``taken`` (m x k, OMP's supports) when given.

    The product runs over blocks of ATOM_BLOCK atom rows. A later block's pick
    replaces the running one only when its modulus is strictly larger, so ties
    still go to the lowest index; the BLAS gives a product row the same bits in
    any block."""
    j = np.arange(Rc.shape[1])
    for a0 in range(0, len(atom_rows), ATOM_BLOCK):
        corr = np.abs(atom_rows[a0 : a0 + ATOM_BLOCK] @ Rc)
        if taken is not None:  # only the support entries inside this block
            rows, k = np.nonzero((taken >= a0) & (taken < a0 + ATOM_BLOCK))
            corr[taken[rows, k] - a0, rows] = -1.0
        block_picks = np.argmax(corr, axis=0)
        moduli = corr[block_picks, j]
        del corr  # freed before the next block's product
        if a0 == 0:
            picks, best = block_picks, moduli
        else:
            better = moduli > best
            picks[better], best[better] = block_picks[better] + a0, moduli[better]
    return picks


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
    (B x N), each under its own noise variance: :func:`pursue`'s record."""
    atoms = dictionary.atoms
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[1] != atoms.shape[0]:
        raise ValueError(f"inputs must have shape (B, {atoms.shape[0]})")
    energies = row_energies(X)
    if rule.kind != "fixed" and np.any(energies == 0.0):
        raise ValueError("residual stopping rules are undefined for a zero input")
    noise_var_norms = [v / e if e > 0.0 else 0.0 for v, e in zip(noise_vars, energies.tolist())]
    return pursue(atoms, X, energies, noise_var_norms, rule, orthogonal)


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
