"""Antenna-array geometry, steering vectors, and direction-grid dictionaries.

Positions are stored in units of the carrier wavelength, so a phase term is
always 2*pi*(position . direction) and the wavelength never appears at
runtime. All values are immutable after construction; operations are pure and
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .utils import as_rng, complex_normal

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

UNIT_TOL = 1e-12
NORM_TOL = 1e-9

# Element spacing of the uniform arrays, in wavelengths
SPACING = 0.5

# Columns per block of build_dictionary's column norms
NORM_BLOCK = 256

# Elements per block of unit_response's exponential (at least one row)
EXP_BLOCK = 4096


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AntennaArray:
    """Antenna positions (one 3-vector per antenna, wavelength units) and complex gains."""

    positions: np.ndarray
    gains: np.ndarray
    geometry: str = "custom"

    def __post_init__(self) -> None:
        positions = np.array(self.positions, dtype=float)
        gains = np.array(self.gains, dtype=complex)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError("positions must have shape (N, 3)")
        if positions.shape[0] == 0:
            raise ValueError("an antenna array needs at least one element")
        if gains.shape != (positions.shape[0],):
            raise ValueError("gains must have shape (N,) matching positions")
        if not (np.isfinite(positions).all() and np.isfinite(gains).all()):
            raise ValueError("positions and gains must be finite")
        object.__setattr__(self, "positions", _readonly(positions))
        object.__setattr__(self, "gains", _readonly(gains))

    @property
    def size(self) -> int:
        return self.gains.shape[0]


@dataclass(frozen=True)
class Dictionary:
    """Unit-norm steering-vector atoms over a direction grid; one column per direction.

    A caller's atoms are copied, read-only ones included, so the dictionary
    owns them, read-only; only ``build_dictionary`` hands over its own fresh
    array uncopied. The unit-norm check allocates nothing N x A-sized, and
    fails on NaN or infinite atoms.
    """

    atoms: np.ndarray
    directions: np.ndarray

    def __post_init__(self) -> None:
        self._own(np.array(self.atoms, dtype=complex))

    @classmethod
    def _of_fresh(cls, atoms: np.ndarray, directions) -> "Dictionary":
        """The dictionary of complex ``atoms`` that nothing else references,
        taking them over instead of copying them."""
        dictionary = object.__new__(cls)
        object.__setattr__(dictionary, "directions", directions)
        dictionary._own(atoms)
        return dictionary

    def _own(self, atoms: np.ndarray) -> None:
        directions = np.array(self.directions, dtype=float)
        if atoms.ndim != 2 or atoms.shape[1] == 0:
            raise ValueError("atoms must have shape (N, A) with A >= 1")
        if directions.shape != (atoms.shape[1], 3):
            raise ValueError("directions must have shape (A, 3) matching atoms")
        energies = np.einsum("na,na->a", atoms.real, atoms.real) + np.einsum("na,na->a", atoms.imag, atoms.imag)
        if not np.all(np.abs(np.sqrt(energies) - 1.0) <= NORM_TOL):  # NaN fails
            raise ValueError("dictionary atoms must have unit norm")
        object.__setattr__(self, "atoms", _readonly(atoms))
        object.__setattr__(self, "directions", _readonly(directions))

    @property
    def n_antennas(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]


def make_ula(n_antennas: int) -> AntennaArray:
    """Uniform linear array along x with unit gains, centered on its centroid."""
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    x = (np.arange(n_antennas) - (n_antennas - 1) / 2.0) * SPACING
    positions = np.zeros((n_antennas, 3))
    positions[:, 0] = x
    return AntennaArray(positions, np.ones(n_antennas, dtype=complex), geometry="ula")


def make_upa(nx: int, nz: int) -> AntennaArray:
    """Uniform planar array on the xz-plane with unit gains, centered on its centroid."""
    if nx < 1 or nz < 1:
        raise ValueError("grid dimensions must be >= 1")
    x = (np.arange(nx) - (nx - 1) / 2.0) * SPACING
    z = (np.arange(nz) - (nz - 1) / 2.0) * SPACING
    gx, gz = np.meshgrid(x, z, indexing="ij")
    positions = np.zeros((nx * nz, 3))
    positions[:, 0] = gx.ravel()
    positions[:, 2] = gz.ravel()
    return AntennaArray(positions, np.ones(nx * nz, dtype=complex), geometry="upa")


def perturb_array(array: AntennaArray, gain_std: float, pos_std: float, rng) -> AntennaArray:
    """True-array realization: jitter gains and positions around the nominal ones.

    Gains receive circularly-symmetric complex noise of variance ``gain_std**2``.
    Positions receive independent real noise of standard deviation ``pos_std``
    (wavelengths) along x, and then along z for planar geometries.
    """
    if gain_std < 0.0 or pos_std < 0.0:
        raise ValueError("noise standard deviations must be nonnegative")
    rng = as_rng(rng)
    n = array.size
    gains = array.gains + complex_normal(rng, n, gain_std**2)
    offsets = np.zeros((n, 3))
    for axis in (0, 2) if array.geometry == "upa" else (0,):
        offsets[:, axis] = rng.normal(0.0, pos_std, n)
    return AntennaArray(array.positions + offsets, gains, geometry=array.geometry)


def _check_unit(direction: np.ndarray) -> np.ndarray:
    u = np.asarray(direction, dtype=float)
    if u.shape != (3,):
        raise ValueError("a direction is a 3-vector")
    if abs(np.linalg.norm(u) - 1.0) > UNIT_TOL:
        raise ValueError("direction must have unit norm")
    return u


def steering_vector(array: AntennaArray, direction) -> np.ndarray:
    """Array response g_i * exp(-2j*pi * p_i . u) to a plane wave from ``direction``."""
    u = _check_unit(direction)
    return array.gains * np.exp(-2j * np.pi * (array.positions @ u))


def _check_directions(directions) -> np.ndarray:
    dirs = np.asarray(directions, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != 3 or dirs.shape[0] == 0:
        raise ValueError("directions must have shape (A, 3) with A >= 1")
    norms = np.linalg.norm(dirs, axis=1)
    if np.max(np.abs(norms - 1.0)) > UNIT_TOL:
        raise ValueError("directions must have unit norm")
    return dirs


def unit_response(positions: np.ndarray, directions) -> np.ndarray:
    """Unit-gain responses exp(-2j*pi * p_i . u) of antennas at ``positions``
    (N x 3), one column per direction: the geometry part of
    :func:`steering_matrix`, shared by every array with these positions.

    The result is the only N x A array allocated. The real products p_i . u
    are formed by one matrix product into the second half of the result's own
    memory, then exponentiated into the result in blocks of about EXP_BLOCK
    elements, in row order: the first i result rows end no later than phase
    row i starts (2ai <= na + ai while i <= n), so a block only overwrites
    phases already read. The bits are those of the whole-matrix expression."""
    directions = _check_directions(directions)
    n, a = len(positions), len(directions)
    response = np.empty((n, a), dtype=complex)
    phases = response.reshape(-1).view(float)[n * a :].reshape(n, a)
    np.matmul(positions, directions.T, out=phases)
    rows = max(EXP_BLOCK // a, 1)
    for i in range(0, n, rows):
        block = -2j * np.pi * phases[i : i + rows]
        response[i : i + rows] = np.exp(block, out=block)
    return response


def steering_matrix(array: AntennaArray, directions: np.ndarray, response: np.ndarray | None = None) -> np.ndarray:
    """Stack steering vectors for several directions as the columns of an (N, A) matrix.

    ``response`` is a precomputed ``unit_response(array.positions, directions)``;
    only the gains are then applied, with the same bits, into a new array. A
    response built here is scaled in place, so it is the one N x A array made.
    """
    if response is None:
        response = unit_response(array.positions, directions)
        return np.multiply(array.gains[:, None], response, out=response)
    if response.shape != (array.size, _check_directions(directions).shape[0]):
        raise ValueError("response must have shape (N, A) matching the array and directions")
    return array.gains[:, None] * response


def azimuth_directions(azimuth: np.ndarray) -> np.ndarray:
    """Unit directions (sin az, cos az, 0) in the xy half-plane of linear
    arrays, one row per azimuth (radians from broadside)."""
    return np.column_stack([np.sin(azimuth), np.cos(azimuth), np.zeros_like(azimuth)])


def doa_grid_ula(count: int) -> np.ndarray:
    """Azimuth grid for linear arrays: ``count`` directions in the xy half-plane.

    Azimuths are the midpoints of ``count`` equal cells of [-pi/2, pi/2), so a
    single-point grid is exactly broadside (0, 1, 0).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return _readonly(azimuth_directions(-np.pi / 2.0 + (np.arange(count) + 0.5) * np.pi / count))


def doa_grid_upa(count: int) -> np.ndarray:
    """Near-uniform deterministic grid on the y > 0 hemisphere (Fibonacci spiral)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    y = (np.arange(count) + 0.5) / count
    radius = np.sqrt(1.0 - y**2)
    angle = np.arange(count) * _GOLDEN_ANGLE
    dirs = np.column_stack([radius * np.cos(angle), y, radius * np.sin(angle)])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return _readonly(dirs)


def build_dictionary(array: AntennaArray, directions: np.ndarray, response: np.ndarray | None = None) -> Dictionary:
    """Dictionary of the steering vectors on ``directions``, scaled to unit
    norm. ``response`` is as in :func:`steering_matrix`.

    The column norms are taken over near-equal blocks of about NORM_BLOCK
    columns, so their temporaries stay N x NORM_BLOCK. A block never has one
    column unless A is 1: a one-column slice is reduced in another order and
    its norm can differ in the last bit from the whole matrix's.

    The atoms are one fresh N x A array, normalized in place and handed to the
    dictionary uncopied; a caller's ``response`` is only read."""
    atoms = steering_matrix(array, directions, response)
    blocks = np.array_split(atoms, math.ceil(atoms.shape[1] / NORM_BLOCK), axis=1)
    norms = np.concatenate([np.linalg.norm(block, axis=0) for block in blocks])
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero steering vector (all gains zero)")
    atoms /= norms
    return Dictionary._of_fresh(atoms, directions)
