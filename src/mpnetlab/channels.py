"""Sparse multipath channel synthesis, noisy observation streams, and array anomalies.

Ground-truth channels are built from unnormalized steering vectors of the true
array (that is the physics); the dictionaries used by estimators are a separate,
normalized object. Every channel comes from one fixed multipath model (the
``PATHS_MIN``, ``PATHS_MAX`` and ``GAIN_DECAY`` constants, directions drawn
by the array's geometry); what a live stream configures is its SNR model.
Stream production is sequential: the sample order is part of the contract
and every randomized operation is a pure function of its inputs and the
generator state. A stream's ``take`` gives one columnar :class:`SampleBatch`,
drawn live (:class:`ChannelStream`) or parsed from a stream dump
(:class:`ReplayStream`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .arrays import AntennaArray, azimuth_directions, steering_matrix
from .fileio import fmt_float, staged
from .utils import as_rng, complex_normal, energy, from_db


@dataclass(frozen=True)
class MultipathChannel:
    """A sparse channel: per-path complex gains and arrival directions, plus the
    resulting length-N channel vector."""

    gains: np.ndarray
    directions: np.ndarray
    vector: np.ndarray

    def __post_init__(self) -> None:
        gains = np.array(self.gains, dtype=complex)
        directions = np.array(self.directions, dtype=float)
        vector = np.array(self.vector, dtype=complex)
        if gains.ndim != 1 or gains.shape[0] == 0:
            raise ValueError("a channel needs at least one path")
        if directions.shape != (gains.shape[0], 3):
            raise ValueError("directions must have shape (P, 3)")
        if energy(vector) == 0.0:
            raise ValueError("channel vector vanished (all antenna gains zero?)")
        for name, value in (("gains", gains), ("directions", directions), ("vector", vector)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_paths(self) -> int:
        return self.gains.shape[0]


@dataclass(frozen=True)
class ChannelSample:
    """Ground truth, its noisy observation, and the (known) noise variance."""

    channel: np.ndarray
    observation: np.ndarray
    noise_var: float
    snr_db: float

    def __post_init__(self) -> None:
        channel = np.array(self.channel, dtype=complex)
        observation = np.array(self.observation, dtype=complex)
        if channel.ndim != 1 or observation.shape != channel.shape:
            raise ValueError("channel and observation must be equal-length vectors")
        if self.noise_var < 0.0:
            raise ValueError("noise variance must be nonnegative")
        channel.setflags(write=False)
        observation.setflags(write=False)
        object.__setattr__(self, "channel", channel)
        object.__setattr__(self, "observation", observation)


@dataclass(frozen=True)
class SampleBatch:
    """Samples of a batch, one row each: channels and observations (B x N),
    noise variances and SNRs (B). ``batch[i]`` builds row i's ChannelSample."""

    channel: np.ndarray
    observation: np.ndarray
    noise_var: np.ndarray
    snr_db: np.ndarray

    @classmethod
    def of(cls, samples: Sequence[ChannelSample]) -> "SampleBatch":
        return cls(
            np.array([s.channel for s in samples], dtype=complex),
            np.array([s.observation for s in samples], dtype=complex),
            np.array([s.noise_var for s in samples], dtype=float),
            np.array([s.snr_db for s in samples], dtype=float),
        )

    def __len__(self) -> int:
        return len(self.noise_var)

    def __getitem__(self, i: int) -> ChannelSample:
        return ChannelSample(self.channel[i], self.observation[i], float(self.noise_var[i]), float(self.snr_db[i]))


@dataclass(frozen=True)
class FixedSnr:
    """One SNR for every sample; ``inf`` means noiseless observations, and
    ``-inf`` (no signal) is rejected."""

    value_db: float = 10.0

    def __post_init__(self) -> None:
        if math.isnan(self.value_db):
            raise ValueError("value_db must not be NaN")
        if self.value_db == -math.inf:
            raise ValueError("value_db must not be -inf")


@dataclass(frozen=True)
class TruncatedGaussianSnr:
    """Gaussian SNR in dB, rejection-sampled above a floor (low-SNR observations
    are filtered out before they reach the estimator)."""

    mean_db: float = 10.0
    std_db: float = 4.0
    floor_db: float = 1.0

    def __post_init__(self) -> None:
        # NaN fails a range check (sample_snr would never accept a NaN draw); an infinity draws infinite SNRs
        if not self.std_db >= 0.0:
            raise ValueError("std_db must be nonnegative")
        for name in ("std_db", "mean_db"):
            if math.isinf(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.acceptance_probability() >= 1e-6:
            raise ValueError("SNR floor leaves a negligible acceptance probability")

    def acceptance_probability(self) -> float:
        if self.std_db == 0.0:
            return 1.0 if self.mean_db >= self.floor_db else 0.0
        z = (self.floor_db - self.mean_db) / (self.std_db * math.sqrt(2.0))
        return 0.5 * math.erfc(z)


def sample_snr(model, rng) -> float:
    """Draw one SNR value (dB) from the configured model."""
    rng = as_rng(rng)
    if isinstance(model, FixedSnr):
        return float(model.value_db)
    if isinstance(model, TruncatedGaussianSnr):
        if model.std_db == 0.0:  # __post_init__ rejects a mean below the floor
            return float(model.mean_db)
        while True:
            value = rng.normal(model.mean_db, model.std_db)
            if value >= model.floor_db:
                return float(value)
    raise TypeError(f"unknown SNR model: {model!r}")


# the one multipath model every live stream draws from: a path count uniform
# on [PATHS_MIN, PATHS_MAX], complex Gaussian path gains whose expected powers
# decay geometrically by GAIN_DECAY
PATHS_MIN, PATHS_MAX = 1, 10
GAIN_DECAY = 0.7


def _sample_directions(geometry: str, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform arrival directions: over the y > 0 hemisphere on a UPA, the azimuth half-plane on any other array."""
    if geometry != "upa":
        return azimuth_directions(rng.uniform(-np.pi / 2.0, np.pi / 2.0, count))
    dirs = rng.standard_normal((count, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs[:, 1] = np.abs(dirs[:, 1])
    return dirs


def generate_channel(true_array: AntennaArray, rng) -> MultipathChannel:
    """Draw one sparse channel realization on ``true_array``, from directions of its geometry."""
    rng = as_rng(rng)
    n_paths = int(rng.integers(PATHS_MIN, PATHS_MAX + 1))
    directions = _sample_directions(true_array.geometry, n_paths, rng)
    powers = GAIN_DECAY ** np.arange(n_paths)
    gains = complex_normal(rng, n_paths, 1.0) * np.sqrt(powers)
    vector = steering_matrix(true_array, directions) @ gains
    return MultipathChannel(gains, directions, vector)


def observe(channel: MultipathChannel, snr_db: float, rng) -> ChannelSample:
    """Noisy observation of ``channel`` at the requested input SNR.

    The noise variance is recorded on the sample: estimators run with a perfect
    noise-variance estimate. ``snr_db = inf`` disables the noise entirely.
    """
    rng = as_rng(rng)
    h = channel.vector
    n = h.shape[0]
    if math.isinf(snr_db) and snr_db > 0:
        return ChannelSample(h, h.copy(), 0.0, snr_db)
    noise_var = energy(h) / (n * from_db(snr_db))
    x = h + complex_normal(rng, n, noise_var)
    return ChannelSample(h, x, noise_var, float(snr_db))


def broken_count(fraction: float, n: int) -> int:
    """round(fraction * n), ties toward fewer: how many antennas a break zeroes."""
    return int(np.ceil(fraction * n - 0.5))


def break_antennas(array: AntennaArray, fraction: float, rng) -> AntennaArray:
    """Set to zero a uniformly chosen :func:`broken_count` of the antennas
    whose gain is still nonzero."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    rng = as_rng(rng)
    gains = array.gains.copy()
    working = np.flatnonzero(gains != 0)
    count = broken_count(fraction, len(working))
    if count > 0:
        gains[rng.choice(working, size=count, replace=False)] = 0.0
    return AntennaArray(array.positions, gains, geometry=array.geometry)


def age_antennas(array: AntennaArray, gain_std: float, rng) -> AntennaArray:
    """One aging step: every gain drifts by complex noise of variance ``gain_std**2``."""
    if gain_std < 0.0:
        raise ValueError("gain_std must be nonnegative")
    rng = as_rng(rng)
    gains = array.gains + complex_normal(rng, array.size, gain_std**2)
    return AntennaArray(array.positions, gains, geometry=array.geometry)


@dataclass(frozen=True)
class ArrayEvent:
    """Scheduled change of the true array: takes effect for all samples with
    index >= ``index``."""

    index: int
    kind: str
    fraction: float = 0.0
    gain_std: float = 0.0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("event index must be >= 0")
        if self.kind not in ("break", "age"):
            raise ValueError("event kind must be 'break' or 'age'")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must lie in [0, 1]")
        if not self.gain_std >= 0.0:
            raise ValueError("gain_std must be nonnegative")

    def apply(self, array: AntennaArray, rng) -> AntennaArray:
        if self.kind == "break":
            return break_antennas(array, self.fraction, rng)
        return age_antennas(array, self.gain_std, rng)


class ChannelStream:
    """Deterministic ordered source of channel observations, read through
    :meth:`take`; each ``take`` continues where the last one stopped.
    Scheduled :class:`ArrayEvent` entries swap the true array mid-stream at
    their declared sample indices. The samples are a pure function of the
    SNR model (``snr``), the base array, the events, and the generator seed."""

    def __init__(self, snr: FixedSnr | TruncatedGaussianSnr, true_array: AntennaArray, rng, events: Sequence[ArrayEvent] = ()):
        self.snr = snr
        self._array = true_array
        self._rng = as_rng(rng)
        self._events = sorted(events, key=lambda e: e.index)
        self._event_pos = 0
        self._index = 0

    @property
    def current_array(self) -> AntennaArray:
        return self._array

    def take(self, count: int) -> SampleBatch:
        if count < 0:
            raise ValueError("count must be >= 0")
        samples = []
        for _ in range(count):
            while self._event_pos < len(self._events) and self._events[self._event_pos].index <= self._index:
                self._array = self._events[self._event_pos].apply(self._array, self._rng)
                self._event_pos += 1
            snr_db = sample_snr(self.snr, self._rng)
            samples.append(observe(generate_channel(self._array, self._rng), snr_db, self._rng))
            self._index += 1
        if not samples:  # N comes from the array, as a replay's comes from its header
            empty = np.zeros((0, self._array.size), dtype=complex)
            return SampleBatch(empty, empty, np.zeros(0), np.zeros(0))
        return SampleBatch.of(samples)


def stream_header(n: int) -> str:
    """The header line of a stream file of ``n``-antenna samples."""
    header = ["index", "snr_db", "noise_var"]
    header += [f"x{i}_{p}" for i in range(n) for p in ("re", "im")]
    header += [f"h{i}_{p}" for i in range(n) for p in ("re", "im")]
    return ",".join(header) + "\n"


def sample_to_row(index: int, sample: ChannelSample) -> list[str]:
    """The fields of one stream-file row, one value at a time: the reference
    that :func:`stream_rows` matches byte for byte."""
    row = [str(index), fmt_float(sample.snr_db), fmt_float(sample.noise_var)]
    for vec in (sample.observation, sample.channel):
        for value in vec:
            row.append(fmt_float(value.real))
            row.append(fmt_float(value.imag))
    return row


def stream_rows(start: int, batch: SampleBatch) -> Iterator[str]:
    """The stream-file lines of a batch's samples numbered from ``start``:
    index, snr_db, noise_var, then interleaved re/im parts of the observation
    and of the ground-truth channel, each line ending in a newline. The
    columns go into one float array and are written in their shortest
    round-trip form; a line is made when it is drawn, so only one row's Python
    floats exist at a time (a whole minibatch of them is ~1.7 MB at N=64)."""
    values = np.column_stack((batch.snr_db, batch.noise_var, batch.observation.view(float), batch.channel.view(float)))
    return (f"{index},{','.join(map(repr, row.tolist()))}\n" for index, row in enumerate(values, start))


def _parse_row(path, line_no: int, line: str, n: int) -> np.ndarray:
    """The values after the index on line ``line_no`` of a stream file of ``n``-antenna samples."""
    fields = line.split(",")
    if len(fields) != 3 + 4 * n:
        raise ValueError(f"{path}: line {line_no}: malformed row with {len(fields)} fields")
    if fields[0] != str(line_no - 2):
        raise ValueError(f"{path}: line {line_no}: index {fields[0]!r}, expected {line_no - 2}")
    try:
        values = np.array([float(v) for v in fields[1:]])
    except ValueError:
        raise ValueError(f"{path}: line {line_no}: a field is not a number") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: line {line_no}: non-finite value")
    if values[1] < 0.0:
        raise ValueError(f"{path}: line {line_no}: noise variance must be nonnegative")
    return values


def _lines(path) -> Iterator[str]:
    """The lines of a text file, read one at a time and split as
    ``str.splitlines`` splits the whole text."""
    with open(path, encoding="utf-8") as handle:
        for physical in handle:
            yield from physical.splitlines()


def dump_stream(batch: SampleBatch, path) -> None:
    """Record a batch to CSV for a replay, one row per sample as :func:`stream_rows` writes it."""
    if not len(batch):
        raise ValueError("refusing to dump an empty stream")
    path = Path(path)
    with staged(path.parent) as stage, open(stage / path.name, "wb") as handle:
        handle.write(stream_header(batch.channel.shape[1]).encode("utf-8"))
        handle.writelines(line.encode("utf-8") for line in stream_rows(0, batch))


class ReplayStream:
    """Serve a stream dump's samples in order, reading one line at a time.
    Opening the file checks its header and counts its rows (``n_antennas``,
    ``count``); ``take`` parses rows as they are taken. A row that is
    malformed, holds a non-finite value or a negative noise variance, or breaks
    the 0, 1, 2, ... index order raises a ValueError naming the file and line."""

    def __init__(self, path):
        self._rows = enumerate(_lines(path), start=1)
        _, header = next(self._rows, (1, ""))
        self.count = sum(1 for _ in _lines(path)) - 1  # rows after the header
        if self.count < 1:
            raise ValueError(f"{path}: not a stream dump (no samples)")
        fields = header.split(",")
        if (len(fields) - 3) % 4 != 0 or fields[:3] != ["index", "snr_db", "noise_var"]:
            raise ValueError(f"{path}: unrecognized stream header")
        self.n_antennas = (len(fields) - 3) // 4
        self.path = path

    def take(self, count: int) -> SampleBatch:
        if count < 0:
            raise ValueError("count must be >= 0")
        n = self.n_antennas
        values = np.empty((count, 2 + 4 * n))
        for row in values:
            line_no, line = next(self._rows, (0, None))
            if line is None:
                raise ValueError("replay file has fewer samples than requested")
            row[:] = _parse_row(self.path, line_no, line, n)
        x = values[:, 2 : 2 * n + 2 : 2] + 1j * values[:, 3 : 2 * n + 2 : 2]
        h = values[:, 2 * n + 2 :: 2] + 1j * values[:, 2 * n + 3 :: 2]
        return SampleBatch(h, x, values[:, 1], values[:, 0])


def load_stream(path) -> SampleBatch:
    """Read a whole stream dump back, with the checks of :class:`ReplayStream`."""
    stream = ReplayStream(path)
    return stream.take(stream.count)
