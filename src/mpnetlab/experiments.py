"""Experiment harness: paired estimator comparisons on a shared observation
stream, the dictionary-mismatch SNR-loss sweep, and CSV artifacts.

Every estimator in a run consumes the identical realized samples, so curves are
directly comparable. Re-running a configuration with the same seed reproduces
every output byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .arrays import (
    AntennaArray,
    Dictionary,
    build_dictionary,
    doa_grid_ula,
    doa_grid_upa,
    make_ula,
    make_upa,
    perturb_array,
    steering_vector,
)
from .channels import (
    ArrayEvent,
    ChannelGenConfig,
    ChannelSample,
    ChannelStream,
    ReplayStream,
    _sample_header,
    load_stream,
    make_stream,
    sample_to_row,
)
from .estimators import Estimate, StoppingRule, ls_estimate, pursuit_batch
# the per-sample entry points stay importable from here: bench/spans.py wraps them by name
from .estimators import matching_pursuit, omp  # noqa: F401
from .fileio import atomic_write_rows, fmt_float
from .metrics import rmse, snr_histogram
from .mpnet import MinibatchRecord, MpNetModel, OnlineTrainer, TrainConfig, save_checkpoint
from .utils import as_rng, complex_normal, energy, from_db, to_db

CURVES_FILE = "curves.csv"
DEPTH_HIST_FILE = "depth_hist.csv"
SNR_HIST_FILE = "snr_hist.csv"
SNR_LOSS_FILE = "snr_loss.csv"
STREAM_FILE = "stream.csv"


@dataclass(frozen=True)
class ArraySpec:
    """Base-station array description plus the uncertainty of the true hardware."""

    shape: tuple[int, ...]
    spacing: float = 0.5
    gain_std: float = 0.0
    pos_std: float = 0.0

    def __post_init__(self) -> None:
        if len(self.shape) not in (1, 2) or any(d < 1 for d in self.shape):
            raise ValueError("array shape must be (n,) for a ULA or (nx, nz) for a UPA")
        if self.spacing <= 0.0:
            raise ValueError("spacing must be positive")
        if self.gain_std < 0.0 or self.pos_std < 0.0:
            raise ValueError("uncertainty standard deviations must be nonnegative")

    @property
    def geometry(self) -> str:
        return "ula" if len(self.shape) == 1 else "upa"

    @property
    def n_antennas(self) -> int:
        return int(np.prod(self.shape))

    def build_nominal(self) -> AntennaArray:
        if self.geometry == "ula":
            return make_ula(self.shape[0], self.spacing)
        return make_upa(self.shape[0], self.shape[1], self.spacing)

    def doa_grid(self, count: int) -> np.ndarray:
        return doa_grid_ula(count) if self.geometry == "ula" else doa_grid_upa(count)

    @property
    def doa_domain(self) -> str:
        return "azimuth" if self.geometry == "ula" else "hemisphere"


@dataclass(frozen=True)
class SnrLossSpec:
    """Grid sweep of gain/position uncertainty for the model-mismatch experiment."""

    pos_stds: tuple[float, ...]
    gain_stds: tuple[float, ...]
    n_arrays: int = 5
    channels_per_array: int = 200
    snr_db: float = 10.0
    n_atoms: int | None = None  # defaults to 32 * N

    def __post_init__(self) -> None:
        if not self.pos_stds or not self.gain_stds:
            raise ValueError("the sweep needs at least one value per axis")
        if any(v < 0 for v in self.pos_stds) or any(v < 0 for v in self.gain_stds):
            raise ValueError("uncertainty values must be nonnegative")
        if self.n_arrays < 1 or self.channels_per_array < 1:
            raise ValueError("trial counts must be >= 1")


@dataclass(frozen=True)
class EstimatorSpec:
    """Parsed roster entry; ``name`` is the literal config string."""

    name: str
    family: str  # ls | mp | omp | mpnet
    source: str  # none | nominal | ideal | oracle | xavier
    rule: StoppingRule | None

    @property
    def column(self) -> str:
        return self.name.replace(":", "_")


def _parse_rule(token: str, context: str) -> StoppingRule:
    if token == "sc1":
        return StoppingRule.sc1()
    if token == "sc2":
        return StoppingRule.sc2()
    if token.startswith("fixed"):
        try:
            depth = int(token[len("fixed") :])
        except ValueError:
            raise ValueError(f"{context}: bad fixed-depth rule {token!r}") from None
        return StoppingRule.fixed(depth)
    raise ValueError(f"{context}: unknown stopping rule {token!r}")


def parse_estimator(spec: str) -> EstimatorSpec:
    """Parse roster strings like ``ls``, ``mp:nominal:sc2``, ``omp:ideal:sc1``,
    ``omp:oracle:sc2``, ``mpnet:nominal:fixed8`` or ``mpnet:xavier:sc2``."""
    parts = spec.split(":")
    if parts == ["ls"]:
        return EstimatorSpec(spec, "ls", "none", None)
    if len(parts) != 3:
        raise ValueError(f"estimator {spec!r}: expected family:source:rule")
    family, source, rule_token = parts
    if family in ("mp", "omp"):
        if source not in ("nominal", "ideal", "oracle"):
            raise ValueError(f"estimator {spec!r}: dictionary must be nominal, ideal or oracle")
    elif family == "mpnet":
        if source not in ("nominal", "xavier"):
            raise ValueError(f"estimator {spec!r}: init must be nominal or xavier")
    else:
        raise ValueError(f"estimator {spec!r}: unknown family {family!r}")
    return EstimatorSpec(spec, family, source, _parse_rule(rule_token, f"estimator {spec!r}"))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: geometry, channel model, roster, training, schedule."""

    seed: int
    array: ArraySpec
    n_atoms: int
    channel: ChannelGenConfig
    training: TrainConfig
    estimators: tuple[str, ...] = ()
    total_samples: int = 0
    anomalies: tuple[ArrayEvent, ...] = ()
    dump_stream: bool = False
    replay_stream: str | None = None
    snr_loss: SnrLossSpec | None = None
    output_dir: str | None = None

    def __post_init__(self) -> None:
        if self.n_atoms < 1:
            raise ValueError("dictionary size must be >= 1")
        for event in self.anomalies:
            if event.index >= self.total_samples:
                raise ValueError(f"anomaly at index {event.index} falls beyond the stream")
        if self.total_samples > 0:
            if not self.estimators:
                raise ValueError("a learning run needs a nonempty estimator roster")
            if len(set(self.estimators)) != len(self.estimators):
                raise ValueError("duplicate estimator roster entries")
            for spec in self.estimators:
                parse_estimator(spec)
        elif self.snr_loss is None:
            raise ValueError("config describes neither a learning run nor an SNR-loss sweep")


@dataclass(frozen=True)
class MetricRecord:
    """One evaluation row: per-estimator mean rMSE (dB) and mean depth."""

    minibatch: int
    rmse_db: dict[str, float]
    mean_depth: dict[str, float]


@dataclass
class ExperimentResult:
    estimator_names: tuple[str, ...]
    records: list[MetricRecord]
    rmse_linear: dict[str, np.ndarray]
    mean_depth: dict[str, np.ndarray]
    depth_counts: dict[str, np.ndarray]
    snr_edges: np.ndarray
    snr_counts: np.ndarray
    output_files: dict[str, Path] = field(default_factory=dict)

    def rmse_db(self, name: str) -> np.ndarray:
        return 10.0 * np.log10(self.rmse_linear[name])


class _BaselineRunner:
    """Minibatch evaluation of a non-learning estimator, bookkeeping identical
    to the trainer's."""

    def __init__(self, fn: Callable[[Sequence[ChannelSample]], list[Estimate]]):
        self._fn = fn
        self.minibatches_done = 0
        self._reset()

    def _reset(self) -> None:
        self._rmse = 0.0
        self._depths: list[int] = []

    def process_batch(self, samples: Sequence[ChannelSample]) -> list[Estimate]:
        estimates = self._fn(samples)
        for est, sample in zip(estimates, samples):
            self._rmse += rmse(est.channel, sample.channel)
            self._depths.append(est.depth)
        return estimates

    def end_minibatch(self) -> MinibatchRecord:
        count = len(self._depths)
        if count == 0:
            raise ValueError("no samples processed in this minibatch")
        self.minibatches_done += 1
        record = MinibatchRecord(
            minibatch=self.minibatches_done,
            mean_cost=float("nan"),
            mean_rmse=self._rmse / count,
            mean_depth=float(np.mean(self._depths)),
            depth_counts=np.bincount(self._depths),
        )
        self._reset()
        return record


class _OracleDictionary:
    """Rebuilds a dictionary from the stream's current true array whenever it
    changes (refreshed at minibatch granularity)."""

    def __init__(self, stream: ChannelStream, directions: np.ndarray):
        self._stream = stream
        self._directions = directions
        self._array: AntennaArray | None = None
        self._dictionary: Dictionary | None = None

    def current(self) -> Dictionary:
        array = self._stream.current_array
        if array is not self._array:
            self._array = array
            self._dictionary = build_dictionary(array, self._directions)
        return self._dictionary


def _baseline_fn(
    spec: EstimatorSpec,
    dictionaries: dict[str, Dictionary],
    oracle: _OracleDictionary | None,
) -> Callable[[Sequence[ChannelSample]], list[Estimate]]:
    if spec.family == "ls":
        return lambda samples: [ls_estimate(sample.observation) for sample in samples]
    if spec.source == "oracle" and oracle is None:
        raise ValueError("oracle estimators need a live stream (not a replay)")
    orthogonal = spec.family == "omp"

    def run(samples: Sequence[ChannelSample]) -> list[Estimate]:
        dictionary = oracle.current() if spec.source == "oracle" else dictionaries[spec.source]
        X = np.array([sample.observation for sample in samples])
        return pursuit_batch(dictionary, X, spec.rule, [sample.noise_var for sample in samples], orthogonal)

    return run


def _add_counts(total: np.ndarray, extra: np.ndarray) -> np.ndarray:
    if extra.shape[0] > total.shape[0]:
        total = np.pad(total, (0, extra.shape[0] - total.shape[0]))
    total[: extra.shape[0]] += extra
    return total


def run_learning_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Run every roster estimator over one shared stream; train the network
    entries online; optionally write the CSV artifacts into ``out_dir``.

    Learned models see only observations and noise variances; the ground truth
    is used exclusively for the reported rMSE.
    """
    specs = [parse_estimator(s) for s in cfg.estimators]
    if not specs:
        raise ValueError("estimator roster is empty")
    if cfg.total_samples < cfg.training.minibatch_size:
        raise ValueError("total_samples is smaller than one minibatch")

    seed_root = np.random.SeedSequence(cfg.seed)
    perturb_seed, stream_seed, xavier_seed = seed_root.spawn(3)

    nominal = cfg.array.build_nominal()
    true_array = perturb_array(nominal, cfg.array.gain_std, cfg.array.pos_std, as_rng(perturb_seed))
    directions = cfg.array.doa_grid(cfg.n_atoms)
    dictionaries = {
        "nominal": build_dictionary(nominal, directions),
        "ideal": build_dictionary(true_array, directions),
    }

    channel_cfg = replace(cfg.channel, doa_domain=cfg.array.doa_domain)
    if cfg.replay_stream is not None:
        stream = ReplayStream(load_stream(cfg.replay_stream))
        oracle = None
    else:
        stream = make_stream(channel_cfg, true_array, as_rng(stream_seed), cfg.anomalies)
        oracle = _OracleDictionary(stream, directions)

    xavier_rng = as_rng(xavier_seed)
    runners: list[tuple[EstimatorSpec, OnlineTrainer | _BaselineRunner]] = []
    trainers: dict[str, OnlineTrainer] = {}
    for spec in specs:
        if spec.family == "mpnet":
            if spec.source == "nominal":
                model = MpNetModel.from_dictionary(dictionaries["nominal"], spec.rule)
            else:
                model = MpNetModel.xavier(nominal.size, cfg.n_atoms, spec.rule, xavier_rng)
            trainer = OnlineTrainer(model, cfg.training, name=spec.name)
            trainers[spec.name] = trainer
            runners.append((spec, trainer))
        else:
            runners.append((spec, _BaselineRunner(_baseline_fn(spec, dictionaries, oracle))))

    batch_size = cfg.training.minibatch_size
    n_minibatches = cfg.total_samples // batch_size
    names = tuple(spec.name for spec in specs)
    rmse_curves: dict[str, list[float]] = {name: [] for name in names}
    depth_curves: dict[str, list[float]] = {name: [] for name in names}
    depth_counts: dict[str, np.ndarray] = {name: np.zeros(1, dtype=int) for name in names}
    snr_values: list[float] = []
    dump_rows: list[list[str]] = []

    for index in range(n_minibatches):
        batch = stream.take(batch_size)
        snr_values.extend(s.snr_db for s in batch)
        if cfg.dump_stream:
            dump_rows.extend(sample_to_row(index * batch_size + i, s) for i, s in enumerate(batch))
        for spec, runner in runners:
            runner.process_batch(batch)
            record = runner.end_minibatch()
            rmse_curves[spec.name].append(record.mean_rmse)
            depth_curves[spec.name].append(record.mean_depth)
            depth_counts[spec.name] = _add_counts(depth_counts[spec.name], record.depth_counts)

    records = [
        MetricRecord(
            minibatch=b + 1,
            rmse_db={name: to_db(rmse_curves[name][b]) for name in names},
            mean_depth={name: depth_curves[name][b] for name in names},
        )
        for b in range(n_minibatches)
    ]
    edges, counts = snr_histogram(snr_values)
    result = ExperimentResult(
        estimator_names=names,
        records=records,
        rmse_linear={name: np.asarray(rmse_curves[name]) for name in names},
        mean_depth={name: np.asarray(depth_curves[name]) for name in names},
        depth_counts=depth_counts,
        snr_edges=edges,
        snr_counts=counts,
    )

    if out_dir is not None:
        out_dir = Path(out_dir)
        result.output_files["curves"] = _write_curves(out_dir / CURVES_FILE, specs, records)
        result.output_files["depth_hist"] = _write_depth_hist(out_dir / DEPTH_HIST_FILE, specs, depth_counts)
        result.output_files["snr_hist"] = _write_snr_hist(out_dir / SNR_HIST_FILE, edges, counts)
        for spec in specs:
            if spec.family == "mpnet":
                trainer = trainers[spec.name]
                path = out_dir / f"checkpoint_{spec.column}.npz"
                save_checkpoint(path, trainer.model, trainer.adam)
                result.output_files[f"checkpoint_{spec.column}"] = path
        if cfg.dump_stream:
            if not dump_rows:
                raise ValueError("nothing to dump: stream produced no samples")
            path = out_dir / STREAM_FILE
            atomic_write_rows(path, _sample_header(nominal.size), dump_rows)
            result.output_files["stream"] = path
    return result


def _write_curves(path: Path, specs: Sequence[EstimatorSpec], records: Sequence[MetricRecord]) -> Path:
    header = ["minibatch"]
    for spec in specs:
        header += [f"{spec.column}_rmse_db", f"{spec.column}_mean_depth"]
    rows = []
    for record in records:
        row = [str(record.minibatch)]
        for spec in specs:
            row += [fmt_float(record.rmse_db[spec.name]), fmt_float(record.mean_depth[spec.name])]
        rows.append(row)
    atomic_write_rows(path, header, rows)
    return path


def _write_depth_hist(path: Path, specs: Sequence[EstimatorSpec], counts: dict[str, np.ndarray]) -> Path:
    rows = []
    for spec in specs:
        for depth, count in enumerate(counts[spec.name]):
            rows.append([spec.column, str(depth), str(int(count))])
    atomic_write_rows(path, ["estimator", "depth", "count"], rows)
    return path


def _write_snr_hist(path: Path, edges: np.ndarray, counts: np.ndarray) -> Path:
    rows = [
        [fmt_float(edges[i]), fmt_float(edges[i + 1]), str(int(counts[i]))]
        for i in range(counts.shape[0])
    ]
    atomic_write_rows(path, ["bin_low_db", "bin_high_db", "count"], rows)
    return path


def snr_loss_experiment(cfg: ExperimentConfig, out_dir=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean estimation-error penalty (dB) of using the assumed dictionary instead
    of the true one, over a grid of gain/position uncertainties.

    Single-path channels with uniformly random azimuth, estimated by one
    projection step with each dictionary. The same underlying noise draws are
    reused across grid cells, so the sweep is smooth and the zero-uncertainty
    cell is exactly 0 dB. Returns (pos_stds, gain_stds, loss_db) with loss_db
    indexed [pos, gain].
    """
    spec = cfg.snr_loss
    if spec is None:
        raise ValueError("config has no snr_loss section")
    if cfg.array.geometry != "ula":
        raise ValueError("the SNR-loss sweep is defined for linear arrays")

    nominal = cfg.array.build_nominal()
    n = nominal.size
    n_atoms = spec.n_atoms if spec.n_atoms is not None else 32 * n
    directions = doa_grid_ula(n_atoms)
    dict_nominal = build_dictionary(nominal, directions)
    rule = StoppingRule.fixed(1)
    rng = as_rng(np.random.SeedSequence(cfg.seed))

    pos_stds = np.asarray(spec.pos_stds, dtype=float)
    gain_stds = np.asarray(spec.gain_stds, dtype=float)
    ratios = np.zeros((pos_stds.size, gain_stds.size))
    snr_lin = from_db(spec.snr_db)

    for _ in range(spec.n_arrays):
        gain_noise = complex_normal(rng, n, 1.0)
        pos_noise = rng.standard_normal(n)
        azimuths = rng.uniform(-np.pi / 2.0, np.pi / 2.0, spec.channels_per_array)
        noise_draws = complex_normal(rng, (spec.channels_per_array, n), 1.0)
        for i, pos_std in enumerate(pos_stds):
            for j, gain_std in enumerate(gain_stds):
                offsets = np.zeros((n, 3))
                offsets[:, 0] = pos_std * pos_noise
                true_array = AntennaArray(
                    nominal.positions + offsets,
                    nominal.gains + gain_std * gain_noise,
                    geometry="ula",
                )
                dict_true = build_dictionary(true_array, directions)
                H = np.array([steering_vector(true_array, np.array([np.sin(az), np.cos(az), 0.0])) for az in azimuths])
                X = np.array([h + np.sqrt(energy(h) / (n * snr_lin)) * noise for h, noise in zip(H, noise_draws)])
                no_noise_var = [0.0] * len(X)  # a fixed-depth rule never reads it
                by_nominal = pursuit_batch(dict_nominal, X, rule, no_noise_var)
                by_true = pursuit_batch(dict_true, X, rule, no_noise_var)
                cell = 0.0
                for h, est_nominal, est_true in zip(H, by_nominal, by_true):
                    cell += energy(est_nominal.channel - h) / energy(est_true.channel - h)
                ratios[i, j] += cell / spec.channels_per_array
    ratios /= spec.n_arrays
    loss_db = 10.0 * np.log10(ratios)

    if out_dir is not None:
        rows = [
            [fmt_float(pos_stds[i]), fmt_float(gain_stds[j]), fmt_float(loss_db[i, j])]
            for i in range(pos_stds.size)
            for j in range(gain_stds.size)
        ]
        atomic_write_rows(Path(out_dir) / SNR_LOSS_FILE, ["pos_std", "gain_std", "loss_db"], rows)
    return pos_stds, gain_stds, loss_db
