"""Experiment harness: paired estimator comparisons on a shared observation
stream, the dictionary-mismatch SNR-loss sweep, and CSV artifacts.

Every estimator in a run consumes the identical realized samples, so curves are
directly comparable. Re-running a configuration with the same seed reproduces
every output byte for byte.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .arrays import (
    AntennaArray,
    Dictionary,
    azimuth_directions,
    build_dictionary,
    doa_grid_ula,
    perturb_array,
    steering_matrix,
    unit_response,
)
# not called here (the sweep builds whole response matrices): bench/spans.py wraps it by name
from .arrays import steering_vector  # noqa: F401
from .channels import ChannelStream, FixedSnr, ReplayStream, stream_header, stream_rows
# not called here (the run streams its rows): bench/spans.py wraps them by name
from .channels import load_stream, sample_to_row  # noqa: F401
from .config import NOISELESS_RUN, EstimatorSpec, ExperimentConfig, parse_estimator
from .estimators import BatchEstimate, StoppingRule, pursuit_batch
# the per-sample entry points stay importable from here: bench/spans.py wraps them by name
from .estimators import ls_estimate, matching_pursuit, omp  # noqa: F401
from .fileio import atomic_write_rows, fmt_float, staged
from .metrics import snr_bins
# not called here (mpnet.score_minibatch scores): bench/spans.py wraps it by name
from .metrics import rmse  # noqa: F401
from .mpnet import MpNetModel, OnlineTrainer, TrainConfig, save_checkpoint, score_minibatch
from .utils import as_rng, complex_normal, from_db, row_energies, to_db

CURVES_FILE = "curves.csv"
DEPTH_HIST_FILE = "depth_hist.csv"
SNR_HIST_FILE = "snr_hist.csv"
SNR_LOSS_FILE = "snr_loss.csv"
STREAM_FILE = "stream.csv"


RECORD = np.dtype([("mean_rmse", float), ("mean_depth", float), ("mean_cost", float)])


@dataclass
class ExperimentResult:
    """A learning run's table and histograms. ``records`` has one row per
    minibatch and one ``RECORD`` cell per roster entry, in roster order: the
    entry's scores and the trainer's unsupervised cost (NaN where no trainer
    reports one). ``depth_counts[name]`` counts the entry's estimates at each
    depth from 0 to the deepest one seen."""

    estimator_names: tuple[str, ...]
    records: np.ndarray
    depth_counts: dict[str, np.ndarray]
    snr_edges: np.ndarray
    snr_counts: np.ndarray
    output_files: dict[str, Path] = field(default_factory=dict)

    @property
    def rmse_linear(self) -> dict[str, np.ndarray]:
        return dict(zip(self.estimator_names, self.records["mean_rmse"].T))

    @property
    def mean_depth(self) -> dict[str, np.ndarray]:
        return dict(zip(self.estimator_names, self.records["mean_depth"].T))

    @property
    def mean_cost(self) -> dict[str, np.ndarray]:
        return dict(zip(self.estimator_names, self.records["mean_cost"].T))

    def rmse_db(self, name: str) -> np.ndarray:
        return 10.0 * np.log10(self.rmse_linear[name])


@dataclass
class LearningRun:
    """A learning run at a minibatch boundary: its stream, its roster (each
    mpNet entry's trainer under its name), the MP/OMP dictionaries, the
    minibatch count and size, and the array the ``oracle`` dictionary was
    built from, if any; then how many minibatches it has ``taken``, their
    rows of ``records``, each entry's depth counts and the SNR histogram. A
    binary handle set as ``dump`` gets each minibatch's stream rows. A run
    with no whole minibatch, a replay too short for the count, or a
    noiseless live stream fails when it is built."""

    stream: ChannelStream | ReplayStream
    specs: Sequence[EstimatorSpec]
    trainers: dict[str, OnlineTrainer]
    dictionaries: dict[str, Dictionary]
    n_minibatches: int
    batch_size: int
    oracle_array: AntennaArray | None = None
    dump: BinaryIO | None = field(init=False, default=None)
    taken: int = field(init=False, default=0)
    records: np.ndarray = field(init=False, repr=False)
    depth_counts: dict[str, Counter[int]] = field(init=False)
    snr_floors: Counter[int] = field(init=False, default_factory=Counter)
    snr_top: float = field(init=False, default=-math.inf)

    def __post_init__(self) -> None:
        if self.n_minibatches < 1:
            raise ValueError("total_samples is smaller than one minibatch")
        if isinstance(self.stream, ReplayStream):
            needed = self.n_minibatches * self.batch_size
            if self.stream.count < needed:
                raise ValueError(f"replay file {self.stream.path} holds {self.stream.count} samples; the run needs {needed} ({self.n_minibatches} minibatches of {self.batch_size})")
        elif self.stream.snr == FixedSnr(math.inf):
            raise ValueError(NOISELESS_RUN)
        self.records = np.full((self.n_minibatches, len(self.specs)), np.nan, dtype=RECORD)
        self.depth_counts = {spec.name: Counter() for spec in self.specs}

    def step(self) -> np.ndarray:
        """Run the next minibatch: take it, rebuild the oracle dictionary when
        an anomaly has replaced the true array, count its SNRs, append it to
        the dump, then run, count and score each roster entry in order into
        its cell of the row it returns. MP and OMP entries of one family and
        rule on the same dictionary object share one pass."""
        batch = self.stream.take(self.batch_size)
        if any(spec.source == "oracle" for spec in self.specs) and self.stream.current_array is not self.oracle_array:
            self.oracle_array = self.stream.current_array
            self.dictionaries["oracle"] = build_dictionary(self.oracle_array, self.dictionaries["nominal"].directions)
        self.snr_floors.update(np.floor(batch.snr_db).astype(int).tolist())
        self.snr_top = max(self.snr_top, *batch.snr_db.tolist())
        if self.dump is not None:
            self.dump.writelines(line.encode("utf-8") for line in stream_rows(self.taken * self.batch_size, batch))
        row = self.records[self.taken]
        self.taken += 1
        # the roster sees the observations and noise variances
        X, noise_vars = batch.observation, batch.noise_var
        pursued = {}
        for i, spec in enumerate(self.specs):
            mean_cost = math.nan
            if spec.family == "mpnet":
                # trainers share no state: each Adam step follows its own forward pass
                estimates, mean_cost = self.trainers[spec.name].step(batch)
            elif spec.family == "ls":
                estimates = BatchEstimate(X, np.zeros(len(X), dtype=int), np.zeros((len(X), 0), dtype=np.intp), np.zeros(len(X)))
            else:
                dictionary = self.dictionaries[spec.source]
                key = (spec.family, spec.rule, id(dictionary))  # every dictionary lives through the step
                if key not in pursued:
                    pursued[key] = pursuit_batch(dictionary, X, spec.rule, noise_vars, spec.family == "omp")
                estimates = pursued[key]
            self.depth_counts[spec.name].update(estimates.depth.tolist())
            row[i] = (*score_minibatch(batch.channel, estimates), mean_cost)
        return row

    def finish(self) -> ExperimentResult:
        """Run the minibatches left; the run's table, each entry's depth
        counts and the SNR histogram, as a result with no output files."""
        while self.taken < self.n_minibatches:
            self.step()
        depth_counts = {name: np.array([counts[depth] for depth in range(max(counts) + 1)]) for name, counts in self.depth_counts.items()}
        return ExperimentResult(tuple(self.depth_counts), self.records, depth_counts, *snr_bins(self.snr_floors, self.snr_top))


def run_learning_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Run every roster estimator over one shared stream; train the network
    entries online; optionally write the CSV artifacts into ``out_dir``.

    Learned models see only observations and noise variances; the ground truth
    is used exclusively for the reported rMSE.
    """
    specs = [parse_estimator(s) for s in cfg.estimators]

    seed_root = np.random.SeedSequence(cfg.seed)
    perturb_seed, stream_seed, xavier_seed = seed_root.spawn(3)

    nominal = cfg.array.build_nominal()
    true_array = perturb_array(nominal, cfg.array.gain_std, cfg.array.pos_std, as_rng(perturb_seed))
    directions = cfg.array.doa_grid(cfg.n_atoms)
    dictionaries = {
        "nominal": build_dictionary(nominal, directions),
        "ideal": build_dictionary(true_array, directions),
    }
    dictionaries["oracle"] = dictionaries["ideal"]  # it follows the stream's true array from there

    if cfg.replay_stream is not None:
        stream = ReplayStream(cfg.replay_stream)
        if stream.n_antennas != nominal.size:
            raise ValueError(f"replay file {cfg.replay_stream} holds {stream.n_antennas}-antenna samples; the array has {nominal.size}")
    else:
        stream = ChannelStream(cfg.snr, true_array, as_rng(stream_seed), cfg.anomalies)

    xavier_rng = as_rng(xavier_seed)
    trainers: dict[str, OnlineTrainer] = {}
    for spec in specs:
        if spec.family == "mpnet":
            if spec.source == "nominal":
                model = MpNetModel.from_dictionary(dictionaries["nominal"], spec.rule)
            else:
                model = MpNetModel.xavier(nominal.size, cfg.n_atoms, spec.rule, xavier_rng)
            trainers[spec.name] = OnlineTrainer(model, cfg.training, name=spec.name)

    batch_size = cfg.training.minibatch_size
    run = LearningRun(stream, specs, trainers, dictionaries, cfg.total_samples // batch_size, batch_size, oracle_array=true_array)
    out_dir = None if out_dir is None else Path(out_dir)
    with ExitStack() as stack:
        # every artifact is staged (fileio.staged) and moves in when the run ends; a
        # dumping run stages from the start, its stream file growing a minibatch at a
        # time, and any other makes no directory before its last minibatch
        stage = stack.enter_context(staged(out_dir)) if cfg.dump_stream and out_dir is not None else None
        if stage is not None:
            run.dump = stack.enter_context(open(stage / STREAM_FILE, "wb"))
            run.dump.write(stream_header(nominal.size).encode("utf-8"))
        result = run.finish()
        if out_dir is not None:
            stage = stage or stack.enter_context(staged(out_dir))
            _write_artifacts(stage, specs, trainers, result)
            result.output_files = {path.stem: out_dir / path.name for path in sorted(stage.iterdir())}
    return result


def train_online(model: MpNetModel, stream: ChannelStream | ReplayStream, total_samples: int, cfg: TrainConfig = TrainConfig()) -> ExperimentResult:
    """Train ``model`` on the first ``total_samples`` samples of a stream, one
    Adam update per minibatch of ``cfg.minibatch_size``: a learning run whose
    roster is this one mpNet entry, named after the trainer. A trailing
    partial minibatch is never taken. Fewer samples than one minibatch, a
    replay too short for the rest, or a live stream with no noise fails
    before the first step."""
    trainer = OnlineTrainer(model, cfg)
    spec = EstimatorSpec(trainer.name, "mpnet", "nominal", model.rule)  # the run reads no mpNet entry's source
    run = LearningRun(stream, [spec], {trainer.name: trainer}, {}, total_samples // cfg.minibatch_size, cfg.minibatch_size)
    return run.finish()


def _write_artifacts(stage: Path, specs: Sequence[EstimatorSpec], trainers: dict[str, OnlineTrainer], result: ExperimentResult) -> None:
    """Write the curves, histograms and checkpoints into the ``stage`` directory."""
    _write_curves(stage / CURVES_FILE, specs, result.records)
    _write_depth_hist(stage / DEPTH_HIST_FILE, specs, result.depth_counts)
    _write_snr_hist(stage / SNR_HIST_FILE, result.snr_edges, result.snr_counts)
    for spec in specs:
        if spec.family == "mpnet":
            save_checkpoint(stage / f"checkpoint_{spec.column}.npz", trainers[spec.name].model, trainers[spec.name].adam)


def _write_curves(path: Path, specs: Sequence[EstimatorSpec], records: np.ndarray) -> None:
    header = ["minibatch"]
    for spec in specs:
        header += [f"{spec.column}_rmse_db", f"{spec.column}_mean_depth"]
    rows = []
    for minibatch, cells in enumerate(records, 1):
        row = [str(minibatch)]
        for mean_rmse, mean_depth, _ in cells.tolist():
            row += [fmt_float(to_db(mean_rmse)), fmt_float(mean_depth)]
        rows.append(row)
    atomic_write_rows(path, header, rows)


def _write_depth_hist(path: Path, specs: Sequence[EstimatorSpec], counts: dict[str, np.ndarray]) -> None:
    rows = []
    for spec in specs:
        for depth, count in enumerate(counts[spec.name]):
            rows.append([spec.column, str(depth), str(int(count))])
    atomic_write_rows(path, ["estimator", "depth", "count"], rows)


def _write_snr_hist(path: Path, edges: np.ndarray, counts: np.ndarray) -> None:
    rows = [
        [fmt_float(edges[i]), fmt_float(edges[i + 1]), str(int(counts[i]))]
        for i in range(counts.shape[0])
    ]
    atomic_write_rows(path, ["bin_low_db", "bin_high_db", "count"], rows)


def snr_loss_experiment(cfg: ExperimentConfig, out_dir=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean estimation-error penalty (dB) of using the assumed dictionary instead
    of the true one, over a grid of gain/position uncertainties.

    Single-path channels with uniformly random azimuth at the fixed SNR
    ``cfg.snr`` (``inf`` is noiseless), estimated by one projection
    step with each dictionary of ``cfg.n_atoms`` atoms. The same underlying
    noise draws are reused across grid cells, so the sweep is smooth and the
    zero-uncertainty cell is exactly 0 dB. Returns (pos_stds, gain_stds,
    loss_db) with loss_db indexed [pos, gain].
    """
    spec = cfg.snr_loss
    if spec is None:
        raise ValueError("config has no snr_loss section")

    nominal = cfg.array.build_nominal()
    n = nominal.size
    directions = doa_grid_ula(cfg.n_atoms)
    dict_nominal = build_dictionary(nominal, directions)
    rule = StoppingRule.fixed(1)
    rng = as_rng(np.random.SeedSequence(cfg.seed))

    pos_stds = np.asarray(spec.pos_stds, dtype=float)
    gain_stds = np.asarray(spec.gain_stds, dtype=float)
    ratios = np.zeros((pos_stds.size, gain_stds.size))
    snr_lin = from_db(cfg.snr.value_db)

    no_noise_var = [0.0] * spec.channels_per_array  # a fixed-depth rule never reads it
    for _ in range(spec.n_arrays):
        gain_noise = complex_normal(rng, n, 1.0)
        pos_noise = rng.standard_normal(n)
        azimuths = rng.uniform(-np.pi / 2.0, np.pi / 2.0, spec.channels_per_array)
        noise_draws = complex_normal(rng, (spec.channels_per_array, n), 1.0)
        chan_dirs = azimuth_directions(azimuths)
        for i, pos_std in enumerate(pos_stds):
            # the gain cells of one position spread share the geometry part of
            # every response; each cell only scales it by its own gains
            offsets = np.zeros((n, 3))
            offsets[:, 0] = pos_std * pos_noise
            positions = nominal.positions + offsets
            atom_response = unit_response(positions, directions)
            chan_response = unit_response(positions, chan_dirs)
            for j, gain_std in enumerate(gain_stds):
                true_array = AntennaArray(positions, nominal.gains + gain_std * gain_noise, geometry="ula")
                dict_true = build_dictionary(true_array, directions, response=atom_response)
                # C order: pursue and row_energies give other bits on a transposed view
                H = np.ascontiguousarray(steering_matrix(true_array, chan_dirs, response=chan_response).T)
                X = H + np.sqrt(row_energies(H) / (n * snr_lin))[:, None] * noise_draws
                # each pursuit's per-row error energy, not its B x N estimate
                by_nominal = row_energies(pursuit_batch(dict_nominal, X, rule, no_noise_var).channel - H)
                by_true = row_energies(pursuit_batch(dict_true, X, rule, no_noise_var).channel - H)
                cell = 0.0
                for ratio in (by_nominal / by_true).tolist():
                    cell += ratio
                ratios[i, j] += cell / spec.channels_per_array
                del dict_true, H, X
            del atom_response, chan_response  # before the next position's are built
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
