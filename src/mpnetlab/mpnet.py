"""mpNet: matching pursuit unfolded into a network with a trainable dictionary.

Each layer selects the weight column most correlated with the running residual
and subtracts the corresponding rank-one term; the stopping rule makes the
depth adapt to the input. Because a layer routes the signal through a single
column, the exact gradient of the reconstruction cost is column-sparse and
costs O(depth * N) to assemble, an order cheaper than the forward pass.

The weights change only at a minibatch boundary, so a whole minibatch runs
through the shared pursuit kernel (``estimators.pursue``) in one call: per
layer, one matrix product correlates a tile of still-active samples with the
weights. The backward pass replays each sample's trace and sums its gradient
into buffers for the visited columns only; the trainer adds just those
columns into the minibatch gradient, in arrival order.

Training is online and unsupervised: minibatches of noisy observations are
both the inputs and the targets (the network is a denoising autoencoder), so
no clean channels are ever needed. The model is single-writer: only the
training loop mutates the weights; inference on a weight snapshot is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Sequence

import numpy as np

from .channels import ChannelSample
from .estimators import Estimate, StoppingRule, pursue
from .fileio import atomic_savez
from .metrics import rmse
from .utils import as_rng, complex_normal, energy

UNIT_INPUT_TOL = 1e-9
STALE_TRACE_TOL = 1e-9

INIT_NOMINAL = "nominal_dictionary"
INIT_XAVIER = "xavier_random"

CHECKPOINT_VERSION = 1


def ht1(values: np.ndarray) -> np.ndarray:
    """Keep only the largest-modulus entry (lowest index on ties), zero the rest."""
    v = np.asarray(values)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty vector")
    out = np.zeros_like(v)
    s = int(np.argmax(np.abs(v)))
    out[s] = v[s]
    return out


def xavier_init(n_antennas: int, n_atoms: int, rng, normalize: bool = True) -> np.ndarray:
    """Random complex weights with per-entry variance 2 / (N + A).

    With ``normalize`` the columns are rescaled to unit norm afterwards, for
    parity with a normalized-dictionary initialization.
    """
    if n_antennas < 1 or n_atoms < 1:
        raise ValueError("weight dimensions must be >= 1")
    rng = as_rng(rng)
    w = complex_normal(rng, (n_antennas, n_atoms), 2.0 / (n_antennas + n_atoms))
    if normalize:
        w /= np.linalg.norm(w, axis=0, keepdims=True)
    return w


@dataclass
class MpNetModel:
    """Trainable weight matrix (N x A) plus the stopping rule that sets its depth."""

    weights: np.ndarray
    rule: StoppingRule
    init: str = INIT_NOMINAL

    def __post_init__(self) -> None:
        weights = np.array(self.weights, dtype=complex)
        if weights.ndim != 2 or min(weights.shape) < 1:
            raise ValueError("weights must be a nonempty (N, A) matrix")
        if not np.all(np.isfinite(weights.view(float))):
            raise ValueError("weights must be finite")
        self.weights = weights

    @property
    def n_antennas(self) -> int:
        return self.weights.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def from_dictionary(cls, dictionary, rule: StoppingRule) -> "MpNetModel":
        return cls(dictionary.atoms.copy(), rule, init=INIT_NOMINAL)

    @classmethod
    def xavier(cls, n_antennas: int, n_atoms: int, rule: StoppingRule, rng) -> "MpNetModel":
        return cls(xavier_init(n_antennas, n_atoms, rng), rule, init=INIT_XAVIER)


@dataclass(frozen=True)
class ForwardTrace:
    """Per-layer record of one forward pass: selected columns, their coefficients,
    and the final residual, all on the unit-input scale. Enough to replay the
    pass and to assemble the analytic gradient."""

    indices: tuple[int, ...]
    coeffs: np.ndarray
    final_residual: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.indices)


def forward_batch(model: MpNetModel, X_unit: np.ndarray, noise_var_norms: Sequence[float]) -> list[ForwardTrace]:
    """Run the unfolded pursuit on every unit-norm row of ``X_unit`` (B x N).

    One kernel call serves the whole batch: the weights are fixed between
    Adam updates, so every layer correlates all still-active rows with the
    weights in tiled matrix products. ``noise_var_norms`` holds each row's
    noise variance divided by its original input energy. Returns one trace
    per row.
    """
    X_unit = np.asarray(X_unit, dtype=complex)
    if np.any(np.abs(np.linalg.norm(X_unit, axis=1) - 1.0) > UNIT_INPUT_TOL):
        raise ValueError("forward expects unit-norm inputs")
    supports, coeffs, residuals = pursue(model.weights, X_unit, [1.0] * len(X_unit), noise_var_norms, model.rule)
    return [ForwardTrace(s, np.asarray(c, dtype=complex), r) for s, c, r in zip(supports, coeffs, residuals)]


def forward(model: MpNetModel, x_unit: np.ndarray, noise_var_norm: float = 0.0) -> tuple[np.ndarray, ForwardTrace]:
    """Run the unfolded pursuit on a unit-norm input.

    Returns the denoised estimate (still on the unit scale) and the trace the
    backward pass needs. ``noise_var_norm`` is the noise variance divided by
    the original input energy.
    """
    x_unit = np.asarray(x_unit, dtype=complex)
    (trace,) = forward_batch(model, x_unit[None], [noise_var_norm])
    return x_unit - trace.final_residual, trace


def _column_gradients(weights: np.ndarray, trace: ForwardTrace, x_unit: np.ndarray) -> dict[int, np.ndarray]:
    """The nonzero columns of the backward-pass gradient, keyed by weight column.

    Replays the selected-column arithmetic (O(depth * N) in total) and raises
    when the trace no longer replays on ``weights``.
    """
    r = x_unit.copy()
    before: list[np.ndarray] = []
    coeffs: list[complex] = []
    for s in trace.indices:
        before.append(r)
        coeff = np.vdot(weights[:, s], r)
        coeffs.append(coeff)
        r = r - weights[:, s] * coeff
    if trace.final_residual.shape != r.shape or np.max(np.abs(r - trace.final_residual), initial=0.0) > STALE_TRACE_TOL:
        raise ValueError("stale trace: weights changed since the forward pass")
    columns: dict[int, np.ndarray] = {}
    mu = r
    for k in reversed(range(trace.depth)):
        s = trace.indices[k]
        col = weights[:, s]
        overlap = np.vdot(col, mu)  # w_s^H mu
        if s not in columns:
            columns[s] = np.zeros(weights.shape[0], dtype=complex)
        columns[s] -= np.conj(coeffs[k]) * mu + np.conj(overlap) * before[k]
        mu = mu - col * overlap
    return columns


def backward(model: MpNetModel, trace: ForwardTrace, x_unit: np.ndarray) -> np.ndarray:
    """Exact gradient of 0.5 * ||final residual||^2 with respect to the weights,
    holding the per-layer selections fixed.

    The gradient is returned as a complex matrix packaging the derivatives with
    respect to the real and imaginary parts (d/dRe + 1j * d/dIm). Only columns
    visited by the trace are nonzero. Raises when the trace no longer replays
    on the current weights.
    """
    grad = np.zeros(model.weights.shape, dtype=complex)
    for s, column in _column_gradients(model.weights, trace, np.asarray(x_unit, dtype=complex)).items():
        grad[:, s] = column
    return grad


@dataclass
class AdamState:
    """Adam moments on the stacked real/imaginary weight representation, with a
    stepwise exponential learning-rate schedule (rate is multiplied by ``decay``
    every ``decay_every`` updates)."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    base_rate: float = 1e-3
    decay: float = 0.9
    decay_every: int = 200
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_shape(cls, shape: tuple[int, ...], **kwargs) -> "AdamState":
        return cls(m=np.zeros((2, *shape)), v=np.zeros((2, *shape)), **kwargs)

    @property
    def learning_rate(self) -> float:
        return self.base_rate * self.decay ** (self.step // self.decay_every)


def adam_step(state: AdamState, weights: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One Adam update of the complex weights; mutates ``state``, returns new weights."""
    if grad.shape != weights.shape:
        raise ValueError("gradient and weights must share a shape")
    g = np.stack([grad.real, grad.imag])
    rate = state.learning_rate
    state.step += 1
    t = state.step
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g**2
    m_hat = state.m / (1.0 - state.beta1**t)
    v_hat = state.v / (1.0 - state.beta2**t)
    stacked = np.stack([weights.real, weights.imag]) - rate * m_hat / (np.sqrt(v_hat) + state.eps)
    return stacked[0] + 1j * stacked[1]


def _unit_batch(model: MpNetModel, observations: Sequence[np.ndarray], noise_vars: Sequence[float]):
    """Normalize each observation and run the forward pass on the batch.

    Returns the norms, the unit-norm inputs and the traces.
    """
    norms = [np.linalg.norm(x) for x in observations]
    if 0.0 in norms:
        raise ValueError("cannot estimate from a zero observation")
    X_unit = np.array([x / norm for x, norm in zip(observations, norms)], dtype=complex)
    traces = forward_batch(model, X_unit, [v / float(norm**2) for v, norm in zip(noise_vars, norms)])
    return norms, X_unit, traces


def _rescaled(norm: float, x_unit: np.ndarray, trace: ForwardTrace) -> Estimate:
    return Estimate(
        norm * (x_unit - trace.final_residual),
        trace.indices,
        trace.depth,
        float(norm**2) * energy(trace.final_residual),
    )


def estimate(model: MpNetModel, x: np.ndarray, noise_var: float = 0.0) -> Estimate:
    """Inference only: normalize, run the forward pass, rescale the estimate."""
    x = np.asarray(x, dtype=complex)
    (norm,), (x_unit,), (trace,) = _unit_batch(model, [x], [noise_var])
    return _rescaled(norm, x_unit, trace)


@dataclass(frozen=True)
class TrainConfig:
    """Online-training hyperparameters: minibatch size, Adam settings, and the
    learning-rate schedule."""

    minibatch_size: int = 200
    total_samples: int | None = None
    base_rate: float = 1e-3
    decay: float = 0.9
    decay_every: int = 200
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.minibatch_size < 1:
            raise ValueError("minibatch_size must be >= 1")
        if self.total_samples is not None and self.total_samples < 0:
            raise ValueError("total_samples must be >= 0")


@dataclass(frozen=True)
class MinibatchRecord:
    """Evaluation summary of one training minibatch. The rMSE is measured against
    the simulator's ground truth for reporting only; it never feeds training."""

    minibatch: int
    mean_cost: float
    mean_rmse: float
    mean_depth: float
    depth_counts: np.ndarray


class OnlineTrainer:
    """Drives one model a minibatch at a time: one batched forward pass, gradient
    accumulation, and one Adam update per completed minibatch.

    Per-sample gradients are summed in arrival order and divided by the
    minibatch size, so trajectories are reproducible. Each sample adds only
    the weight columns its trace visited. ``name`` labels the errors the
    trainer raises.
    """

    def __init__(self, model: MpNetModel, cfg: TrainConfig = TrainConfig(), name: str = "mpnet"):
        self.model = model
        self.cfg = cfg
        self.name = name
        self.adam = AdamState.for_shape(
            model.weights.shape,
            base_rate=cfg.base_rate,
            decay=cfg.decay,
            decay_every=cfg.decay_every,
            beta1=cfg.beta1,
            beta2=cfg.beta2,
            eps=cfg.eps,
        )
        self.minibatches_done = 0
        self._reset()

    def _reset(self) -> None:
        self._grad = np.zeros(self.model.weights.shape, dtype=complex)
        self._cost = 0.0
        self._rmse = 0.0
        self._depths: list[int] = []

    def process_batch(self, samples: Sequence[ChannelSample]) -> list[Estimate]:
        """Estimate the channels of a batch of observations and accumulate their gradients."""
        norms, X_unit, traces = _unit_batch(self.model, [s.observation for s in samples], [s.noise_var for s in samples])
        estimates = []
        for sample, norm, x_unit, trace in zip(samples, norms, X_unit, traces):
            for s, column in _column_gradients(self.model.weights, trace, x_unit).items():
                self._grad[:, s] += column
            self._cost += 0.5 * energy(trace.final_residual)
            est = _rescaled(norm, x_unit, trace)
            self._rmse += rmse(est.channel, sample.channel)
            self._depths.append(trace.depth)
            estimates.append(est)
        return estimates

    def process(self, sample: ChannelSample) -> Estimate:
        """Estimate the channel from one observation and accumulate its gradient."""
        return self.process_batch([sample])[0]

    def end_minibatch(self) -> MinibatchRecord:
        """Apply the Adam update and emit the evaluation record for the minibatch.

        Raises ValueError, leaving the weights as they were, when the update
        makes any weight non-finite.
        """
        count = len(self._depths)
        if count == 0:
            raise ValueError("no samples processed in this minibatch")
        batch = self.cfg.minibatch_size
        weights = adam_step(self.adam, self.model.weights, self._grad / batch)
        if not np.all(np.isfinite(weights.view(float))):
            raise ValueError(f"{self.name}: non-finite weights after the Adam update of minibatch {self.minibatches_done + 1}")
        self.model.weights = weights
        self.minibatches_done += 1
        record = MinibatchRecord(
            minibatch=self.minibatches_done,
            mean_cost=self._cost / batch,
            mean_rmse=self._rmse / count,
            mean_depth=float(np.mean(self._depths)),
            depth_counts=np.bincount(self._depths),
        )
        self._reset()
        return record


def train_online(
    model: MpNetModel,
    stream: Iterable[ChannelSample],
    cfg: TrainConfig = TrainConfig(),
    eval_hook: Callable[[MinibatchRecord], None] | None = None,
) -> list[MinibatchRecord]:
    """Train on a stream of observations, one Adam update per minibatch.

    Stream exhaustion terminates training normally; a trailing partial
    minibatch is left unapplied. Returns the per-minibatch records (also passed
    to ``eval_hook`` as they are produced).
    """
    trainer = OnlineTrainer(model, cfg)
    records: list[MinibatchRecord] = []
    iterator = iter(stream)
    if cfg.total_samples is not None:
        iterator = islice(iterator, cfg.total_samples)
    while len(batch := list(islice(iterator, cfg.minibatch_size))) == cfg.minibatch_size:
        trainer.process_batch(batch)
        record = trainer.end_minibatch()
        records.append(record)
        if eval_hook is not None:
            eval_hook(record)
    return records


def _rule_fields(rule: StoppingRule) -> tuple[str, int, int]:
    return rule.kind, -1 if rule.depth is None else rule.depth, -1 if rule.max_depth is None else rule.max_depth


def save_checkpoint(path, model: MpNetModel, adam: AdamState | None = None) -> None:
    """Persist weights, stopping rule, and optimizer state to a versioned .npz file."""
    kind, depth, max_depth = _rule_fields(model.rule)
    payload = {
        "format_version": np.array(CHECKPOINT_VERSION),
        "w_re": model.weights.real,
        "w_im": model.weights.imag,
        "init": np.array(model.init),
        "rule_kind": np.array(kind),
        "rule_depth": np.array(depth),
        "rule_max_depth": np.array(max_depth),
    }
    if adam is not None:
        payload.update(
            adam_m=adam.m,
            adam_v=adam.v,
            adam_step=np.array(adam.step),
            adam_base_rate=np.array(adam.base_rate),
            adam_decay=np.array(adam.decay),
            adam_decay_every=np.array(adam.decay_every),
            adam_beta1=np.array(adam.beta1),
            adam_beta2=np.array(adam.beta2),
            adam_eps=np.array(adam.eps),
        )
    atomic_savez(path, **payload)


def load_checkpoint(path) -> tuple[MpNetModel, AdamState | None]:
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        weights = data["w_re"] + 1j * data["w_im"]
        depth = int(data["rule_depth"])
        max_depth = int(data["rule_max_depth"])
        rule = StoppingRule(
            str(data["rule_kind"]),
            depth=None if depth < 0 else depth,
            max_depth=None if max_depth < 0 else max_depth,
        )
        model = MpNetModel(weights, rule, init=str(data["init"]))
        adam = None
        if "adam_m" in data:
            expected = (2, *weights.shape)
            for key in ("adam_m", "adam_v"):
                if data[key].shape != expected:
                    raise ValueError(f"checkpoint {key} has shape {data[key].shape}, expected {expected} for the stored weights")
            adam = AdamState(
                m=data["adam_m"],
                v=data["adam_v"],
                step=int(data["adam_step"]),
                base_rate=float(data["adam_base_rate"]),
                decay=float(data["adam_decay"]),
                decay_every=int(data["adam_decay_every"]),
                beta1=float(data["adam_beta1"]),
                beta2=float(data["adam_beta2"]),
                eps=float(data["adam_eps"]),
            )
    return model, adam
