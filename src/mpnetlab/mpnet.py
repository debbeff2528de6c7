"""mpNet: matching pursuit unfolded into a network with a trainable dictionary.

Each layer selects the weight column most correlated with the running residual
and subtracts the corresponding rank-one term; the stopping rule makes the
depth adapt to the input. Because a layer routes the signal through a single
column, the exact gradient of the reconstruction cost is column-sparse and
costs O(depth * N) to assemble, an order cheaper than the forward pass.

The one mpNet pass, ``forward_batch``, runs unit-norm rows through the shared
pursuit kernel (``estimators.pursue``) and passes on the kernel's unit-scale
``BatchEstimate``, as MP and OMP do. ``OnlineTrainer.step`` runs a minibatch
through it, a tile at a time: as soon as a tile's layers are done, the reverse
pass runs on the residual blocks the forward pass kept and folds each
sample's gradient columns into the minibatch gradient in arrival order.
``forward`` is its one-row ``Estimate``; ``estimate`` and the trainer only
rescale its output, and ``backward`` reruns it on one row. Results do not
depend on the batch or tile size and are within 1e-12 of the per-sample
arithmetic.

Training is online and unsupervised: minibatches of noisy observations are
both the inputs and the targets (the network is a denoising autoencoder), so
no clean channels are ever needed. The model is single-writer: only the
step's one Adam update replaces the weights, committed with the new Adam state
once the weights are checked; inference on them is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Sequence

import numpy as np

from .channels import SampleBatch
from .estimators import BatchEstimate, Estimate, StoppingRule, pursue, row_dot
from .fileio import atomic_savez
# not called here (score_minibatch works on arrays): bench/spans.py wraps it by name
from .metrics import rmse  # noqa: F401
from .utils import add_rows_at, as_rng, complex_normal, row_energies

UNIT_INPUT_TOL = 1e-9
STALE_TRACE_TOL = 1e-9

CHECKPOINT_VERSION = 2


def xavier_init(n_antennas: int, n_atoms: int, rng) -> np.ndarray:
    """Random complex weights with per-entry variance 2 / (N + A), the columns
    then rescaled to unit norm, for parity with a normalized-dictionary
    initialization."""
    if n_antennas < 1 or n_atoms < 1:
        raise ValueError("weight dimensions must be >= 1")
    rng = as_rng(rng)
    w = complex_normal(rng, (n_antennas, n_atoms), 2.0 / (n_antennas + n_atoms))
    w /= np.linalg.norm(w, axis=0, keepdims=True)
    return w


@dataclass
class MpNetModel:
    """Trainable weight matrix (N x A) plus the stopping rule that sets its depth."""

    weights: np.ndarray
    rule: StoppingRule

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
        return cls(dictionary.atoms, rule)  # __post_init__ copies

    @classmethod
    def xavier(cls, n_antennas: int, n_atoms: int, rule: StoppingRule, rng) -> "MpNetModel":
        return cls(xavier_init(n_antennas, n_atoms, rng), rule)


def forward_batch(model: MpNetModel, X_unit: np.ndarray, noise_var_norms: Sequence[float], grad: np.ndarray | None = None) -> BatchEstimate:
    """The unfolded pursuit of every unit-norm row of ``X_unit`` (B x N) in one
    kernel call, each under its noise variance over its original input energy;
    the kernel's record, on the unit scale. A ``grad`` (A x N) gets each tile's
    gradient columns (:func:`_reverse`) as soon as the tile's layers end."""
    X_unit = np.asarray(X_unit, dtype=complex)
    if np.any(np.abs(np.linalg.norm(X_unit, axis=1) - 1.0) > UNIT_INPUT_TOL):
        raise ValueError("forward expects unit-norm inputs")
    fold = None if grad is None else partial(_reverse, grad)
    return pursue(model.weights, X_unit, np.ones(len(X_unit)), noise_var_norms, model.rule, on_tile=fold)


def forward(model: MpNetModel, x_unit: np.ndarray, noise_var_norm: float = 0.0) -> Estimate:
    """:func:`forward_batch` on one unit-norm input."""
    return forward_batch(model, np.asarray(x_unit, dtype=complex)[None], [noise_var_norm])[0]


def _reverse(grad: np.ndarray, layers: Sequence[tuple], final: np.ndarray) -> None:
    """The reverse pass over a tile's layers, from its final residual rows;
    O(depth * N) per row. Adds into ``grad`` (A x N: a weight column is a row)
    one gradient column per distinct (row, weight column) pair, in row and
    then column order, a row's repeat visits summed in reverse layer order.
    The pairs' slots are found up front, and each layer's terms are taken
    off their slots as the layer is reached: a layer visits a pair at most
    once, so each slot sums its visits in reverse layer order, from zero."""
    n_atoms = len(grad)
    pairs = [live * n_atoms + picks for live, picks, *_ in reversed(layers)]
    keys, slots = np.unique(np.concatenate([np.zeros(0, dtype=np.intp), *pairs]), return_inverse=True)  # a depth-0 tile has none
    R = np.array(final, dtype=complex)  # carries the adjoint from here on
    columns = np.zeros((len(keys), R.shape[1]), dtype=complex)
    end = 0
    for live, picks, cols, coeffs, before in reversed(layers):
        mu = R[live]
        overlaps = row_dot(cols, mu)  # w_s^H mu
        start, end = end, end + len(live)
        columns[slots[start:end]] -= np.conj(coeffs)[:, None] * mu + np.conj(overlaps)[:, None] * before
        R[live] = mu - cols * overlaps[:, None]
    add_rows_at(grad, keys % n_atoms, columns)


def backward(model: MpNetModel, estimate: Estimate, x_unit: np.ndarray) -> np.ndarray:
    """Exact gradient of 0.5 * ||final residual||^2 with respect to the weights,
    holding the selections of ``forward(model, x_unit)`` fixed.

    The gradient is returned as a complex matrix packaging the derivatives with
    respect to the real and imaginary parts (d/dRe + 1j * d/dIm). Only support
    columns are nonzero. Runs the trainer's pass on the one row,
    ``estimate.depth`` layers deep (no pass at depth 0), and raises when its
    support or channel differ from the estimate's: the weights changed since
    the forward pass, or the estimate is not on the unit scale.
    """
    x_unit = np.asarray(x_unit, dtype=complex)
    grad = np.zeros(model.weights.T.shape, dtype=complex)  # A x N, as the trainer's
    support, channel = (), np.zeros_like(x_unit)  # a depth-0 pass estimates nothing
    if estimate.depth:
        rule = StoppingRule.fixed(estimate.depth)
        rerun = pursue(model.weights, x_unit[None], [1.0], [0.0], rule, on_tile=partial(_reverse, grad))[0]
        support, channel = rerun.support, rerun.channel
    stale = support != estimate.support or estimate.channel.shape != x_unit.shape
    if stale or np.max(np.abs(channel - estimate.channel), initial=0.0) > STALE_TRACE_TOL:
        raise ValueError("stale trace: weights changed since the forward pass")
    return grad.T


@dataclass(frozen=True)
class TrainConfig:
    """Online-training hyperparameters: minibatch size, Adam settings, and the
    learning-rate schedule. Out-of-range values raise a ValueError whose
    message starts with the field name."""

    minibatch_size: int = 200
    base_rate: float = 1e-3
    decay: float = 0.9
    decay_every: int = 200
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        for name, ok, bounds in (
            ("minibatch_size", self.minibatch_size >= 1, ">= 1"),
            ("base_rate", 0.0 < self.base_rate < np.inf, "> 0 and finite"),
            ("decay", 0.0 < self.decay <= 1.0, "in (0, 1]"),
            ("decay_every", self.decay_every >= 1, ">= 1"),
            ("beta1", 0.0 <= self.beta1 < 1.0, "in [0, 1)"),
            ("beta2", 0.0 <= self.beta2 < 1.0, "in [0, 1)"),
            ("eps", 0.0 < self.eps < np.inf, "> 0 and finite"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {bounds}")


@dataclass(frozen=True)
class AdamState:
    """Adam moments on the stacked real/imaginary weight representation and the
    number of updates made. The hyperparameters are those of ``cfg``; the
    learning rate starts at ``cfg.base_rate`` and is multiplied by
    ``cfg.decay`` every ``cfg.decay_every`` updates. An update makes a new
    state (:func:`adam_step`) and leaves this one as it was."""

    m: np.ndarray
    v: np.ndarray
    cfg: TrainConfig
    step: int = 0

    @classmethod
    def for_shape(cls, shape: tuple[int, ...], **settings) -> "AdamState":
        """Zero moments for weights of ``shape``; ``settings`` are TrainConfig fields."""
        return cls(np.zeros((2, *shape)), np.zeros((2, *shape)), TrainConfig(**settings))

    @property
    def learning_rate(self) -> float:
        return self.cfg.base_rate * self.cfg.decay ** (self.step // self.cfg.decay_every)


def adam_step(state: AdamState, weights: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, AdamState]:
    """One Adam update of the complex weights at ``state``'s learning rate:
    returns the new weights and the next state, and mutates neither input.

    The update is Kingma & Ba's, in one fixed order of operations; beside
    what it returns it allocates only two weight-sized scratch arrays, the
    stacked gradient and the step, and reuses them in place."""
    if grad.shape != weights.shape:
        raise ValueError("gradient and weights must share a shape")
    g = np.empty((2, *weights.shape))  # C order, as the moments and the new weights are, whatever grad's layout
    g[0], g[1] = grad.real, grad.imag
    cfg, t = state.cfg, state.step + 1
    step = (1.0 - cfg.beta1) * g
    m = cfg.beta1 * state.m
    m += step
    np.square(g, out=g)
    g *= 1.0 - cfg.beta2
    v = cfg.beta2 * state.v
    v += g
    np.divide(m, 1.0 - cfg.beta1**t, out=step)  # m_hat
    step *= state.learning_rate
    np.divide(v, 1.0 - cfg.beta2**t, out=g)  # v_hat
    np.sqrt(g, out=g)
    g += cfg.eps
    step /= g
    g[0], g[1] = weights.real, weights.imag
    g -= step
    del step  # freed before the new weights are made
    new = 1j * g[1]
    new += g[0]
    return new, replace(state, m=m, v=v, step=t)


def unit_rows(observations: Sequence[np.ndarray], noise_vars: Sequence[float]):
    """The norm of each observation, the observations scaled to unit norm
    (B x N), and each noise variance divided by the observation's energy,
    as the pursuit takes them. The norms are taken row by row and squared one
    at a time, as the per-sample path does (``np.linalg.norm(X, axis=1)`` and
    an array power round differently)."""
    norms = np.array([np.linalg.norm(x) for x in observations])
    if np.any(norms == 0.0):
        raise ValueError("cannot estimate from a zero observation")
    X_unit = np.asarray(observations, dtype=complex) / norms[:, None]
    return norms, X_unit, [v / float(norm**2) for v, norm in zip(noise_vars, norms)]


def _rescaled(unit: BatchEstimate, norms: np.ndarray) -> BatchEstimate:
    """Unit-scale estimates on the scale of observations with ``norms`` (squared one at a time)."""
    energies = np.array([float(norm**2) * e for norm, e in zip(norms, unit.residual_energy.tolist())])
    return BatchEstimate(norms[:, None] * unit.channel, unit.depth, unit.support, energies)


def estimate(model: MpNetModel, x: np.ndarray, noise_var: float = 0.0) -> Estimate:
    """Inference only: normalize, run the forward pass, rescale the estimate."""
    norms, X_unit, noise_var_norms = unit_rows([np.asarray(x, dtype=complex)], [noise_var])
    return _rescaled(forward_batch(model, X_unit, noise_var_norms), norms)[0]


def score_minibatch(truths: np.ndarray, estimates: BatchEstimate) -> tuple[float, float]:
    """Score one minibatch of estimates against the true channels (B x N):
    the rMSE summed in sample order and averaged, and the mean depth; a sum
    that is not finite raises. The rMSE is for reporting only and never
    feeds training: this is the only place where an estimate meets ground
    truth."""
    if truths.shape != estimates.channel.shape:
        raise ValueError("need one estimate per sample")
    truth_energies = row_energies(truths)
    if np.any(truth_energies == 0.0):
        raise ValueError("relative error is undefined for a zero ground truth")
    total = 0.0
    for error in (row_energies(estimates.channel - truths) / truth_energies).tolist():
        total += error
    if not np.isfinite(total):
        raise ValueError(f"non-finite rMSE: {total}")
    return total / len(truths), float(np.mean(estimates.depth))


class OnlineTrainer:
    """Drives one model a minibatch at a time from observations and noise
    variances alone: :meth:`step` runs one batched forward pass, which folds
    the gradient in, and one Adam update.

    Per-sample gradients are summed in arrival order and divided by the
    number of samples, so trajectories are reproducible. Each sample adds
    only the weight columns in its support. Between steps the trainer holds
    only the model and its Adam state; ``name`` labels the errors it raises.
    """

    def __init__(self, model: MpNetModel, cfg: TrainConfig = TrainConfig(), name: str = "mpnet"):
        self.model = model
        self.name = name
        moments = (2, *model.weights.shape)
        self.adam = AdamState(np.zeros(moments), np.zeros(moments), cfg)

    def step(self, batch: SampleBatch) -> tuple[BatchEstimate, float]:
        """Train on one minibatch: one :func:`forward_batch` of its unit-norm
        rows (:func:`unit_rows`), folding each tile's gradient into the
        minibatch's, then one Adam update by the mean gradient. Returns the
        estimates, rescaled, and the mean unsupervised cost,
        0.5 * ||final residual||^2 on the unit scale.

        The new weights and Adam state are committed together, and only once
        the weights are checked: on an empty batch, or when the update makes
        any weight non-finite, it raises ValueError and the trainer keeps the
        weights and Adam state it had before the minibatch.
        """
        if len(batch) == 0:
            raise ValueError("no samples in this minibatch")
        norms, X_unit, noise_var_norms = unit_rows(batch.observation, batch.noise_var)
        grad = np.zeros(self.model.weights.T.shape, dtype=complex)  # A x N: a weight column is a row
        unit = forward_batch(self.model, X_unit, noise_var_norms, grad=grad)
        cost = 0.0
        for residual_energy in unit.residual_energy.tolist():
            cost += 0.5 * residual_energy
        estimates = _rescaled(unit, norms)
        del X_unit, unit  # freed before the Adam update makes its own arrays
        grad /= len(batch)
        weights, adam = adam_step(self.adam, self.model.weights, grad.T)
        if not np.all(np.isfinite(weights.view(float))):
            raise ValueError(f"{self.name}: non-finite weights after the Adam update of minibatch {adam.step}")
        self.model.weights, self.adam = weights, adam
        return estimates, cost / len(batch)


def save_checkpoint(path, model: MpNetModel, adam: AdamState) -> None:
    """Persist what a trainer holds to a versioned .npz file: the weights, the
    stopping rule's token, the Adam moments and step, and every TrainConfig
    field as ``adam_<field>``."""
    atomic_savez(
        path,
        format_version=np.array(CHECKPOINT_VERSION),
        weights=model.weights,
        rule=np.array(str(model.rule)),
        adam_m=adam.m,
        adam_v=adam.v,
        adam_step=np.array(adam.step),
        **{f"adam_{f.name}": np.array(getattr(adam.cfg, f.name)) for f in fields(TrainConfig)},
    )


def load_checkpoint(path) -> tuple[MpNetModel, AdamState]:
    """Read a checkpoint back. The Adam moments must be finite (the second
    one nonnegative) and the step count nonnegative; the rule is parsed and
    the hyperparameters range-checked as a TrainConfig."""
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        try:
            rule = StoppingRule.parse(str(data["rule"]))
        except ValueError as exc:
            raise ValueError(f"checkpoint rule: {exc}") from None
        model = MpNetModel(data["weights"], rule)
        expected = (2, *model.weights.shape)
        moments = {key: data[key] for key in ("adam_m", "adam_v")}
        for key, value in moments.items():
            if value.shape != expected:
                raise ValueError(f"checkpoint {key} has shape {value.shape}, expected {expected} for the stored weights")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"checkpoint {key} holds non-finite values")
        if np.any(moments["adam_v"] < 0.0):
            raise ValueError("checkpoint adam_v holds negative values (a second moment is >= 0)")
        step = int(data["adam_step"])
        if step < 0:
            raise ValueError(f"checkpoint adam_step is {step}, expected >= 0")
        try:
            cfg = TrainConfig(**{f.name: data[f"adam_{f.name}"].item() for f in fields(TrainConfig)})
        except ValueError as exc:  # TrainConfig names the field first
            raise ValueError(f"checkpoint adam_{exc}") from None
    return model, AdamState(moments["adam_m"], moments["adam_v"], cfg, step)
