"""What an experiment is: the config types, every check that needs only the
config, and strict YAML loading.

Unknown keys are rejected with the full dotted path of the offender, so typos
fail fast instead of silently running a different experiment. A key that sets
a dataclass field is the field's name.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .arrays import AntennaArray, doa_grid_ula, doa_grid_upa, make_ula, make_upa
from .channels import ArrayEvent, FixedSnr, TruncatedGaussianSnr, broken_count
from .estimators import StoppingRule
from .mpnet import TrainConfig

# raised for a config here, and by experiments.LearningRun for a stream it is handed
NOISELESS_RUN = "snr.value_db must be finite in a learning run (the SNR histogram has no bin for inf, and a replay rejects it)"


@dataclass(frozen=True)
class ArraySpec:
    """Base-station array description plus the uncertainty of the true hardware."""

    shape: tuple[int, ...]
    gain_std: float = 0.0
    pos_std: float = 0.0

    def __post_init__(self) -> None:
        if len(self.shape) not in (1, 2) or any(d < 1 for d in self.shape):
            raise ValueError("array shape must be (n,) for a ULA or (nx, nz) for a UPA")
        if not (0.0 <= self.gain_std < math.inf and 0.0 <= self.pos_std < math.inf):
            raise ValueError("uncertainty standard deviations must be finite and nonnegative")

    @property
    def geometry(self) -> str:
        return "ula" if len(self.shape) == 1 else "upa"

    @property
    def n_antennas(self) -> int:
        return int(np.prod(self.shape))

    def build_nominal(self) -> AntennaArray:
        if self.geometry == "ula":
            return make_ula(self.shape[0])
        return make_upa(self.shape[0], self.shape[1])

    def doa_grid(self, count: int) -> np.ndarray:
        return doa_grid_ula(count) if self.geometry == "ula" else doa_grid_upa(count)


@dataclass(frozen=True)
class SnrLossSpec:
    """Grid sweep of gain/position uncertainty for the model-mismatch experiment, run at the config's ``n_atoms`` and ``snr``."""

    pos_stds: tuple[float, ...]
    gain_stds: tuple[float, ...]
    n_arrays: int = 5
    channels_per_array: int = 200

    def __post_init__(self) -> None:
        if not self.pos_stds or not self.gain_stds:
            raise ValueError("the sweep needs at least one value per axis")
        if not all(0.0 <= v < math.inf for v in (*self.pos_stds, *self.gain_stds)):
            raise ValueError("uncertainty values must be finite and nonnegative")
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
    try:
        rule = StoppingRule.parse(rule_token)
    except ValueError as exc:
        raise ValueError(f"estimator {spec!r}: {exc}") from None
    return EstimatorSpec(spec, family, source, rule)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, a learning run or an SNR-loss sweep:
    geometry, dictionary size, SNR model, training, roster, schedule. Every
    check that needs only the config runs when it is built, so an experiment
    that is sure to fail never starts."""

    seed: int
    array: ArraySpec
    n_atoms: int
    snr: FixedSnr | TruncatedGaussianSnr
    training: TrainConfig
    estimators: tuple[str, ...] = ()
    total_samples: int = 0
    anomalies: tuple[ArrayEvent, ...] = ()
    dump_stream: bool = False
    replay_stream: str | None = None
    snr_loss: SnrLossSpec | None = None

    def __post_init__(self) -> None:
        for name in ("seed", "total_samples"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.n_atoms < 1:
            raise ValueError("'dictionary.atoms' must be >= 1")
        if len(set(self.estimators)) != len(self.estimators):
            raise ValueError("duplicate estimator roster entries")
        specs = [parse_estimator(spec) for spec in self.estimators]
        if self.snr_loss is not None:
            if self.total_samples > 0 or self.estimators or self.anomalies or self.dump_stream or self.replay_stream is not None:
                raise ValueError("a config describes one experiment: an snr_loss section takes no total_samples, estimators, anomalies or stream settings")
            if self.array.gain_std != 0.0 or self.array.pos_std != 0.0 or self.training != TrainConfig():
                raise ValueError("the SNR-loss sweep reads its uncertainty from snr_loss.pos_stds and snr_loss.gain_stds and trains nothing: it takes no array.gain_std, array.pos_std or training settings")
            if self.array.geometry != "ula":
                raise ValueError("the SNR-loss sweep is defined for linear arrays")
            if not isinstance(self.snr, FixedSnr):
                raise ValueError("the SNR-loss sweep needs a fixed SNR (snr.model: fixed)")
        elif 0 < self.total_samples < self.training.minibatch_size:
            raise ValueError("total_samples is smaller than one minibatch")
        taken = self.total_samples // self.training.minibatch_size * self.training.minibatch_size  # whole minibatches only
        n = working = self.array.n_antennas  # antennas with a nonzero gain
        for event in sorted(self.anomalies, key=lambda e: e.index):  # the order the stream applies them in
            if event.index >= taken:
                raise ValueError(f"anomaly at index {event.index} falls beyond the stream")
            if event.kind == "age" and event.gain_std > 0.0:
                working = n  # aging moves every gain off zero
            elif event.kind == "break":
                working -= broken_count(event.fraction, working)
                if working == 0:
                    raise ValueError(f"break at index {event.index} (fraction {event.fraction}) zeroes all {n} antennas, leaving no channel")
        if self.total_samples > 0:
            if not self.estimators:
                raise ValueError("a learning run needs a nonempty estimator roster")
            if self.replay_stream is None and self.snr == FixedSnr(math.inf):
                raise ValueError(NOISELESS_RUN)
            if self.replay_stream is not None and any(spec.source == "oracle" for spec in specs):
                raise ValueError("oracle estimators need a live stream (not a replay)")
        elif self.snr_loss is None:
            raise ValueError("config describes neither a learning run nor an SNR-loss sweep")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


_TOP_KEYS = {
    "seed",
    "array",
    "dictionary",
    "snr",
    "training",
    "estimators",
    "total_samples",
    "anomalies",
    "stream",
    "snr_loss",
}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping" if path else "expected a mapping at the top level")
    return value


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key '{_join(path, key)}'")


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "a boolean"}


def _get(mapping: dict, key: str, path: str, kind: type, default=None, required=False):
    """Read ``mapping[key]`` as ``kind`` (int, float, str or bool). A float
    also accepts an integer; bools count only as bools."""
    if key not in mapping:
        if required:
            raise ConfigError(f"missing required key '{_join(path, key)}'")
        return default
    value = mapping[key]
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"'{_join(path, key)}' must be {_KIND_NAMES[kind]}")
    return _float(value, _join(path, key)) if kind is float else value


def _float(value, path: str) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise ConfigError(f"'{path}' is too large for a float") from None


def _fields(mapping: dict, cls, path: str, other=()) -> dict:
    """Read each field of ``cls`` that has a default from the key of its name,
    typed by the default; absent keys are left out, so the dataclass supplies
    the default. A key that is neither such a field nor in ``other`` is rejected."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}
    _check_keys(mapping, {*defaults, *other}, path)
    return {name: _get(mapping, name, path, type(default)) for name, default in defaults.items() if name in mapping}


def _build(cls, prefix: str, **fields):
    """``cls(**fields)``, its ValueError raised as a ConfigError headed by ``prefix``."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _parse_array(data: dict) -> ArraySpec:
    data = _require_mapping(data, "array")
    fields = _fields(data, ArraySpec, "array", other=("geometry", "n", "nx", "nz"))
    geometry = _get(data, "geometry", "array", str, default="ula")
    if geometry not in ("ula", "upa"):
        raise ConfigError("'array.geometry' must be 'ula' or 'upa'")
    if geometry == "ula":
        if "nx" in data or "nz" in data:
            raise ConfigError("'array.nx'/'array.nz' only apply to geometry 'upa'")
        shape = (_get(data, "n", "array", int, required=True),)
    else:
        if "n" in data:
            raise ConfigError("'array.n' only applies to geometry 'ula'")
        shape = (_get(data, "nx", "array", int, required=True), _get(data, "nz", "array", int, required=True))
    return _build(ArraySpec, "array: ", shape=shape, **fields)


def _parse_snr(data) -> FixedSnr | TruncatedGaussianSnr:
    data = _require_mapping(data, "snr")
    model = _get(data, "model", "snr", str, required=True)
    if model == "fixed":
        _check_keys(data, {"model", "value_db"}, "snr")
        return _build(FixedSnr, "snr: ", value_db=_get(data, "value_db", "snr", float, required=True))
    if model != "truncated_gaussian":
        raise ConfigError("'snr.model' must be 'fixed' or 'truncated_gaussian'")
    return _build(TruncatedGaussianSnr, "snr: ", **_fields(data, TruncatedGaussianSnr, "snr", other=("model",)))


def _parse_training(data) -> TrainConfig:
    data = _require_mapping(data, "training") if data is not None else {}
    fields = _fields(data, TrainConfig, "training")
    try:
        return TrainConfig(**fields)
    except ValueError as exc:
        field, _, bounds = str(exc).partition(" ")  # TrainConfig names the field first
        raise ConfigError(f"'training.{field}' {bounds}") from None


def _parse_anomalies(entries, taken: int) -> tuple[ArrayEvent, ...]:
    if entries is None or taken < 0:  # ExperimentConfig rejects a negative total_samples by name
        return ()
    if not isinstance(entries, list):
        raise ConfigError("'anomalies' must be a list")
    events: list[ArrayEvent] = []
    for pos, entry in enumerate(entries):
        path = f"anomalies[{pos}]"
        entry = _require_mapping(entry, path)
        _check_keys(entry, {"kind", "index", "fraction", "gain_std", "steps", "every"}, path)
        kind = _get(entry, "kind", path, str, required=True)
        index = _get(entry, "index", path, int, required=True)
        steps = _get(entry, "steps", path, int, default=1)
        every = _get(entry, "every", path, int, default=0)
        if steps < 1:
            raise ConfigError(f"'{path}.steps' must be >= 1")
        if steps > 1 and every < 1:
            raise ConfigError(f"'{path}.every' must be >= 1 when steps > 1")
        if kind == "break":
            if steps != 1:
                raise ConfigError(f"'{path}': break events do not repeat")
            if "gain_std" in entry:
                raise ConfigError(f"'{path}.gain_std' only applies to kind 'age'")
            amount = {"fraction": _get(entry, "fraction", path, float, required=True)}
        elif kind == "age":
            if "fraction" in entry:
                raise ConfigError(f"'{path}.fraction' only applies to kind 'break'")
            amount = {"gain_std": _get(entry, "gain_std", path, float, required=True)}
        else:
            raise ConfigError(f"'{path}.kind' must be 'break' or 'age'")
        if index + (steps - 1) * every >= taken:  # bound the schedule before expanding it
            first = index if index >= taken else index - every * ((index - taken) // every)
            raise ConfigError(f"anomaly index {first} is beyond the stream length {taken}")
        if steps == 1 and "every" in entry:
            raise ConfigError(f"'{path}.every' only applies when steps > 1")
        events.extend(_build(ArrayEvent, f"{path}: ", index=index + k * every, kind=kind, **amount) for k in range(steps))
    return tuple(events)


def _parse_snr_loss(data) -> SnrLossSpec:
    data = _require_mapping(data, "snr_loss")
    fields = _fields(data, SnrLossSpec, "snr_loss", other=("pos_stds", "gain_stds"))
    for key in ("pos_stds", "gain_stds"):
        if key not in data or not isinstance(data[key], list) or not data[key]:
            raise ConfigError(f"'snr_loss.{key}' must be a nonempty list")
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in data[key]):
            raise ConfigError(f"'snr_loss.{key}' must contain numbers")
        fields[key] = tuple(_float(v, f"snr_loss.{key}") for v in data[key])
    return _build(SnrLossSpec, "snr_loss: ", **fields)


def config_from_mapping(data: dict) -> ExperimentConfig:
    data = _require_mapping(data, "")
    _check_keys(data, _TOP_KEYS, "")
    seed = _get(data, "seed", "", int, required=True)
    array = _parse_array(data.get("array", {"n": 64}))
    dictionary = _require_mapping(data.get("dictionary", {}), "dictionary")
    _check_keys(dictionary, {"atoms"}, "dictionary")
    # a sweep's grid must be fine enough that off-grid error does not mask the array mismatch: 32N atoms, not 8N
    n_atoms = _get(dictionary, "atoms", "dictionary", int, default=(32 if "snr_loss" in data else 8) * array.n_antennas)
    snr = _parse_snr(data["snr"]) if "snr" in data else FixedSnr()
    training = _parse_training(data.get("training"))
    total_samples = _get(data, "total_samples", "", int, default=0)

    estimators = data.get("estimators", [])
    if estimators is None:
        estimators = []
    if not isinstance(estimators, list) or any(not isinstance(e, str) for e in estimators):
        raise ConfigError("'estimators' must be a list of strings")

    stream = _require_mapping(data.get("stream", {}), "stream")
    _check_keys(stream, {"dump", "replay"}, "stream")
    dump_stream = _get(stream, "dump", "stream", bool, default=False)
    replay = stream.get("replay")
    if replay is not None and not isinstance(replay, str):
        raise ConfigError("'stream.replay' must be a path string or null")

    snr_loss = _parse_snr_loss(data["snr_loss"]) if "snr_loss" in data else None
    # a run takes whole minibatches only, so an event past the last one is never applied
    anomalies = _parse_anomalies(data.get("anomalies"), total_samples // training.minibatch_size * training.minibatch_size)

    return _build(
        ExperimentConfig,
        "",
        seed=seed,
        array=array,
        n_atoms=n_atoms,
        snr=snr,
        training=training,
        estimators=tuple(estimators),
        total_samples=total_samples,
        anomalies=anomalies,
        dump_stream=dump_stream,
        replay_stream=replay,
        snr_loss=snr_loss,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if data is None:
        raise ConfigError(f"{path}: empty config")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping at the top level")
    return config_from_mapping(data)
