"""Experiment configuration files: strict YAML loading and validation.

Unknown keys are rejected with the full dotted path of the offender, so typos
fail fast instead of silently running a different experiment.
"""

from __future__ import annotations

from pathlib import Path

import yaml

from .channels import ArrayEvent, ChannelGenConfig, FixedSnr, TruncatedGaussianSnr
from .experiments import ArraySpec, ExperimentConfig, SnrLossSpec
from .mpnet import TrainConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


_TOP_KEYS = {
    "seed",
    "output_dir",
    "array",
    "dictionary",
    "channel",
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


def _fields(mapping: dict, table: dict, path: str) -> dict:
    """Read the keys of ``table`` (YAML key -> (field, kind)) that ``mapping``
    holds; absent keys are left out, so the dataclass supplies the default."""
    return {field: _get(mapping, key, path, kind) for key, (field, kind) in table.items() if key in mapping}


def _build(cls, prefix: str, **fields):
    """``cls(**fields)``, its ValueError raised as a ConfigError headed by ``prefix``."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


_ARRAY_KEYS = {"spacing": ("spacing", float), "gain_std": ("gain_std", float), "pos_std": ("pos_std", float)}


def _parse_array(data: dict) -> ArraySpec:
    data = _require_mapping(data, "array")
    _check_keys(data, {"geometry", "n", "nx", "nz", *_ARRAY_KEYS}, "array")
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
    return _build(ArraySpec, "array: ", shape=shape, **_fields(data, _ARRAY_KEYS, "array"))


_TRUNCATED_GAUSSIAN_KEYS = {key: (key, float) for key in ("mean_db", "std_db", "floor_db")}


def _parse_snr(data) -> FixedSnr | TruncatedGaussianSnr:
    data = _require_mapping(data, "snr")
    model = _get(data, "model", "snr", str, required=True)
    if model == "fixed":
        _check_keys(data, {"model", "value_db"}, "snr")
        return _build(FixedSnr, "snr: ", value_db=_get(data, "value_db", "snr", float, required=True))
    if model != "truncated_gaussian":
        raise ConfigError("'snr.model' must be 'fixed' or 'truncated_gaussian'")
    _check_keys(data, {"model", *_TRUNCATED_GAUSSIAN_KEYS}, "snr")
    return _build(TruncatedGaussianSnr, "snr: ", **_fields(data, _TRUNCATED_GAUSSIAN_KEYS, "snr"))


_CHANNEL_KEYS = {"paths_min": ("paths_min", int), "paths_max": ("paths_max", int), "gain_decay": ("gain_decay", float)}


def _parse_channel(data, snr) -> ChannelGenConfig:
    data = _require_mapping(data, "channel") if data is not None else {}
    _check_keys(data, {*_CHANNEL_KEYS, "cluster_std_deg"}, "channel")
    fields = _fields(data, _CHANNEL_KEYS, "channel")
    if data.get("cluster_std_deg") is not None:  # null means no clustering
        fields["cluster_std_deg"] = _get(data, "cluster_std_deg", "channel", float)
    return _build(ChannelGenConfig, "channel: ", snr=snr, **fields)


_TRAINING_KEYS = {
    "minibatch_size": ("minibatch_size", int),
    "learning_rate": ("base_rate", float),
    "decay_factor": ("decay", float),
    "decay_every": ("decay_every", int),
    "beta1": ("beta1", float),
    "beta2": ("beta2", float),
    "epsilon": ("eps", float),
}


def _parse_training(data) -> TrainConfig:
    data = _require_mapping(data, "training") if data is not None else {}
    _check_keys(data, set(_TRAINING_KEYS), "training")
    fields = _fields(data, _TRAINING_KEYS, "training")
    try:
        return TrainConfig(**fields)
    except ValueError as exc:
        name, _, bounds = str(exc).partition(" ")  # TrainConfig names the field first
        key = next(key for key, (field, _) in _TRAINING_KEYS.items() if field == name)
        raise ConfigError(f"'training.{key}' {bounds}") from None


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
            amount = {"fraction": _get(entry, "fraction", path, float, required=True)}
        elif kind == "age":
            amount = {"gain_std": _get(entry, "gain_std", path, float, required=True)}
        else:
            raise ConfigError(f"'{path}.kind' must be 'break' or 'age'")
        if index + (steps - 1) * every >= taken:  # bound the schedule before expanding it
            first = index if index >= taken else index - every * ((index - taken) // every)
            raise ConfigError(f"anomaly index {first} is beyond the stream length {taken}")
        events.extend(_build(ArrayEvent, f"{path}: ", index=index + k * every, kind=kind, **amount) for k in range(steps))
    return tuple(events)


_SNR_LOSS_KEYS = {
    "arrays": ("n_arrays", int),
    "channels_per_array": ("channels_per_array", int),
}


def _parse_snr_loss(data) -> SnrLossSpec:
    data = _require_mapping(data, "snr_loss")
    _check_keys(data, {"pos_stds", "gain_stds", *_SNR_LOSS_KEYS}, "snr_loss")
    fields = {}
    for key in ("pos_stds", "gain_stds"):
        if key not in data or not isinstance(data[key], list) or not data[key]:
            raise ConfigError(f"'snr_loss.{key}' must be a nonempty list")
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in data[key]):
            raise ConfigError(f"'snr_loss.{key}' must contain numbers")
        fields[key] = tuple(_float(v, f"snr_loss.{key}") for v in data[key])
    return _build(SnrLossSpec, "snr_loss: ", **fields, **_fields(data, _SNR_LOSS_KEYS, "snr_loss"))


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
    channel = _parse_channel(data.get("channel"), snr)
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
    output_dir = _get(data, "output_dir", "", str)

    snr_loss = _parse_snr_loss(data["snr_loss"]) if "snr_loss" in data else None
    # a run takes whole minibatches only, so an event past the last one is never applied
    anomalies = _parse_anomalies(data.get("anomalies"), total_samples // training.minibatch_size * training.minibatch_size)

    return _build(
        ExperimentConfig,
        "",
        seed=seed,
        array=array,
        n_atoms=n_atoms,
        channel=channel,
        training=training,
        estimators=tuple(estimators),
        total_samples=total_samples,
        anomalies=anomalies,
        dump_stream=dump_stream,
        replay_stream=replay,
        snr_loss=snr_loss,
        output_dir=output_dir,
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
