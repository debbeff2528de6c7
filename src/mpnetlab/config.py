"""Experiment configuration files: strict YAML loading and validation.

Unknown keys are rejected with the full dotted path of the offender, so typos
fail fast instead of silently running a different experiment.
"""

from __future__ import annotations

from pathlib import Path

import yaml

from .channels import ArrayEvent, ChannelGenConfig, FixedSnr, TruncatedGaussianSnr
from .experiments import ArraySpec, ExperimentConfig, SnrLossSpec, parse_estimator
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
        raise ConfigError(f"{path}: expected a mapping")
    return value


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key '{_join(path, key)}'")


def _get_int(mapping: dict, key: str, path: str, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"missing required key '{_join(path, key)}'")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{_join(path, key)}' must be an integer")
    return value


def _get_float(mapping: dict, key: str, path: str, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"missing required key '{_join(path, key)}'")
        return default
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{_join(path, key)}' must be a number")
    return float(value)


def _get_str(mapping: dict, key: str, path: str, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"missing required key '{_join(path, key)}'")
        return default
    value = mapping[key]
    if not isinstance(value, str):
        raise ConfigError(f"'{_join(path, key)}' must be a string")
    return value


def _get_bool(mapping: dict, key: str, path: str, default=False):
    if key not in mapping:
        return default
    value = mapping[key]
    if not isinstance(value, bool):
        raise ConfigError(f"'{_join(path, key)}' must be a boolean")
    return value


def _parse_array(data: dict) -> ArraySpec:
    data = _require_mapping(data, "array")
    _check_keys(data, {"geometry", "n", "nx", "nz", "spacing", "gain_std", "pos_std"}, "array")
    geometry = _get_str(data, "geometry", "array", default="ula")
    if geometry not in ("ula", "upa"):
        raise ConfigError("'array.geometry' must be 'ula' or 'upa'")
    if geometry == "ula":
        if "nx" in data or "nz" in data:
            raise ConfigError("'array.nx'/'array.nz' only apply to geometry 'upa'")
        shape = (_get_int(data, "n", "array", required=True),)
    else:
        if "n" in data:
            raise ConfigError("'array.n' only applies to geometry 'ula'")
        shape = (
            _get_int(data, "nx", "array", required=True),
            _get_int(data, "nz", "array", required=True),
        )
    try:
        return ArraySpec(
            shape=shape,
            spacing=_get_float(data, "spacing", "array", default=0.5),
            gain_std=_get_float(data, "gain_std", "array", default=0.0),
            pos_std=_get_float(data, "pos_std", "array", default=0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"array: {exc}") from None


def _parse_snr(data) -> FixedSnr | TruncatedGaussianSnr:
    data = _require_mapping(data, "snr")
    model = _get_str(data, "model", "snr", required=True)
    try:
        if model == "fixed":
            _check_keys(data, {"model", "value_db"}, "snr")
            return FixedSnr(value_db=_get_float(data, "value_db", "snr", required=True))
        if model == "truncated_gaussian":
            _check_keys(data, {"model", "mean_db", "std_db", "floor_db"}, "snr")
            return TruncatedGaussianSnr(
                mean_db=_get_float(data, "mean_db", "snr", default=10.0),
                std_db=_get_float(data, "std_db", "snr", default=4.0),
                floor_db=_get_float(data, "floor_db", "snr", default=1.0),
            )
    except ValueError as exc:
        raise ConfigError(f"snr: {exc}") from None
    raise ConfigError("'snr.model' must be 'fixed' or 'truncated_gaussian'")


def _parse_channel(data, snr) -> ChannelGenConfig:
    data = _require_mapping(data, "channel") if data is not None else {}
    _check_keys(data, {"paths_min", "paths_max", "gain_decay", "cluster_std_deg"}, "channel")
    cluster = None
    if "cluster_std_deg" in data and data["cluster_std_deg"] is not None:
        cluster = _get_float(data, "cluster_std_deg", "channel")
    try:
        return ChannelGenConfig(
            paths_min=_get_int(data, "paths_min", "channel", default=1),
            paths_max=_get_int(data, "paths_max", "channel", default=10),
            gain_decay=_get_float(data, "gain_decay", "channel", default=0.7),
            cluster_std_deg=cluster,
            snr=snr,
        )
    except ValueError as exc:
        raise ConfigError(f"channel: {exc}") from None


# YAML key -> (TrainConfig field, reader); TrainConfig holds the defaults.
_TRAINING_KEYS = {
    "minibatch_size": ("minibatch_size", _get_int),
    "learning_rate": ("base_rate", _get_float),
    "decay_factor": ("decay", _get_float),
    "decay_every": ("decay_every", _get_int),
    "beta1": ("beta1", _get_float),
    "beta2": ("beta2", _get_float),
    "epsilon": ("eps", _get_float),
}


def _parse_training(data) -> TrainConfig:
    data = _require_mapping(data, "training") if data is not None else {}
    _check_keys(data, set(_TRAINING_KEYS), "training")
    fields = {field: read(data, key, "training") for key, (field, read) in _TRAINING_KEYS.items() if key in data}
    try:
        return TrainConfig(**fields)
    except ValueError as exc:
        name, _, bounds = str(exc).partition(" ")  # TrainConfig names the field first
        key = next(key for key, (field, _) in _TRAINING_KEYS.items() if field == name)
        raise ConfigError(f"'training.{key}' {bounds}") from None


def _parse_anomalies(entries, total_samples: int) -> tuple[ArrayEvent, ...]:
    if entries is None:
        return ()
    if not isinstance(entries, list):
        raise ConfigError("'anomalies' must be a list")
    events: list[ArrayEvent] = []
    for pos, entry in enumerate(entries):
        path = f"anomalies[{pos}]"
        entry = _require_mapping(entry, path)
        _check_keys(entry, {"kind", "index", "fraction", "gain_std", "steps", "every"}, path)
        kind = _get_str(entry, "kind", path, required=True)
        index = _get_int(entry, "index", path, required=True)
        steps = _get_int(entry, "steps", path, default=1)
        every = _get_int(entry, "every", path, default=0)
        if steps < 1:
            raise ConfigError(f"'{path}.steps' must be >= 1")
        if steps > 1 and every < 1:
            raise ConfigError(f"'{path}.every' must be >= 1 when steps > 1")
        try:
            if kind == "break":
                if steps != 1:
                    raise ConfigError(f"'{path}': break events do not repeat")
                events.append(ArrayEvent(index, "break", fraction=_get_float(entry, "fraction", path, required=True)))
            elif kind == "age":
                gain_std = _get_float(entry, "gain_std", path, required=True)
                for k in range(steps):
                    events.append(ArrayEvent(index + k * every, "age", gain_std=gain_std))
            else:
                raise ConfigError(f"'{path}.kind' must be 'break' or 'age'")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    for event in events:
        if event.index >= total_samples:
            raise ConfigError(f"anomaly index {event.index} is beyond the stream length {total_samples}")
    return tuple(events)


def _parse_snr_loss(data) -> SnrLossSpec:
    data = _require_mapping(data, "snr_loss")
    allowed = {"pos_stds", "gain_stds", "arrays", "channels_per_array", "snr_db", "atoms"}
    _check_keys(data, allowed, "snr_loss")
    for key in ("pos_stds", "gain_stds"):
        if key not in data or not isinstance(data[key], list) or not data[key]:
            raise ConfigError(f"'snr_loss.{key}' must be a nonempty list")
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in data[key]):
            raise ConfigError(f"'snr_loss.{key}' must contain numbers")
    try:
        return SnrLossSpec(
            pos_stds=tuple(float(v) for v in data["pos_stds"]),
            gain_stds=tuple(float(v) for v in data["gain_stds"]),
            n_arrays=_get_int(data, "arrays", "snr_loss", default=5),
            channels_per_array=_get_int(data, "channels_per_array", "snr_loss", default=200),
            snr_db=_get_float(data, "snr_db", "snr_loss", default=10.0),
            n_atoms=_get_int(data, "atoms", "snr_loss", default=None),
        )
    except ValueError as exc:
        raise ConfigError(f"snr_loss: {exc}") from None


def config_from_mapping(data: dict) -> ExperimentConfig:
    data = _require_mapping(data, "")
    _check_keys(data, _TOP_KEYS, "")
    seed = _get_int(data, "seed", "", required=True)
    array = _parse_array(data.get("array", {"n": 64}))
    dictionary = _require_mapping(data.get("dictionary", {"atoms": 8 * array.n_antennas}), "dictionary")
    _check_keys(dictionary, {"atoms"}, "dictionary")
    n_atoms = _get_int(dictionary, "atoms", "dictionary", default=8 * array.n_antennas)
    snr = _parse_snr(data.get("snr", {"model": "fixed", "value_db": 10.0}))
    channel = _parse_channel(data.get("channel"), snr)
    training = _parse_training(data.get("training"))
    total_samples = _get_int(data, "total_samples", "", default=0)

    estimators = data.get("estimators", [])
    if estimators is None:
        estimators = []
    if not isinstance(estimators, list) or any(not isinstance(e, str) for e in estimators):
        raise ConfigError("'estimators' must be a list of strings")
    for spec in estimators:
        try:
            parse_estimator(spec)
        except ValueError as exc:
            raise ConfigError(f"estimators: {exc}") from None

    stream = _require_mapping(data.get("stream", {}), "stream")
    _check_keys(stream, {"dump", "replay"}, "stream")
    replay = stream.get("replay")
    if replay is not None and not isinstance(replay, str):
        raise ConfigError("'stream.replay' must be a path string or null")

    snr_loss = _parse_snr_loss(data["snr_loss"]) if "snr_loss" in data else None
    anomalies = _parse_anomalies(data.get("anomalies"), total_samples)

    try:
        return ExperimentConfig(
            seed=seed,
            array=array,
            n_atoms=n_atoms,
            channel=channel,
            training=training,
            estimators=tuple(estimators),
            total_samples=total_samples,
            anomalies=anomalies,
            dump_stream=_get_bool(stream, "dump", "stream", default=False),
            replay_stream=replay,
            snr_loss=snr_loss,
            output_dir=_get_str(data, "output_dir", "", default=None),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    return config_from_mapping(data)
