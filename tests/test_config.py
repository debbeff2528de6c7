import copy
import math
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import mpnetlab.config
from mpnetlab.channels import ArrayEvent, FixedSnr, TruncatedGaussianSnr
from mpnetlab.config import ArraySpec, ConfigError, ExperimentConfig, SnrLossSpec, config_from_mapping, load_config
from mpnetlab.mpnet import TrainConfig

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def minimal_mapping(**overrides):
    data = {
        "seed": 7,
        "total_samples": 400,
        "array": {"geometry": "ula", "n": 16},
        "dictionary": {"atoms": 64},
        "snr": {"model": "fixed", "value_db": 10.0},
        "training": {"minibatch_size": 100},
        "estimators": ["ls", "mpnet:nominal:sc2"],
    }
    data.update(overrides)
    return data


class TestValidMappings:
    def test_minimal(self):
        cfg = config_from_mapping(minimal_mapping())
        assert cfg.seed == 7
        assert cfg.array.shape == (16,)
        assert cfg.n_atoms == 64
        assert isinstance(cfg.snr, FixedSnr)
        assert cfg.training.minibatch_size == 100

    def test_defaults_fill_in(self):
        data = minimal_mapping()
        del data["dictionary"], data["training"], data["snr"]
        cfg = config_from_mapping(data)
        assert cfg.n_atoms == 8 * 16
        assert cfg.training.minibatch_size == 200
        assert cfg.snr == FixedSnr(10.0)

    def test_truncated_gaussian_snr(self):
        data = minimal_mapping(snr={"model": "truncated_gaussian", "mean_db": 9.0})
        cfg = config_from_mapping(data)
        assert cfg.snr == TruncatedGaussianSnr(mean_db=9.0, std_db=4.0, floor_db=1.0)

    def test_upa_shape(self):
        data = minimal_mapping(array={"geometry": "upa", "nx": 4, "nz": 4})
        cfg = config_from_mapping(data)
        assert cfg.array.shape == (4, 4)
        assert cfg.array.geometry == "upa"

    def test_aging_steps_expand(self):
        data = minimal_mapping(
            anomalies=[{"kind": "age", "index": 100, "gain_std": 0.1, "steps": 3, "every": 50}]
        )
        cfg = config_from_mapping(data)
        assert [e.index for e in cfg.anomalies] == [100, 150, 200]
        assert all(e.kind == "age" for e in cfg.anomalies)

    def test_snr_loss_section(self):
        data = {
            "seed": 1,
            "array": {"geometry": "ula", "n": 16},
            "snr_loss": {"pos_stds": [0.0, 0.03], "gain_stds": [0.0, 0.09]},
        }
        cfg = config_from_mapping(data)
        assert cfg.snr_loss.pos_stds == (0.0, 0.03)
        assert cfg.snr_loss.n_arrays == 5


class TestRejections:
    def test_unknown_top_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'snrr'"):
            config_from_mapping(minimal_mapping(snrr={}))

    def test_unknown_nested_key_named(self):
        data = minimal_mapping(training={"minibatch_sise": 100})
        with pytest.raises(ConfigError, match="training.minibatch_sise"):
            config_from_mapping(data)

    def test_missing_seed(self):
        data = minimal_mapping()
        del data["seed"]
        with pytest.raises(ConfigError, match="seed"):
            config_from_mapping(data)

    def test_wrong_type_reported(self):
        with pytest.raises(ConfigError, match="'seed' must be an integer"):
            config_from_mapping(minimal_mapping(seed="nope"))

    def test_bad_estimator_spec(self):
        with pytest.raises(ConfigError, match="estimator"):
            config_from_mapping(minimal_mapping(estimators=["mp:wrong:sc2"]))

    def test_ula_rejects_upa_keys(self):
        data = minimal_mapping(array={"geometry": "ula", "n": 8, "nx": 2})
        with pytest.raises(ConfigError, match="nx"):
            config_from_mapping(data)

    def test_anomaly_past_stream_end(self):
        data = minimal_mapping(anomalies=[{"kind": "break", "index": 400, "fraction": 0.1}])
        with pytest.raises(ConfigError, match="beyond the stream"):
            config_from_mapping(data)

    def test_break_with_steps_rejected(self):
        data = minimal_mapping(anomalies=[{"kind": "break", "index": 10, "fraction": 0.1, "steps": 2, "every": 5}])
        with pytest.raises(ConfigError, match="break"):
            config_from_mapping(data)

    def test_negative_uncertainty(self):
        data = minimal_mapping(array={"geometry": "ula", "n": 8, "gain_std": -0.1})
        with pytest.raises(ConfigError, match="array"):
            config_from_mapping(data)

    # a sweep and a learning run are separate experiments, each with its own config
    @pytest.mark.parametrize(
        "overrides",
        [
            {"total_samples": 400, "estimators": ["ls"]},
            {"total_samples": 400},
            {"estimators": ["ls"]},
            {"stream": {"dump": True}},
            {"stream": {"replay": "stream.csv"}},
        ],
        ids=["learning run", "total_samples", "roster", "dump", "replay"],
    )
    def test_sweep_beside_a_learning_run_rejected(self, overrides):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(_sweep(**overrides))
        assert str(exc.value) == "a config describes one experiment: an snr_loss section takes no total_samples, estimators, anomalies or stream settings"

    def test_sweep_beside_anomalies_rejected(self):
        # built directly: the loader bounds an anomaly by total_samples first
        sweep = config_from_mapping(_sweep())
        with pytest.raises(ValueError, match="^a config describes one experiment: "):
            replace(sweep, anomalies=(ArrayEvent(index=0, kind="break", fraction=0.3),))

    @pytest.mark.parametrize("total", [1, 99])
    def test_fewer_samples_than_one_minibatch_rejected(self, total):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(minimal_mapping(total_samples=total))
        assert str(exc.value) == "total_samples is smaller than one minibatch"

    def test_one_minibatch_of_samples_loads(self):
        assert config_from_mapping(minimal_mapping(total_samples=100)).total_samples == 100

    def test_sweep_on_a_planar_array_rejected(self):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(_sweep(array={"geometry": "upa", "nx": 4, "nz": 4}))
        assert str(exc.value) == "the SNR-loss sweep is defined for linear arrays"

    SWEEP_SETTINGS_MESSAGE = (
        "the SNR-loss sweep reads its uncertainty from snr_loss.pos_stds and snr_loss.gain_stds and trains nothing: "
        "it takes no array.gain_std, array.pos_std or training settings"
    )

    # the sweep builds only the nominal array and trains nothing, so these settings would be silently ignored
    @pytest.mark.parametrize(
        "overrides",
        [
            {"array": {"n": 16, "gain_std": 0.3, "pos_std": 0.1}, "training": {"minibatch_size": 7, "learning_rate": 0.5}},
            {"array": {"n": 16, "gain_std": 0.3}},
            {"array": {"n": 16, "pos_std": 0.1}},
            {"training": {"minibatch_size": 7}},
            {"training": {"learning_rate": 0.5}},
        ],
        ids=["unread settings", "gain_std", "pos_std", "minibatch_size", "learning_rate"],
    )
    def test_sweep_with_settings_it_never_reads_rejected(self, overrides):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(_sweep(**overrides))
        assert str(exc.value) == self.SWEEP_SETTINGS_MESSAGE

    def test_sweep_with_default_settings_loads(self):
        data = _sweep(array={"n": 16, "gain_std": 0.0, "pos_std": 0.0}, training={"minibatch_size": 200})
        assert config_from_mapping(data).training == TrainConfig()

    # a config sure to fail in the run fails at load, its message naming the key
    @pytest.mark.parametrize(
        "data, message",
        [
            (
                minimal_mapping(snr={"model": "fixed", "value_db": math.inf}),
                "snr.value_db must be finite in a learning run (the SNR histogram has no bin for inf, and a replay rejects it)",
            ),
            (minimal_mapping(training={"minibatch_size": 100, "learning_rate": math.inf}), "'training.learning_rate' must be > 0 and finite"),
            # an infinite epsilon makes every Adam step 0: the run would train nothing
            (minimal_mapping(training={"minibatch_size": 100, "epsilon": math.inf}), "'training.epsilon' must be > 0 and finite"),
            (minimal_mapping(estimators=["mp:nominal:fixed0"]), "estimator 'mp:nominal:fixed0': fixed rules need depth >= 1"),
            (minimal_mapping(estimators=["ls", "mpnet:nominal:fixed-3"]), "estimator 'mpnet:nominal:fixed-3': fixed rules need depth >= 1"),
            (minimal_mapping(dictionary={"atoms": 0}), "'dictionary.atoms' must be >= 1"),
            (
                minimal_mapping(estimators=["ls", "omp:oracle:sc2"], stream={"replay": "stream.csv"}),
                "oracle estimators need a live stream (not a replay)",
            ),
        ],
        ids=["noiseless live run", "infinite learning rate", "infinite epsilon", "fixed0", "fixed-3", "no atoms", "replay with an oracle entry"],
    )
    def test_run_sure_to_fail_rejected_naming_its_key(self, data, message):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(data)
        assert str(exc.value) == message

    # int() reads all of these as a depth, so each would run as its own roster
    # column beside "fixed3" (and "fixed1_0" is depth 10)
    @pytest.mark.parametrize("token", ["fixed03", "fixed+3", "fixed 3", "fixed1_0", "fixed-0"])
    def test_one_spelling_per_fixed_depth(self, token):
        entry = f"mp:nominal:{token}"
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(minimal_mapping(estimators=["ls", "mp:nominal:fixed3", entry]))
        assert str(exc.value) == f"estimator {entry!r}: bad fixed-depth rule {token!r}"


class TestLoadConfig:
    def test_roundtrip_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "seed: 3\ntotal_samples: 200\n"
            "array: {geometry: ula, n: 8}\n"
            "training: {minibatch_size: 100}\n"
            "estimators: [ls]\n"
        )
        cfg = load_config(path)
        assert cfg.seed == 3
        assert cfg.estimators == ("ls",)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("seed: [unclosed\n")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(path)

    def test_shipped_configs_validate(self):
        from pathlib import Path

        config_dir = Path(__file__).parent.parent / "configs"
        files = sorted(config_dir.glob("*.yaml"))
        assert len(files) >= 9
        for path in files:
            load_config(path)


class TestTrainingRanges:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("minibatch_size", 0),
            ("decay_every", 0),
            ("learning_rate", -0.01),
            ("learning_rate", 0.0),
            ("decay_factor", 0.0),
            ("decay_factor", 1.5),
            ("beta1", -0.1),
            ("beta1", 1.0),
            ("beta2", 1.5),
            ("epsilon", 0.0),
        ],
    )
    def test_out_of_range_value_names_its_key(self, key, value):
        data = minimal_mapping(training={"minibatch_size": 100, key: value})
        with pytest.raises(ConfigError, match=rf"^'training\.{key}' must be "):
            config_from_mapping(data)

    def test_range_edges_accepted(self):
        training = {"minibatch_size": 1, "decay_every": 1, "decay_factor": 1.0, "beta1": 0.0, "beta2": 0.0}
        cfg = config_from_mapping(minimal_mapping(training=training))
        assert (cfg.training.decay, cfg.training.beta1, cfg.training.beta2) == (1.0, 0.0, 0.0)

    def test_type_errors_unchanged(self):
        with pytest.raises(ConfigError, match="'training.learning_rate' must be a number"):
            config_from_mapping(minimal_mapping(training={"learning_rate": "fast"}))
        with pytest.raises(ConfigError, match="'training.decay_every' must be an integer"):
            config_from_mapping(minimal_mapping(training={"decay_every": 2.5}))
        with pytest.raises(ConfigError, match="unknown key 'training.total_samples'"):
            config_from_mapping(minimal_mapping(training={"total_samples": 400}))


class TestSectionTypeErrors:
    """A type error inside a section names its dotted key once, with no
    section prefix in front."""

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # the channel model is fixed and elements are half a wavelength apart: no such keys
            ({"array": {"geometry": "ula", "n": 16, "spacing": "wide"}}, "unknown key 'array.spacing'"),
            ({"array": {"geometry": "ula", "n": 16, "pos_std": True}}, "'array.pos_std' must be a number"),
            ({"snr": {"model": "fixed", "value_db": "loud"}}, "'snr.value_db' must be a number"),
            ({"snr": {"model": "truncated_gaussian", "std_db": [4.0]}}, "'snr.std_db' must be a number"),
            ({"channel": {"paths_min": 2.5}}, "unknown key 'channel'"),
            ({"channel": {"gain_decay": "fast"}}, "unknown key 'channel'"),
            ({"channel": {"cluster_std_deg": "wide"}}, "unknown key 'channel'"),
        ],
    )
    def test_message_is_exact(self, overrides, message):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(minimal_mapping(**overrides))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("arrays", "five", "'snr_loss.arrays' must be an integer"),
            ("channels_per_array", 2.0, "'snr_loss.channels_per_array' must be an integer"),
            # the sweep's dictionary size and SNR are dictionary.atoms and snr
            ("atoms", 256, "unknown key 'snr_loss.atoms'"),
            ("snr_db", 10.0, "unknown key 'snr_loss.snr_db'"),
        ],
    )
    def test_snr_loss_message_is_exact(self, key, value, message):
        data = {"seed": 1, "array": {"n": 16}, "snr_loss": {"pos_stds": [0.0], "gain_stds": [0.0], key: value}}
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(data)
        assert str(exc.value) == message

    def test_sweep_needs_a_fixed_snr(self):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(_sweep(snr={"model": "truncated_gaussian"}))
        assert str(exc.value) == "the SNR-loss sweep needs a fixed SNR (snr.model: fixed)"


class TestDefaultsFromDataclasses:
    def test_absent_keys_take_the_dataclass_defaults(self):
        data = minimal_mapping()
        del data["snr"], data["training"]
        cfg = config_from_mapping(data)
        assert cfg.array == ArraySpec((16,))
        assert cfg.snr == FixedSnr()
        assert cfg.training == TrainConfig()

    def test_truncated_gaussian_defaults(self):
        cfg = config_from_mapping(minimal_mapping(snr={"model": "truncated_gaussian"}))
        assert cfg.snr == TruncatedGaussianSnr()

    def test_snr_loss_defaults(self):
        data = {"seed": 1, "array": {"n": 16}, "snr_loss": {"pos_stds": [0.0], "gain_stds": [0.1]}}
        assert config_from_mapping(data).snr_loss == SnrLossSpec((0.0,), (0.1,))

    def test_dictionary_size_default_follows_the_experiment(self):
        # 32 atoms per antenna for a sweep, 8 for a learning run
        assert config_from_mapping(_sweep()).n_atoms == 32 * 16
        learning = minimal_mapping()
        del learning["dictionary"]
        assert config_from_mapping(learning).n_atoms == 8 * 16


class TestAnomalyScheduleBound:
    def _counted(self, monkeypatch):
        built = []
        original = mpnetlab.config.ArrayEvent

        def counting(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(mpnetlab.config, "ArrayEvent", counting)
        return built

    def test_long_schedule_rejected_before_expansion(self, monkeypatch):
        built = self._counted(monkeypatch)
        event = {"kind": "age", "index": 100, "gain_std": 0.1, "steps": 100000, "every": 50}
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(minimal_mapping(anomalies=[event]))
        assert str(exc.value) == "anomaly index 400 is beyond the stream length 400"
        assert built == []

    @pytest.mark.parametrize("index, steps, every, first", [(110, 9, 50, 410), (399, 3, 1, 400), (400, 1, 0, 400), (500, 2, 7, 500)])
    def test_names_the_first_event_past_the_end(self, index, steps, every, first):
        event = {"kind": "age", "index": index, "gain_std": 0.1, "steps": steps, "every": every}
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(minimal_mapping(anomalies=[event]))
        assert str(exc.value) == f"anomaly index {first} is beyond the stream length 400"

    @pytest.mark.parametrize("total, index", [(400, 400), (450, 420)])
    def test_bounded_by_the_whole_minibatches(self, total, index):
        event = {"kind": "break", "index": index, "fraction": 0.1}
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(minimal_mapping(total_samples=total, anomalies=[event]))
        assert str(exc.value) == f"anomaly index {index} is beyond the stream length 400"

    def test_schedule_ending_on_the_last_sample_is_kept(self, monkeypatch):
        built = self._counted(monkeypatch)
        event = {"kind": "age", "index": 99, "gain_std": 0.1, "steps": 4, "every": 100}
        cfg = config_from_mapping(minimal_mapping(anomalies=[event]))
        assert [e.index for e in cfg.anomalies] == [99, 199, 299, 399]
        assert len(built) == 4


HUGE = 10**400  # 401 digits: past the float range


def _sweep(**overrides):
    """A sweep config with the top-level keys of ``overrides``."""
    return {"seed": 1, "array": {"n": 16}, "snr_loss": {"pos_stds": [0.0], "gain_stds": [0.0]}, **overrides}


def _snr_loss_with(key, value):
    data = _sweep()
    data["snr_loss"][key] = value
    return data


class TestOutOfRangeValues:
    """Values no float or no event can hold fail at load with a ConfigError
    naming the key, not with a traceback or mid-run."""

    @pytest.mark.parametrize(
        "event, message",
        [
            ({"kind": "break", "index": 10, "fraction": 1.5}, "anomalies[0]: fraction must lie in [0, 1]"),
            ({"kind": "break", "index": 10, "fraction": -0.1}, "anomalies[0]: fraction must lie in [0, 1]"),
            ({"kind": "age", "index": 10, "gain_std": -0.1}, "anomalies[0]: gain_std must be finite and nonnegative"),
            ({"kind": "age", "index": 10, "gain_std": math.nan}, "anomalies[0]: gain_std must be finite and nonnegative"),
            ({"kind": "age", "index": 10, "gain_std": math.inf}, "anomalies[0]: gain_std must be finite and nonnegative"),
        ],
    )
    def test_anomaly_amount_checked_at_load(self, event, message):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(minimal_mapping(anomalies=[event]))
        assert str(exc.value) == message

    @pytest.mark.parametrize("fraction", [1.0, 0.97])
    def test_break_of_every_antenna_rejected(self, fraction):
        # round(fraction * 16) is 16: the stream would run out of channel mid-run
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(minimal_mapping(anomalies=[{"kind": "break", "index": 200, "fraction": fraction}]))
        assert str(exc.value) == f"break at index 200 (fraction {fraction}) zeroes all 16 antennas, leaving no channel"

    def test_break_of_all_but_one_antenna_loads(self):
        cfg = config_from_mapping(minimal_mapping(anomalies=[{"kind": "break", "index": 200, "fraction": 0.96}]))
        assert cfg.anomalies[0].fraction == 0.96

    def test_second_break_of_the_working_antennas_rejected(self):
        # 14 of 16 antennas, then round(0.9 * 2) = 2 of the 2 left; listed out of
        # order, as the stream applies them by index
        breaks = [{"kind": "break", "index": 300, "fraction": 0.9}, {"kind": "break", "index": 200, "fraction": 0.9}]
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(minimal_mapping(anomalies=breaks))
        assert str(exc.value) == "break at index 300 (fraction 0.9) zeroes all 16 antennas, leaving no channel"

    @pytest.mark.parametrize(
        "n, events",
        [
            (64, [{"kind": "break", "index": 200, "fraction": 0.5}, {"kind": "break", "index": 300, "fraction": 0.5}]),
            # aging moves every gain off zero before the second break
            (16, [{"kind": "break", "index": 200, "fraction": 0.9}, {"kind": "age", "index": 250, "gain_std": 0.1}, {"kind": "break", "index": 300, "fraction": 0.9}]),
        ],
    )
    def test_breaks_that_leave_an_antenna_load(self, n, events):
        cfg = config_from_mapping(minimal_mapping(array={"geometry": "ula", "n": n}, anomalies=events))
        assert len(cfg.anomalies) == len(events)

    def test_huge_integer_for_a_float_key(self):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(minimal_mapping(array={"geometry": "ula", "n": 16, "gain_std": HUGE}))
        assert str(exc.value) == "'array.gain_std' is too large for a float"

    @pytest.mark.parametrize("key", ["pos_stds", "gain_stds"])
    def test_huge_integer_in_an_snr_loss_list(self, key):
        data = {"seed": 1, "array": {"n": 16}, "snr_loss": {"pos_stds": [0.0], "gain_stds": [0.0]}}
        data["snr_loss"][key] = [0.0, HUGE]
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(data)
        assert str(exc.value) == f"'snr_loss.{key}' is too large for a float"

    # a NaN fails the range check of the key that holds it, with that check's
    # own message, instead of failing mid-run or never returning (a NaN SNR
    # draw is never above the floor)
    @pytest.mark.parametrize(
        "data, message",
        [
            (minimal_mapping(array={"n": 16, "gain_std": math.nan}), "array: uncertainty standard deviations must be finite and nonnegative"),
            (minimal_mapping(array={"n": 16, "pos_std": math.nan}), "array: uncertainty standard deviations must be finite and nonnegative"),
            (minimal_mapping(snr={"model": "fixed", "value_db": math.nan}), "snr: value_db must not be NaN"),
            (minimal_mapping(snr={"model": "truncated_gaussian", "mean_db": math.nan}), "snr: SNR floor leaves a negligible acceptance probability"),
            (minimal_mapping(snr={"model": "truncated_gaussian", "std_db": math.nan}), "snr: std_db must be nonnegative"),
            (minimal_mapping(snr={"model": "truncated_gaussian", "floor_db": math.nan}), "snr: SNR floor leaves a negligible acceptance probability"),
            (_snr_loss_with("pos_stds", [0.0, math.nan]), "snr_loss: uncertainty values must be finite and nonnegative"),
            (_snr_loss_with("gain_stds", [math.nan]), "snr_loss: uncertainty values must be finite and nonnegative"),
        ],
        ids=[
            "array.gain_std",
            "array.pos_std",
            "snr.value_db",
            "snr.mean_db",
            "snr.std_db",
            "snr.floor_db",
            "snr_loss.pos_stds",
            "snr_loss.gain_stds",
        ],
    )
    def test_nan_fails_its_range_check(self, data, message):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(data)
        assert str(exc.value) == message

    # an infinite uncertainty used to load; the run then stopped with
    # "positions and gains must be finite" after making its output directory
    @pytest.mark.parametrize(
        "data, message",
        [
            (minimal_mapping(array={"n": 16, "gain_std": math.inf}), "array: uncertainty standard deviations must be finite and nonnegative"),
            (minimal_mapping(array={"n": 16, "pos_std": math.inf}), "array: uncertainty standard deviations must be finite and nonnegative"),
            (_snr_loss_with("pos_stds", [0.0, math.inf]), "snr_loss: uncertainty values must be finite and nonnegative"),
            (_snr_loss_with("gain_stds", [0.0, math.inf]), "snr_loss: uncertainty values must be finite and nonnegative"),
        ],
        ids=["array.gain_std", "array.pos_std", "snr_loss.pos_stds", "snr_loss.gain_stds"],
    )
    def test_infinite_uncertainty_fails_at_load(self, data, message):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(data)
        assert str(exc.value) == message

    def test_truncated_gaussian_floor_bounds_the_lower_tail(self):
        # mean_db - 10 std_db underflows, but no draw falls below the floor
        snr = config_from_mapping(minimal_mapping(snr={"model": "truncated_gaussian", "mean_db": -3200.0, "std_db": 20.0, "floor_db": -3220.0})).snr
        assert snr == TruncatedGaussianSnr(-3200.0, 20.0, -3220.0)

    @pytest.mark.parametrize("field", ["mean_db", "std_db", "floor_db"])
    def test_truncated_gaussian_rejects_a_nan_field(self, field):
        with pytest.raises(ValueError):
            TruncatedGaussianSnr(**{field: math.nan})

    # -inf dB is no signal: the noise variance would divide by zero mid-run; so
    # would an SNR whose linear power underflows to 0, and one that overflows
    # stops the stream with an OverflowError
    @pytest.mark.parametrize(
        "data, message",
        [
            (minimal_mapping(snr={"model": "fixed", "value_db": -math.inf}), "snr: value_db must not be -inf"),
            (minimal_mapping(snr={"model": "fixed", "value_db": 3100.0}), "snr: value_db must give a positive, finite linear SNR"),
            (minimal_mapping(snr={"model": "fixed", "value_db": -4000.0}), "snr: value_db must give a positive, finite linear SNR"),
            (_sweep(snr={"model": "fixed", "value_db": 3100.0}), "snr: value_db must give a positive, finite linear SNR"),
            (minimal_mapping(snr={"model": "truncated_gaussian", "mean_db": 3100.0}), "snr: mean_db must give a positive, finite linear SNR"),
            (
                minimal_mapping(snr={"model": "truncated_gaussian", "mean_db": -4000.0, "floor_db": -5000.0}),
                "snr: mean_db must give a positive, finite linear SNR",
            ),
            # a draw 10 standard deviations from the mean: these used to load
            # and fail mid-run, with an OverflowError and a division by zero
            (
                minimal_mapping(snr={"model": "truncated_gaussian", "mean_db": 3060.0, "std_db": 20.0}),
                "snr: mean_db + 10 std_db must give a positive, finite linear SNR",
            ),
            (
                minimal_mapping(snr={"model": "truncated_gaussian", "mean_db": -3200.0, "std_db": 20.0, "floor_db": -4000.0}),
                "snr: max(floor_db, mean_db - 10 std_db) must give a positive, finite linear SNR",
            ),
        ],
        ids=[
            "snr.value_db",
            "value_db overflows",
            "value_db underflows",
            "sweep value_db overflows",
            "mean_db overflows",
            "mean_db underflows",
            "upper tail overflows",
            "lower tail underflows",
        ],
    )
    def test_minus_infinite_snr_fails_at_load(self, data, message):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(data)
        assert str(exc.value) == message

    def test_infinite_snr_loss_snr_stays_valid(self):
        assert config_from_mapping(_sweep(snr={"model": "fixed", "value_db": math.inf})).snr == FixedSnr(math.inf)

    @pytest.mark.parametrize("atoms", [0, -3])
    def test_snr_loss_atom_count_below_one(self, atoms):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(_sweep(dictionary={"atoms": atoms}))
        assert str(exc.value) == "'dictionary.atoms' must be >= 1"

    # numpy seeds and sample counts are nonnegative: a negative one used to load,
    # and a run then failed with numpy's own message after making its output directory
    @pytest.mark.parametrize(
        "data, message",
        [
            (minimal_mapping(seed=-1), "seed must be >= 0"),
            (_sweep(dictionary={"atoms": 64}, seed=-1), "seed must be >= 0"),
            (_sweep(dictionary={"atoms": 64}, total_samples=-5), "total_samples must be >= 0"),
            # the anomaly bound used to read the negative length and name the event instead
            (minimal_mapping(total_samples=-5, anomalies=[{"kind": "break", "index": 3, "fraction": 0.3}]), "total_samples must be >= 0"),
        ],
        ids=["learning seed", "sweep seed", "sweep total_samples", "learning total_samples beside an anomaly"],
    )
    def test_negative_count_fails_at_load(self, data, message):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(data)
        assert str(exc.value) == message

    def test_zero_seed_stays_valid(self):
        assert config_from_mapping(minimal_mapping(seed=0)).seed == 0

    def test_infinite_fixed_snr_stays_valid(self):
        # a replay reads no SNR model; a live learning run rejects inf (TestRejections)
        data = minimal_mapping(snr={"model": "fixed", "value_db": math.inf}, stream={"replay": "stream.csv"})
        assert config_from_mapping(data).snr == FixedSnr(math.inf)

    # an infinite mean or spread draws infinite SNRs, which no histogram bin holds
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("mean_db", math.inf, "snr: mean_db must be finite"),
            ("mean_db", -math.inf, "snr: mean_db must be finite"),
            ("std_db", math.inf, "snr: std_db must be finite"),
        ],
    )
    def test_infinite_truncated_gaussian_fails_at_load(self, field, value, message):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(minimal_mapping(snr={"model": "truncated_gaussian", field: value}))
        assert str(exc.value) == message


class TestTopLevel:
    def test_list_document_rejected_with_file_name(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- seed: 3\n- total_samples: 200\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"{path}: expected a mapping at the top level"

    @pytest.mark.parametrize("data", [[1, 2], "seed: 3", 7])
    def test_non_mapping_rejected(self, data):
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(data)
        assert str(exc.value) == "expected a mapping at the top level"


SHIPPED = [yaml.safe_load(path.read_text(encoding="utf-8")) for path in sorted(CONFIG_DIR.glob("*.yaml"))]
POOL = [None, True, False, 0, -1, 2.5, "", "x", "upa", "truncated_gaussian", [], {}, math.nan, math.inf, HUGE, 1.5, -0.1]


def _paths(node, prefix=()):
    """Every position below ``node``: mapping keys and list items, depth first."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    data = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(data))))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(POOL)))
    return data


class TestConfigFuzz:
    @settings(derandomize=True, max_examples=1500, deadline=None)
    @given(mutated_configs())
    def test_mutated_shipped_config_is_a_config_or_a_config_error(self, data):
        try:
            cfg = config_from_mapping(data)
        except ConfigError:
            return
        assert isinstance(cfg, ExperimentConfig)
