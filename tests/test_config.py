import pytest

from mpnetlab.channels import FixedSnr, TruncatedGaussianSnr
from mpnetlab.config import ConfigError, config_from_mapping, load_config


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
        assert isinstance(cfg.channel.snr, FixedSnr)
        assert cfg.training.minibatch_size == 100

    def test_defaults_fill_in(self):
        data = minimal_mapping()
        del data["dictionary"], data["training"], data["snr"]
        cfg = config_from_mapping(data)
        assert cfg.n_atoms == 8 * 16
        assert cfg.training.minibatch_size == 200
        assert cfg.channel.snr == FixedSnr(10.0)

    def test_truncated_gaussian_snr(self):
        data = minimal_mapping(snr={"model": "truncated_gaussian", "mean_db": 9.0})
        cfg = config_from_mapping(data)
        assert cfg.channel.snr == TruncatedGaussianSnr(mean_db=9.0, std_db=4.0, floor_db=1.0)

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
        data = minimal_mapping(channel={"paths_mim": 2})
        with pytest.raises(ConfigError, match="channel.paths_mim"):
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

    def test_paths_min_zero(self):
        data = minimal_mapping(channel={"paths_min": 0})
        with pytest.raises(ConfigError, match="channel"):
            config_from_mapping(data)


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
