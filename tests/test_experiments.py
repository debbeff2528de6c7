import io
import math

import numpy as np
import pytest

from mpnetlab.arrays import build_dictionary, doa_grid_ula, make_ula, perturb_array
from mpnetlab.channels import (
    ArrayEvent,
    ChannelStream,
    FixedSnr,
    ReplayStream,
    TruncatedGaussianSnr,
    dump_stream,
    load_stream,
)
from mpnetlab.config import ArraySpec, ExperimentConfig, SnrLossSpec, parse_estimator
from mpnetlab.estimators import StoppingRule
from mpnetlab.experiments import LearningRun, run_learning_experiment, snr_loss_experiment, train_online
from mpnetlab.metrics import snr_histogram
from mpnetlab.mpnet import MpNetModel, OnlineTrainer, TrainConfig

from reference import ref_snr_loss


def small_config(**overrides):
    base = dict(
        seed=5,
        array=ArraySpec(shape=(16,), gain_std=0.3, pos_std=0.1),
        n_atoms=64,
        snr=FixedSnr(10.0),
        training=TrainConfig(minibatch_size=50),
        estimators=("ls", "mp:nominal:sc2", "mpnet:nominal:sc2"),
        total_samples=500,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestParseEstimator:
    def test_valid_specs(self):
        assert parse_estimator("ls").family == "ls"
        spec = parse_estimator("mp:nominal:sc2")
        assert (spec.family, spec.source, spec.rule.kind) == ("mp", "nominal", "sc2")
        spec = parse_estimator("mpnet:xavier:fixed8")
        assert spec.rule == StoppingRule.fixed(8)
        assert parse_estimator("omp:oracle:sc1").source == "oracle"

    @pytest.mark.parametrize(
        "bad",
        ["", "mp", "mp:nominal", "mp:magic:sc2", "mpnet:ideal:sc2", "omp:nominal:sc3", "ls:extra:sc2", "mp:nominal:fixedX"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_estimator(bad)


class TestConfigValidation:
    def test_anomaly_beyond_stream_rejected(self):
        with pytest.raises(ValueError):
            small_config(anomalies=(ArrayEvent(index=500, kind="break", fraction=0.1),))

    def test_anomaly_past_the_last_whole_minibatch_rejected(self):
        # 520 samples make 10 minibatches of 50: samples 500-519 are never taken
        with pytest.raises(ValueError, match="anomaly at index 510 falls beyond the stream"):
            small_config(total_samples=520, anomalies=(ArrayEvent(index=510, kind="break", fraction=0.1),))

    def test_empty_roster_rejected(self):
        with pytest.raises(ValueError):
            small_config(estimators=())

    def test_duplicate_roster_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            small_config(estimators=("ls", "ls"))

    def test_snr_loss_only_config_allowed(self):
        cfg = ExperimentConfig(
            seed=1,
            array=ArraySpec(shape=(8,)),
            n_atoms=64,
            snr=FixedSnr(),
            training=TrainConfig(),
            snr_loss=SnrLossSpec(pos_stds=(0.0,), gain_stds=(0.0,)),
        )
        assert cfg.total_samples == 0

    def test_snr_loss_only_config_checks_its_roster(self):
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(
                seed=1,
                array=ArraySpec(shape=(8,)),
                n_atoms=64,
                snr=FixedSnr(),
                training=TrainConfig(),
                estimators=("mp:wrong:sc2",),
                snr_loss=SnrLossSpec(pos_stds=(0.0,), gain_stds=(0.0,)),
            )
        assert str(exc.value) == "estimator 'mp:wrong:sc2': dictionary must be nominal, ideal or oracle"


class TestLearningExperiment:
    def test_ls_only_curve_is_flat_at_minus_snr(self):
        cfg = small_config(estimators=("ls",), total_samples=2000, training=TrainConfig(minibatch_size=100))
        result = run_learning_experiment(cfg)
        curve = result.rmse_db("ls")
        assert len(curve) == 20
        assert abs(np.mean(curve) + 10.0) < 0.3
        assert np.std(curve) < 0.5
        assert np.all(result.mean_depth["ls"] == 0.0)

    def test_mpnet_first_minibatch_equals_mp(self):
        result = run_learning_experiment(small_config())
        mp_first = result.rmse_linear["mp:nominal:sc2"][0]
        net_first = result.rmse_linear["mpnet:nominal:sc2"][0]
        assert net_first == pytest.approx(mp_first, rel=1e-9)

    def test_every_estimator_sees_every_sample(self):
        result = run_learning_experiment(small_config())
        for name in result.estimator_names:
            assert result.depth_counts[name].sum() == 500
        assert result.snr_counts.sum() == 500

    def test_break_event_hits_dictionary_estimators_not_ls(self):
        cfg = small_config(
            estimators=("ls", "mp:nominal:sc2"),
            total_samples=2000,
            training=TrainConfig(minibatch_size=100),
            anomalies=(ArrayEvent(index=1000, kind="break", fraction=0.3),),
        )
        result = run_learning_experiment(cfg)
        mp_db = result.rmse_db("mp:nominal:sc2")
        ls_db = result.rmse_db("ls")
        assert mp_db[10:].mean() > mp_db[:10].mean() + 1.0
        assert abs(ls_db[10:].mean() - ls_db[:10].mean()) < 0.5

    def test_oracle_tracks_break_event(self):
        cfg = small_config(
            estimators=("omp:ideal:sc2", "omp:oracle:sc2"),
            total_samples=2000,
            training=TrainConfig(minibatch_size=100),
            anomalies=(ArrayEvent(index=1000, kind="break", fraction=0.3),),
        )
        result = run_learning_experiment(cfg)
        ideal = result.rmse_db("omp:ideal:sc2")
        oracle = result.rmse_db("omp:oracle:sc2")
        # identical before the event, oracle clearly better afterwards
        assert np.allclose(ideal[:10], oracle[:10])
        assert oracle[11:].mean() < ideal[11:].mean() - 1.0

    def test_outputs_written_atomically(self, tmp_path):
        cfg = small_config(dump_stream=True)
        result = run_learning_experiment(cfg, tmp_path)
        for key in ("curves", "depth_hist", "snr_hist", "stream", "checkpoint_mpnet_nominal_sc2"):
            assert result.output_files[key].exists()
        header = result.output_files["curves"].read_text().splitlines()[0]
        assert header.startswith("minibatch,")
        assert "mpnet_nominal_sc2_rmse_db" in header
        assert "mpnet_nominal_sc2_mean_depth" in header
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert leftovers == []

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_config()
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_learning_experiment(cfg, a)
        run_learning_experiment(cfg, b)
        assert (a / "curves.csv").read_bytes() == (b / "curves.csv").read_bytes()
        assert (a / "depth_hist.csv").read_bytes() == (b / "depth_hist.csv").read_bytes()
        assert (a / "snr_hist.csv").read_bytes() == (b / "snr_hist.csv").read_bytes()

    def test_replay_reproduces_curves(self, tmp_path):
        cfg = small_config(dump_stream=True)
        first = tmp_path / "first"
        result = run_learning_experiment(cfg, first)
        from dataclasses import replace

        replay_cfg = replace(cfg, dump_stream=False, replay_stream=str(result.output_files["stream"]))
        second = tmp_path / "second"
        run_learning_experiment(replay_cfg, second)
        assert (first / "curves.csv").read_bytes() == (second / "curves.csv").read_bytes()

    def test_replay_rejects_oracle_roster(self, tmp_path):
        cfg = small_config(dump_stream=True)
        result = run_learning_experiment(cfg, tmp_path)
        from dataclasses import replace

        with pytest.raises(ValueError):  # the config is rejected when it is built
            replace(cfg, estimators=("omp:oracle:sc2",), replay_stream=str(result.output_files["stream"]))

    def test_varying_snr_histogram_respects_floor(self):
        cfg = small_config(
            snr=TruncatedGaussianSnr(mean_db=10.0, std_db=4.0, floor_db=1.0),
            estimators=("ls",),
        )
        result = run_learning_experiment(cfg)
        assert result.snr_edges[0] >= 1.0
        assert result.snr_counts.sum() == 500

    def test_upa_geometry_smoke(self):
        cfg = small_config(
            array=ArraySpec(shape=(4, 4), gain_std=0.15, pos_std=0.05),
            estimators=("ls", "omp:ideal:sc2", "mpnet:nominal:sc2"),
            total_samples=400,
            training=TrainConfig(minibatch_size=100),
        )
        result = run_learning_experiment(cfg)
        assert len(result.records) == 4
        assert np.isfinite(result.rmse_db("mpnet:nominal:sc2")).all()

    def test_nominal_mp_curve_is_time_invariant(self):
        cfg = small_config(estimators=("mp:nominal:sc2",), total_samples=3000, training=TrainConfig(minibatch_size=100))
        result = run_learning_experiment(cfg)
        curve = result.rmse_db("mp:nominal:sc2")
        # no learning: halves differ only by sampling noise
        assert abs(curve[:15].mean() - curve[15:].mean()) < 0.5


class TestDepthDistributions:
    def test_sc1_mode_below_sc2_mode_on_matched_dictionary(self):
        # once the dictionary matches the hardware, the stricter threshold (sc1)
        # settles on visibly shallower depths than sc2
        from mpnetlab.arrays import build_dictionary, doa_grid_ula, make_ula, perturb_array
        from mpnetlab.channels import ChannelStream
        from mpnetlab.estimators import matching_pursuit
        from mpnetlab.metrics import depth_histogram

        rng = np.random.default_rng(12)
        true = perturb_array(make_ula(64), 0.3, 0.1, rng)
        matched = build_dictionary(true, doa_grid_ula(512))
        stream = ChannelStream(FixedSnr(10.0), true, rng)
        sc1_depths, sc2_depths = [], []
        for sample in stream.take(1000):
            sc1_depths.append(matching_pursuit(matched, sample.observation, StoppingRule.sc1(), sample.noise_var).depth)
            sc2_depths.append(matching_pursuit(matched, sample.observation, StoppingRule.sc2(), sample.noise_var).depth)
        h1 = depth_histogram(sc1_depths)
        h2 = depth_histogram(sc2_depths)
        assert h1.argmax() < h2.argmax()
        assert h1.sum() == h2.sum() == 1000


class TestSnrLossExperiment:
    def _config(self, pos, gain, arrays=2, channels=50, n=32, atoms=32 * 32, snr_db=10.0):
        return ExperimentConfig(
            seed=3,
            array=ArraySpec(shape=(n,)),
            n_atoms=atoms if atoms is not None else 32 * n,
            snr=FixedSnr(snr_db),
            training=TrainConfig(),
            snr_loss=SnrLossSpec(
                pos_stds=tuple(pos),
                gain_stds=tuple(gain),
                n_arrays=arrays,
                channels_per_array=channels,
            ),
        )

    # the sweep shares each position draw's response across its gain cells and
    # builds a cell's channels as one matrix; the per-cell loop must give its bits
    @pytest.mark.parametrize("n, atoms, arrays, channels", [(16, 128, 2, 20), (64, None, 1, 10)])
    def test_matches_the_per_cell_loop(self, n, atoms, arrays, channels):
        cfg = self._config([0.0, 0.05, 0.1], [0.0, 0.1, 0.3], arrays=arrays, channels=channels, n=n, atoms=atoms)
        assert np.array_equal(snr_loss_experiment(cfg)[2], ref_snr_loss(cfg))

    def test_noiseless_sweep_is_finite(self):
        cfg = self._config([0.0, 0.05], [0.0, 0.1], arrays=2, channels=20, n=16, atoms=128, snr_db=math.inf)
        loss = snr_loss_experiment(cfg)[2]
        assert np.all(np.isfinite(loss))
        assert loss[0, 0] == 0.0
        assert np.array_equal(loss, ref_snr_loss(cfg))

    def test_zero_cell_is_exactly_zero(self):
        cfg = self._config([0.0], [0.0])
        _, _, loss = snr_loss_experiment(cfg)
        assert loss[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_loss_grows_with_uncertainty(self):
        cfg = self._config([0.0, 0.1], [0.0, 0.3])
        pos, gain, loss = snr_loss_experiment(cfg)
        # paired noise draws make the sweep monotone along each axis
        assert loss[0, 1] > loss[0, 0]
        assert loss[1, 0] > loss[0, 0]
        assert loss[1, 1] > max(loss[0, 1], loss[1, 0]) - 0.5

    def test_deterministic_and_written(self, tmp_path):
        cfg = self._config([0.0, 0.05], [0.0, 0.1])
        a = snr_loss_experiment(cfg, tmp_path)[2]
        b = snr_loss_experiment(cfg)[2]
        assert np.array_equal(a, b)
        text = (tmp_path / "snr_loss.csv").read_text().splitlines()
        assert text[0] == "pos_std,gain_std,loss_db"
        assert len(text) == 5

    def test_requires_ula(self):
        # checked when the config is built, before any run can start
        with pytest.raises(ValueError, match="^the SNR-loss sweep is defined for linear arrays$"):
            ExperimentConfig(
                seed=3,
                array=ArraySpec(shape=(4, 4)),
                n_atoms=64,
                snr=FixedSnr(),
                training=TrainConfig(),
                snr_loss=SnrLossSpec(pos_stds=(0.0,), gain_stds=(0.0,)),
            )


class TestRunRecords:
    def test_records_equal_train_online_on_the_dumped_stream(self, tmp_path):
        cfg = small_config(snr=TruncatedGaussianSnr(mean_db=10.0, std_db=4.0, floor_db=1.0), dump_stream=True)
        result = run_learning_experiment(cfg, tmp_path)
        samples = load_stream(result.output_files["stream"])
        nominal = build_dictionary(cfg.array.build_nominal(), cfg.array.doa_grid(cfg.n_atoms))
        replay = ReplayStream(result.output_files["stream"])
        expected = train_online(MpNetModel.from_dictionary(nominal, StoppingRule.sc2()), replay, cfg.total_samples, cfg.training)
        assert [list(record) for record in result.records] == [list(cfg.estimators)] * 10
        assert len(expected) == 10
        for record, other in zip(result.records, expected):
            got = record["mpnet:nominal:sc2"]
            assert (got.minibatch, got.mean_cost, got.mean_rmse, got.mean_depth) == (other.minibatch, other.mean_cost, other.mean_rmse, other.mean_depth)
            assert np.array_equal(got.depth_counts, other.depth_counts)
            assert math.isfinite(got.mean_cost)
            assert math.isnan(record["ls"].mean_cost) and math.isnan(record["mp:nominal:sc2"].mean_cost)
        edges, counts = snr_histogram([s.snr_db for s in samples])
        assert len(counts) > 1
        assert np.array_equal(result.snr_edges, edges) and np.array_equal(result.snr_counts, counts)


class TestLearningRun:
    """A run stepped across a minibatch boundary goes on as if it never stopped."""

    ROSTER = ("ls", "omp:oracle:sc2", "mpnet:nominal:sc2")

    def _run(self):
        nominal = make_ula(16)
        true = perturb_array(nominal, 0.3, 0.1, np.random.default_rng(1))
        directions = doa_grid_ula(64)
        dictionaries = {"nominal": build_dictionary(nominal, directions), "ideal": build_dictionary(true, directions)}
        model = MpNetModel.from_dictionary(dictionaries["nominal"], StoppingRule.sc2())
        trainers = {"mpnet:nominal:sc2": OnlineTrainer(model, TrainConfig(minibatch_size=50), name="mpnet:nominal:sc2")}
        snr = TruncatedGaussianSnr(mean_db=10.0, std_db=4.0, floor_db=1.0)
        stream = ChannelStream(snr, true, np.random.default_rng(2), (ArrayEvent(index=225, kind="break", fraction=0.3),))
        run = LearningRun(stream, [parse_estimator(s) for s in self.ROSTER], trainers, dictionaries, 10, 50)
        run.dump = io.BytesIO()
        return run

    @staticmethod
    def _fields(records):
        return [[(name, r.minibatch, repr(r.mean_cost), r.mean_rmse, r.mean_depth, r.depth_counts.tolist()) for name, r in record.items()] for record in records]

    def test_three_then_seven_equals_ten(self):
        whole, split = self._run(), self._run()
        records = [whole.step() for _ in range(10)]
        first = [split.step() for _ in range(3)]
        assert split.taken == 3
        rest = [split.step() for _ in range(7)]
        assert len(first) + len(rest) == 10 == split.taken
        assert self._fields(first + rest) == self._fields(records)
        assert [list(record) for record in records] == [list(self.ROSTER)] * 10
        assert np.array_equal(split.trainers["mpnet:nominal:sc2"].model.weights, whole.trainers["mpnet:nominal:sc2"].model.weights)
        assert (split.snr_floors, split.snr_top) == (whole.snr_floors, whole.snr_top)
        assert split.dump.getvalue() == whole.dump.getvalue()
        # the break at sample 225 replaced the array, and the oracle dictionary followed it
        assert split.oracle_array is split.stream.current_array
        assert not np.array_equal(split.dictionaries["oracle"].atoms, split.dictionaries["ideal"].atoms)


class TestInfiniteSnr:
    def test_live_run_rejects_a_noiseless_fixed_snr_before_any_output(self, tmp_path, monkeypatch):
        import mpnetlab.experiments as experiments

        monkeypatch.setattr(experiments, "score_minibatch", lambda *args: pytest.fail("a minibatch ran"))
        with pytest.raises(ValueError) as exc:  # the config is rejected when it is built
            small_config(snr=FixedSnr(math.inf), dump_stream=True)
        assert str(exc.value) == "snr.value_db must be finite in a learning run (the SNR histogram has no bin for inf, and a replay rejects it)"
        assert not (tmp_path / "out").exists()

    def test_train_online_rejects_a_noiseless_stream_before_its_first_step(self):
        stream = ChannelStream(FixedSnr(math.inf), make_ula(16), np.random.default_rng(5))
        model = MpNetModel.from_dictionary(build_dictionary(make_ula(16), doa_grid_ula(64)), StoppingRule.sc2())
        weights = model.weights.copy()
        with pytest.raises(ValueError) as exc:
            train_online(model, stream, 200, TrainConfig(minibatch_size=100))
        assert str(exc.value) == "snr.value_db must be finite in a learning run (the SNR histogram has no bin for inf, and a replay rejects it)"
        assert np.array_equal(model.weights, weights)


class TestShortReplay:
    def test_rejected_before_any_roster_entry_runs(self, tmp_path, monkeypatch):
        from dataclasses import replace

        import mpnetlab.experiments as experiments

        cfg = small_config(dump_stream=True)
        stream = run_learning_experiment(cfg, tmp_path / "live").output_files["stream"]
        scored = []
        original = experiments.score_minibatch
        monkeypatch.setattr(experiments, "score_minibatch", lambda *args: scored.append(args) or original(*args))
        longer = replace(cfg, dump_stream=False, replay_stream=str(stream), total_samples=560)
        with pytest.raises(ValueError) as exc:
            run_learning_experiment(longer, tmp_path / "replay")
        assert str(exc.value) == f"replay file {stream} holds 500 samples; the run needs 550 (11 minibatches of 50)"
        assert scored == []
        assert not (tmp_path / "replay").exists()

    def test_train_online_rejects_before_its_first_step(self, tmp_path):
        stream = tmp_path / "stream.csv"
        dump_stream(ChannelStream(FixedSnr(10.0), make_ula(16), np.random.default_rng(5)).take(250), stream)
        model = MpNetModel.from_dictionary(build_dictionary(make_ula(16), doa_grid_ula(64)), StoppingRule.sc2())
        weights = model.weights.copy()
        with pytest.raises(ValueError) as exc:
            train_online(model, ReplayStream(stream), 400, TrainConfig(minibatch_size=100))
        assert str(exc.value) == f"replay file {stream} holds 250 samples; the run needs 400 (4 minibatches of 100)"
        assert np.array_equal(model.weights, weights)

    def test_train_online_without_a_whole_minibatch_fails_as_a_run_does(self, monkeypatch):
        import mpnetlab.experiments as experiments

        monkeypatch.setattr(experiments, "score_minibatch", lambda *args: pytest.fail("a minibatch ran"))
        stream = ChannelStream(FixedSnr(10.0), make_ula(16), np.random.default_rng(5))
        model = MpNetModel.from_dictionary(build_dictionary(make_ula(16), doa_grid_ula(64)), StoppingRule.sc2())
        weights = model.weights.copy()
        with pytest.raises(ValueError) as exc:
            train_online(model, stream, 30, TrainConfig(minibatch_size=50))
        assert str(exc.value) == "total_samples is smaller than one minibatch"
        assert np.array_equal(model.weights, weights)
        with pytest.raises(ValueError) as exc:
            run_learning_experiment(small_config(total_samples=30))
        assert str(exc.value) == "total_samples is smaller than one minibatch"

    def test_trailing_partial_minibatch_is_not_needed(self, tmp_path):
        from dataclasses import replace

        cfg = small_config(dump_stream=True)
        live = tmp_path / "live"
        stream = run_learning_experiment(cfg, live).output_files["stream"]
        replay = replace(cfg, dump_stream=False, replay_stream=str(stream), total_samples=520)
        run_learning_experiment(replay, tmp_path / "replay")
        assert (tmp_path / "replay" / "curves.csv").read_bytes() == (live / "curves.csv").read_bytes()


class TestArtifactSet:
    """A run's curves, histograms and checkpoints appear together or not at all."""

    def test_failed_last_checkpoint_leaves_no_artifact_or_temp_file(self, tmp_path, monkeypatch):
        import mpnetlab.experiments as experiments

        original = experiments.save_checkpoint

        def save(path, *args):
            if path.name == "checkpoint_mpnet_nominal_fixed3.npz":  # the roster's last entry
                raise OSError("no space left")
            original(path, *args)

        monkeypatch.setattr(experiments, "save_checkpoint", save)
        out = tmp_path / "out"
        cfg = small_config(dump_stream=True, estimators=("ls", "mpnet:nominal:sc2", "mpnet:nominal:fixed3"))
        with pytest.raises(OSError, match="no space left"):
            run_learning_experiment(cfg, out)
        assert list(out.rglob("*")) == []

    def test_failed_move_takes_back_the_moved_files(self, tmp_path):
        out = tmp_path / "out"
        (out / "snr_hist.csv").mkdir(parents=True)  # the last file to move in, by name
        with pytest.raises(OSError):
            run_learning_experiment(small_config(dump_stream=True), out)
        assert [p.name for p in out.rglob("*")] == ["snr_hist.csv"]

    def test_blocked_stream_file_takes_back_every_artifact(self, tmp_path):
        out = tmp_path / "out"
        (out / "stream.csv").mkdir(parents=True)  # the stream is staged with the rest
        with pytest.raises(OSError):
            run_learning_experiment(small_config(dump_stream=True), out)
        assert [p.name for p in out.rglob("*")] == ["stream.csv"]


class TestSingleFile:
    """A lone file lands through a stage of its own: a write that fails midway
    leaves the file it would replace as it was, and nothing beside it."""

    def test_failed_dump_leaves_the_old_stream(self, tmp_path, monkeypatch):
        import mpnetlab.channels as channels

        stream = ChannelStream(FixedSnr(10.0), make_ula(8), np.random.default_rng(5))
        path = tmp_path / "stream.csv"
        dump_stream(stream.take(4), path)
        old = path.read_bytes()
        rows = channels.stream_rows

        def failing(start, batch):  # two rows reach the file, then the write fails
            yield from list(rows(start, batch))[:2]
            raise OSError("no space left")

        monkeypatch.setattr(channels, "stream_rows", failing)
        with pytest.raises(OSError, match="no space left"):
            dump_stream(stream.take(4), path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["stream.csv"]

    def test_failed_checkpoint_leaves_the_old_file(self, tmp_path, monkeypatch):
        from mpnetlab.mpnet import save_checkpoint

        model = MpNetModel.from_dictionary(build_dictionary(make_ula(8), doa_grid_ula(16)), StoppingRule.sc2())
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        old = path.read_bytes()
        savez = np.savez

        def failing(file, **arrays):  # the whole archive reaches the file, then the write fails
            savez(file, **arrays)
            raise OSError("no space left")

        monkeypatch.setattr(np, "savez", failing)
        model.weights = 2.0 * model.weights
        with pytest.raises(OSError, match="no space left"):
            save_checkpoint(path, model)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]


class TestStreamedStreamFile:
    """The stream file is written and read a minibatch at a time."""

    def _live(self, tmp_path, **overrides):
        cfg = small_config(dump_stream=True, **overrides)
        return cfg, run_learning_experiment(cfg, tmp_path / "live").output_files["stream"]

    def test_corrupt_row_fails_when_its_minibatch_is_reached(self, tmp_path, monkeypatch):
        from dataclasses import replace

        import mpnetlab.experiments as experiments

        cfg, stream = self._live(tmp_path)
        lines = stream.read_text().splitlines()
        lines[259] = lines[259].replace(",", ",nan,", 1)  # line 260 holds sample 258, in minibatch 6
        stream.write_text("\n".join(lines) + "\n")
        scored = []
        original = experiments.score_minibatch
        monkeypatch.setattr(experiments, "score_minibatch", lambda *args: scored.append(args[0]) or original(*args))
        out = tmp_path / "replay"
        with pytest.raises(ValueError) as exc:
            run_learning_experiment(replace(cfg, dump_stream=False, replay_stream=str(stream)), out)
        assert str(exc.value) == f"{stream}: line 260: malformed row with 68 fields"
        assert max(scored) == 5  # the five minibatches before it ran
        assert not out.exists()

    def test_failed_dump_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import mpnetlab.experiments as experiments

        original = experiments.score_minibatch

        def score(minibatch, *args):
            if minibatch == 3:
                raise RuntimeError("minibatch 3 fails")
            return original(minibatch, *args)

        monkeypatch.setattr(experiments, "score_minibatch", score)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="minibatch 3 fails"):
            run_learning_experiment(small_config(dump_stream=True), out)
        assert [p.name for p in out.glob("*")] == []

    def test_stream_is_not_formatted_without_an_output_directory(self, monkeypatch):
        import mpnetlab.experiments as experiments

        monkeypatch.setattr(experiments, "stream_rows", lambda *args: pytest.fail("formatted a stream nobody writes"))
        result = run_learning_experiment(small_config(dump_stream=True))
        assert "stream" not in result.output_files

    def test_antenna_count_mismatch_rejected_before_the_first_minibatch(self, tmp_path, monkeypatch):
        from dataclasses import replace

        import mpnetlab.experiments as experiments

        cfg, stream = self._live(tmp_path)
        monkeypatch.setattr(experiments, "score_minibatch", lambda *args: pytest.fail("a minibatch ran"))
        smaller = replace(cfg, array=ArraySpec(shape=(8,)), estimators=("ls",), dump_stream=False, replay_stream=str(stream))
        with pytest.raises(ValueError) as exc:
            run_learning_experiment(smaller, tmp_path / "replay")
        assert str(exc.value) == f"replay file {stream} holds 16-antenna samples; the array has 8"

    def test_peak_memory_does_not_grow_with_the_stream(self, tmp_path):
        # tracemalloc peaks of an LS-only dump and replay (N=16, minibatches of
        # 50): 0.32 MB and 0.18 MB at 400 samples, growing by 0.02 MB and
        # 0.05 MB at 1600. Holding the whole stream, as rows or as samples,
        # grows them by 11 MB and 3 MB.
        import tracemalloc
        from dataclasses import replace

        def peaks(total):
            cfg = small_config(estimators=("ls",), total_samples=total, dump_stream=True)
            live, replay = tmp_path / f"live{total}", tmp_path / f"replay{total}"
            out = []
            for run_cfg, run_dir in ((cfg, live), (replace(cfg, dump_stream=False, replay_stream=str(live / "stream.csv")), replay)):
                tracemalloc.start()
                try:
                    run_learning_experiment(run_cfg, run_dir)
                    out.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return out

        peaks(400)  # warm caches outside the measurement
        short, long = peaks(400), peaks(1600)
        assert all(b - a < 256 * 1024 for a, b in zip(short, long)), (short, long)


class TestOracleRefresh:
    """The oracle dictionary is rebuilt from the stream's true array at
    minibatch granularity, and only when an anomaly has replaced the array."""

    EVENTS = (
        ArrayEvent(250, "break", fraction=0.3),  # in minibatch 3
        ArrayEvent(610, "age", gain_std=0.1),  # both in minibatch 7
        ArrayEvent(650, "age", gain_std=0.1),
    )

    def _builds(self, monkeypatch, estimators):
        """Each dictionary build's array, and how many minibatches had been
        scored when it ran."""
        import mpnetlab.experiments as experiments

        scored, built = [0], []
        original_score, original_build = experiments.score_minibatch, experiments.build_dictionary
        monkeypatch.setattr(experiments, "score_minibatch", lambda *args: scored.append(args[0]) or original_score(*args))
        monkeypatch.setattr(experiments, "build_dictionary", lambda *args: built.append((max(scored), args[0])) or original_build(*args))
        cfg = small_config(estimators=estimators, total_samples=800, training=TrainConfig(minibatch_size=100), anomalies=self.EVENTS)
        run_learning_experiment(cfg)
        return built

    def test_rebuilt_in_the_minibatches_that_change_the_array(self, monkeypatch):
        built = self._builds(monkeypatch, ("omp:oracle:sc2",))
        # nominal and ideal before the run (the oracle starts as the ideal one), then minibatches 3 and 7
        assert [before for before, _ in built] == [0, 0, 2, 6]
        broken, aged = (array for _, array in built[2:])
        assert np.count_nonzero(broken.gains == 0) == 5  # round(0.3 * 16)
        assert np.count_nonzero(aged.gains == 0) == 0

    def test_shares_the_ideal_pass_until_the_array_changes(self, monkeypatch):
        from dataclasses import replace

        import mpnetlab.experiments as experiments

        calls, original = [], experiments.pursuit_batch
        monkeypatch.setattr(experiments, "pursuit_batch", lambda *args, **kwargs: calls.append(args[0]) or original(*args, **kwargs))
        roster = ("omp:ideal:sc2", "omp:oracle:sc2", "mp:ideal:sc2", "omp:oracle:sc1")
        cfg = small_config(estimators=roster, total_samples=800, training=TrainConfig(minibatch_size=100), anomalies=self.EVENTS)
        result = run_learning_experiment(cfg)
        # one OMP sc2 pass for the ideal and oracle entries in minibatches 1-2; two from the break in minibatch 3 on
        assert len(calls) == 2 * 3 + 6 * 4
        ideal, oracle = result.rmse_linear["omp:ideal:sc2"], result.rmse_linear["omp:oracle:sc2"]
        assert np.array_equal(ideal[:2], oracle[:2])
        assert not np.any(ideal[2:] == oracle[2:])
        alone = run_learning_experiment(replace(cfg, estimators=("omp:oracle:sc2",)))
        assert np.array_equal(alone.rmse_linear["omp:oracle:sc2"], oracle)

    def test_not_built_without_an_oracle_entry(self, monkeypatch):
        assert [before for before, _ in self._builds(monkeypatch, ("ls", "omp:ideal:sc2"))] == [0, 0]

    def test_replay_with_an_oracle_entry_fails_before_the_first_minibatch(self, tmp_path, monkeypatch):
        from dataclasses import replace

        import mpnetlab.experiments as experiments

        cfg = small_config(estimators=("ls",), dump_stream=True)
        stream = run_learning_experiment(cfg, tmp_path / "live").output_files["stream"]
        monkeypatch.setattr(experiments, "score_minibatch", lambda *args: pytest.fail("a minibatch ran"))
        with pytest.raises(ValueError) as exc:  # the config is rejected when it is built
            replace(cfg, estimators=("ls", "omp:oracle:sc2"), dump_stream=False, replay_stream=str(stream))
        assert str(exc.value) == "oracle estimators need a live stream (not a replay)"
        assert not (tmp_path / "replay").exists()
