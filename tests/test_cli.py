import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpnetlab import mpnet
from mpnetlab.cli import main


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


SMALL = """
seed: 11
total_samples: 300
array: {geometry: ula, n: 8, gain_std: 0.2, pos_std: 0.05}
dictionary: {atoms: 32}
snr: {model: fixed, value_db: 10.0}
training: {minibatch_size: 100}
estimators: [ls, mpnet:nominal:sc2]
stream: {dump: true}
"""


class TestUsageErrors:
    def test_no_arguments_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        # the config names the experiment: a subcommand word is a stray argument
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", "x.yaml"])
        assert exc.value.code == 2

    def test_missing_config_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["--out", "x"])
        assert exc.value.code == 2

    def test_missing_out_flag_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["--config", "x.yaml", "--frobnicate"])
        assert exc.value.code == 2


class TestConfigErrors:
    def test_nonexistent_config_exits_1(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_key_named_in_diagnostic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL + "\nbogus_key: 1\n")
        code = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("text, flags", [(SMALL, ["--seed", "-1"]), (SMALL.replace("seed: 11", "seed: -1"), [])], ids=["--seed", "config"])
    def test_negative_seed_exits_1_before_the_output_dir(self, tmp_path, capsys, text, flags):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == "config error: seed must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (SMALL.replace("total_samples: 300", "total_samples: 50"), "total_samples is smaller than one minibatch"),
            ("seed: 1\narray: {geometry: upa, nx: 4, nz: 4}\nsnr_loss: {pos_stds: [0.0], gain_stds: [0.0]}\n", "the SNR-loss sweep is defined for linear arrays"),
            (
                "seed: 1\narray: {n: 16, gain_std: 0.3}\ntraining: {minibatch_size: 7}\nsnr_loss: {pos_stds: [0.0], gain_stds: [0.0]}\n",
                "the SNR-loss sweep reads its uncertainty from snr_loss.pos_stds and snr_loss.gain_stds and trains nothing: "
                "it takes no array.gain_std, array.pos_std or training settings",
            ),
            (
                SMALL.replace("value_db: 10.0", "value_db: .inf"),
                "snr.value_db must be finite in a learning run (the SNR histogram has no bin for inf, and a replay rejects it)",
            ),
            (SMALL.replace("minibatch_size: 100", "minibatch_size: 100, base_rate: .inf"), "'training.base_rate' must be > 0 and finite"),
            (SMALL.replace("value_db: 10.0", "value_db: 3100"), "snr: value_db must give a positive, finite linear SNR"),
            (SMALL.replace("gain_std: 0.2", "gain_std: .inf"), "array: uncertainty standard deviations must be finite and nonnegative"),
            (
                SMALL.replace("mpnet:nominal:sc2]", "omp:oracle:sc2]").replace("stream: {dump: true}", "stream: {replay: stream.csv}"),
                "oracle estimators need a live stream (not a replay)",
            ),
        ],
        ids=[
            "short learning run",
            "planar sweep",
            "sweep with unread settings",
            "noiseless live run",
            "infinite learning rate",
            "SNR past the float range",
            "infinite gain uncertainty",
            "replay with an oracle entry",
        ],
    )
    def test_run_that_cannot_succeed_exits_1_before_the_output_dir(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestRuns:
    def test_train_writes_all_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 0
        for name in ("curves.csv", "depth_hist.csv", "snr_hist.csv", "stream.csv", "checkpoint_mpnet_nominal_sc2.npz"):
            assert (out / name).exists(), name

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
        assert main(["--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
        assert main(["--config", str(cfg), "--out", str(out2), "--quiet", "--seed", "12"]) == 0
        assert main(["--config", str(cfg), "--out", str(out3), "--quiet", "--seed", "12"]) == 0
        assert (out1 / "curves.csv").read_bytes() != (out2 / "curves.csv").read_bytes()
        assert (out2 / "curves.csv").read_bytes() == (out3 / "curves.csv").read_bytes()

    def test_snr_loss_subcommand(self, tmp_path):
        cfg = write_config(
            tmp_path,
            """
seed: 2
array: {geometry: ula, n: 16}
dictionary: {atoms: 256}
snr_loss:
  pos_stds: [0.0, 0.03]
  gain_stds: [0.0, 0.09]
  n_arrays: 2
  channels_per_array: 30
""",
        )
        out = tmp_path / "loss"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        lines = (out / "snr_loss.csv").read_text().splitlines()
        assert lines[0] == "pos_std,gain_std,loss_db"
        assert len(lines) == 5

    def test_replay_reproduces_curves_byte_for_byte(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        first = tmp_path / "first"
        assert main(["--config", str(cfg), "--out", str(first), "--quiet"]) == 0
        replay_cfg = write_config(
            tmp_path,
            SMALL.replace("stream: {dump: true}", f"stream: {{replay: '{first / 'stream.csv'}'}}"),
            name="replay.yaml",
        )
        second = tmp_path / "second"
        assert main(["--config", str(replay_cfg), "--out", str(second), "--quiet"]) == 0
        assert (first / "curves.csv").read_bytes() == (second / "curves.csv").read_bytes()

    def test_unwritable_output_dir_fails_before_compute(self, tmp_path, capsys):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory permissions")
        cfg = write_config(tmp_path, SMALL)
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
        try:
            assert main(["--config", str(cfg), "--out", str(locked / "out")]) == 1
        finally:
            locked.chmod(stat.S_IRWXU)

    def test_output_path_collides_with_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert main(["--config", str(cfg), "--out", str(blocker)]) == 1
        assert "not writable" in capsys.readouterr().err
        assert blocker.read_text() == "a file, not a directory"

    def test_blocked_checkpoint_exits_1_without_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        (out / "checkpoint_mpnet_nominal_sc2.npz").mkdir(parents=True)
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        assert "error:" in capsys.readouterr().err
        assert [p.name for p in out.rglob("*")] == ["checkpoint_mpnet_nominal_sc2.npz"]

    def test_blocked_stream_file_exits_1_without_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        (out / "stream.csv").mkdir(parents=True)
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        assert "error:" in capsys.readouterr().err
        assert [p.name for p in out.rglob("*")] == ["stream.csv"]

    def test_verbose_logs_each_minibatch_as_in_the_curves(self, tmp_path, capsys):
        config = Path(__file__).parent.parent / "configs" / "smoke.yaml"
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "-v"]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("minibatch ")]
        rows = [line.split(",") for line in (out / "curves.csv").read_text().splitlines()]
        names = [column[: -len("_rmse_db")].replace("_", ":") for column in rows[0] if column.endswith("_rmse_db")]
        assert names == ["ls", "mp:nominal:sc2", "mpnet:nominal:sc2"]
        assert len(lines) == len(rows) - 1 == 20
        for k, (line, row) in enumerate(zip(lines, rows[1:]), 1):
            expected = " ".join(f"{name}={float(row[1 + 2 * i]):.2f}dB" for i, name in enumerate(names))
            assert line == f"minibatch {k}: {expected}"

    def test_anomaly_subcommand(self, tmp_path):
        cfg = write_config(
            tmp_path,
            SMALL.replace("stream: {dump: true}", "anomalies: [{kind: break, index: 200, fraction: 0.25}]"),
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert (out / "curves.csv").exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        env = dict(os.environ)
        result = subprocess.run(
            [sys.executable, "-m", "mpnetlab", "--config", str(cfg), "--out", str(out), "--quiet"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == ""  # data goes to files, logs to stderr
        assert (out / "curves.csv").exists()

    def test_usage_error_exit_code_via_process(self):
        result = subprocess.run(
            [sys.executable, "-m", "mpnetlab"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert "usage" in result.stderr.lower()


class TestDivergence:
    def test_nan_gradient_exits_1_without_artifacts(self, tmp_path, capsys, monkeypatch):
        original = mpnet.adam_step
        monkeypatch.setattr(mpnet, "adam_step", lambda state, w, grad: original(state, w, grad * np.nan))
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "mpnet:nominal:sc2: non-finite weights" in err and "minibatch 1" in err
        assert list(out.iterdir()) == []

    # the aged gains overflow the channel energies; numpy warns and goes on, as on the command line
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_rmse_exits_1_without_artifacts(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            """
seed: 11
total_samples: 400
array: {geometry: ula, n: 16}
snr: {model: fixed, value_db: 10.0}
training: {minibatch_size: 100}
estimators: [ls, "omp:nominal:sc2"]
anomalies: [{kind: age, index: 200, gain_std: 1.0e+154}]
""",
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        assert "error: non-finite rMSE: nan" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestInfiniteSnr:
    def test_noiseless_fixed_snr_exits_1_without_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL.replace("value_db: 10.0", "value_db: .inf"))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 1
        assert "snr.value_db must be finite" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []
