"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line with the measured values (run with ``pytest -s`` to see them live).

Every run in here is seeded, so results are reproducible bit for bit.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from mpnetlab.arrays import build_dictionary, doa_grid_ula, make_ula, perturb_array
from mpnetlab.channels import ArrayEvent, FixedSnr, generate_channel, observe
from mpnetlab.cli import main as cli_main
from mpnetlab.config import ArraySpec, ExperimentConfig, SnrLossSpec
from mpnetlab.estimators import StoppingRule, ls_estimate, matching_pursuit, omp
from mpnetlab.experiments import run_learning_experiment, snr_loss_experiment
from mpnetlab.metrics import rmse, snr_out
from mpnetlab.mpnet import MpNetModel, TrainConfig, backward, estimate, forward
from mpnetlab.utils import energy, to_db

from reference import numerical_gradient, selection_margin

SEED = 20260811
CONFIG_DIR = Path(__file__).parent.parent / "configs"


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def random_unit_atoms(rng, n, a):
    atoms = rng.standard_normal((n, a)) + 1j * rng.standard_normal((n, a))
    return atoms / np.linalg.norm(atoms, axis=0, keepdims=True)


@pytest.fixture(scope="module")
def learning_run():
    """Shared desk-scale run for criteria 4 and 5 (fixed SNR 10 dB, large
    uncertainty, 40k samples)."""
    cfg = ExperimentConfig(
        seed=SEED,
        array=ArraySpec(shape=(64,), gain_std=0.3, pos_std=0.1),
        n_atoms=512,
        snr=FixedSnr(10.0),
        training=TrainConfig(minibatch_size=200),
        estimators=("mp:nominal:sc2", "omp:ideal:sc2", "mpnet:nominal:sc2", "mpnet:xavier:sc2"),
        total_samples=40_000,
    )
    start = time.monotonic()
    result = run_learning_experiment(cfg)
    return result, time.monotonic() - start


def final_mean_db(result, name, window=20):
    return to_db(result.rmse_linear[name][-window:].mean())


def test_criterion_01_snr_loss_reproduction():
    # single-path channels, N=64, A=32N, SNR 10 dB, 5 arrays x 200 channels/cell
    cfg = ExperimentConfig(
        seed=SEED,
        array=ArraySpec(shape=(64,)),
        n_atoms=2048,
        snr=FixedSnr(),
        training=TrainConfig(),
        snr_loss=SnrLossSpec(
            pos_stds=(0.0, 0.03),
            gain_stds=(0.0, 0.09),
            n_arrays=5,
            channels_per_array=200,
        ),
    )
    start = time.monotonic()
    _, _, loss_db = snr_loss_experiment(cfg)
    elapsed = time.monotonic() - start
    zero_cell = loss_db[0, 0]
    hot_cell = loss_db[1, 1]
    ok = hot_cell >= 8.0 and abs(zero_cell) <= 0.1 and elapsed <= 120.0
    assert report(
        "criterion 01 snr-loss",
        ok,
        f"loss(0.03,0.09)={hot_cell:.2f} dB (>=8), |loss(0,0)|={abs(zero_cell):.2e} (<=0.1), {elapsed:.1f}s (<=120)",
    )


def test_criterion_02_gradient_oracle():
    # >=100 margin-guarded random instances, all real coordinates, <1e-6 rel err
    rng = np.random.default_rng(SEED)
    step = 1e-6
    start = time.monotonic()
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.choice([4, 8]))
        a = int(rng.choice([8, 16]))
        depth = int(rng.integers(1, 4))
        w = (rng.standard_normal((n, a)) + 1j * rng.standard_normal((n, a))) / np.sqrt(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= np.linalg.norm(x)
        if selection_margin(w, x, depth) < 200 * step:
            continue
        checked += 1
        rule = StoppingRule.fixed(depth)
        model = MpNetModel(w, rule)
        grad = backward(model, forward(model, x, 0.0), x)

        def cost(weights):
            return 0.5 * forward(MpNetModel(weights, rule), x, 0.0).residual_energy

        fd = numerical_gradient(cost, w, step)
        worst = max(worst, np.max(np.abs(fd - grad)) / np.max(np.abs(fd)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed <= 60.0
    assert report(
        "criterion 02 gradient-oracle",
        ok,
        f"{checked} instances, max rel err={worst:.2e} (<1e-6), {elapsed:.1f}s (<=60)",
    )


def test_criterion_03_unfolding_equivalence():
    # 1000 random (dictionary, observation) pairs: network at init == pursuit
    rng = np.random.default_rng(SEED + 3)
    from mpnetlab.arrays import Dictionary, doa_grid_upa

    worst = 0.0
    for _ in range(1000):
        n = int(rng.choice([8, 16, 32]))
        a = int(rng.choice([16, 32, 64]))
        k = int(rng.integers(1, 6))
        d = Dictionary(random_unit_atoms(rng, n, a), doa_grid_upa(a))
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * rng.uniform(0.1, 10.0)
        rule = StoppingRule.fixed(k)
        mp = matching_pursuit(d, x, rule)
        net = estimate(MpNetModel.from_dictionary(d, rule), x)
        assert mp.support == net.support
        worst = max(worst, float(np.max(np.abs(mp.channel - net.channel))))
    ok = worst < 1e-9
    assert report("criterion 03 unfolding-equivalence", ok, f"1000 pairs, max |deviation|={worst:.2e} (<1e-9)")


@pytest.mark.slow
def test_criterion_04_learning_recovers_model(learning_run):
    result, elapsed = learning_run
    first_gap = abs(result.rmse_db("mpnet:nominal:sc2")[0] - result.rmse_db("mp:nominal:sc2")[0])
    net_final = final_mean_db(result, "mpnet:nominal:sc2")
    mp_final = final_mean_db(result, "mp:nominal:sc2")
    ideal_final = final_mean_db(result, "omp:ideal:sc2")
    below_mp = mp_final - net_final
    gap_to_ideal = net_final - ideal_final
    ok = first_gap <= 0.5 and below_mp >= 3.0 and gap_to_ideal <= 2.0 and elapsed <= 600.0
    assert report(
        "criterion 04 learning-recovers-model",
        ok,
        f"(a) first-minibatch gap={first_gap:.3f} dB (<=0.5), "
        f"(b) {below_mp:.2f} dB below frozen nominal (>=3), "
        f"(c) {gap_to_ideal:.2f} dB above ideal OMP (<=2), {elapsed:.0f}s (<=600)",
    )


@pytest.mark.slow
def test_criterion_05_initialization_matters(learning_run):
    result, _ = learning_run
    xavier_final = final_mean_db(result, "mpnet:xavier:sc2")
    nominal_final = final_mean_db(result, "mpnet:nominal:sc2")
    margin = xavier_final - nominal_final
    ok = margin >= 1.0
    assert report(
        "criterion 05 initialization-matters",
        ok,
        f"random init ends {margin:.2f} dB worse than model init (>=1)",
    )


def test_criterion_06_pursuit_invariant_suite():
    from mpnetlab.arrays import Dictionary, doa_grid_upa

    rng = np.random.default_rng(SEED + 6)
    cases = 10_000
    max_corr = 0.0
    max_omp_corr = 0.0
    dictionaries = [
        Dictionary(random_unit_atoms(rng, n, a), doa_grid_upa(a))
        for n, a in ((8, 16), (16, 32), (16, 48), (32, 64))
    ]
    start = time.monotonic()
    for i in range(cases):
        d = dictionaries[i % len(dictionaries)]
        n = d.n_antennas
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        noise_var = rng.uniform(0.0, 0.2) * energy(x) / n
        rule = (
            StoppingRule.fixed(int(rng.integers(1, 5)))
            if i % 3 == 0
            else (StoppingRule.sc1() if i % 3 == 1 else StoppingRule.sc2())
        )
        mp = matching_pursuit(d, x, rule, noise_var)
        assert mp.depth <= rule.cap(n)
        r = x.copy()
        prev = energy(r)
        for s in mp.support:
            r = r - d.atoms[:, s] * np.vdot(d.atoms[:, s], r)
            now = energy(r)
            assert now <= prev * (1.0 + 1e-12)
            max_corr = max(max_corr, abs(np.vdot(d.atoms[:, s], r)))
            prev = now
        oe = omp(d, x, rule, noise_var)
        assert oe.depth <= rule.cap(n)
        residual = x - oe.channel
        for s in oe.support:
            max_omp_corr = max(max_omp_corr, abs(np.vdot(d.atoms[:, s], residual)))
    elapsed = time.monotonic() - start
    ok = max_corr < 1e-9 and max_omp_corr < 1e-9
    assert report(
        "criterion 06 pursuit-invariants",
        ok,
        f"{cases} cases: max post-selection corr={max_corr:.2e}, max OMP support corr={max_omp_corr:.2e} "
        f"(<1e-9), residuals monotone, caps held, {elapsed:.0f}s",
    )


def test_criterion_07_noise_and_snr_calibration():
    rng = np.random.default_rng(SEED + 7)
    arr = make_ula(64)
    ratio_sum = 0.0
    draws = 10_000
    channel = generate_channel(arr, rng)
    for _ in range(draws):
        s = observe(channel, 10.0, rng)
        ratio_sum += energy(s.observation - s.channel) / (64 * s.noise_var)
    ratio = ratio_sum / draws
    ls_sum = 0.0
    ls_draws = 4000
    for _ in range(ls_draws):
        ch = generate_channel(arr, rng)
        s = observe(ch, 10.0, rng)
        ls_sum += rmse(ls_estimate(s.observation).channel, s.channel)
    ls_db = to_db(ls_sum / ls_draws)
    ok = 0.97 <= ratio <= 1.03 and abs(ls_db + 10.0) <= 0.3
    assert report(
        "criterion 07 noise-calibration",
        ok,
        f"noise-energy ratio={ratio:.4f} (in [0.97,1.03]), LS rMSE={ls_db:.2f} dB (within 0.3 of -10)",
    )


@pytest.mark.slow
def test_criterion_08_anomaly_detection_and_recovery():
    total = 80_000
    mid = total // 2
    cfg = ExperimentConfig(
        seed=SEED,
        array=ArraySpec(shape=(64,), gain_std=0.15, pos_std=0.05),
        n_atoms=512,
        snr=FixedSnr(10.0),
        training=TrainConfig(minibatch_size=200),
        estimators=("ls", "mpnet:nominal:sc2"),
        total_samples=total,
        anomalies=(ArrayEvent(index=mid, kind="break", fraction=0.3),),
    )
    result = run_learning_experiment(cfg)
    mb_mid = mid // 200
    net_db = result.rmse_db("mpnet:nominal:sc2")
    ls_db = result.rmse_db("ls")
    pre_level = to_db(result.rmse_linear["mpnet:nominal:sc2"][mb_mid - 10 : mb_mid].mean())
    jump = net_db[mb_mid : mb_mid + 2].max() - net_db[mb_mid - 5 : mb_mid].mean()
    ls_change = abs(ls_db[mb_mid : mb_mid + 2].mean() - ls_db[mb_mid - 5 : mb_mid].mean())
    end_level = to_db(result.rmse_linear["mpnet:nominal:sc2"][-10:].mean())
    recovery_gap = end_level - pre_level
    ok = jump >= 3.0 and ls_change <= 0.5 and recovery_gap <= 1.5
    assert report(
        "criterion 08 anomaly-recovery",
        ok,
        f"jump={jump:.2f} dB (>=3 within 2 minibatches), LS change={ls_change:.3f} dB (<=0.5), "
        f"recovery gap={recovery_gap:.2f} dB (<=1.5; pre={pre_level:.2f}, end={end_level:.2f})",
    )


def test_criterion_09_single_atom_projection_gain():
    from mpnetlab.arrays import steering_vector
    from mpnetlab.channels import MultipathChannel

    rng = np.random.default_rng(SEED + 9)
    snr_db = 10.0
    true_array = perturb_array(make_ula(64), 0.15, 0.05, rng)
    grid = doa_grid_ula(512)
    dictionary = build_dictionary(true_array, grid)
    estimates, truths = [], []
    for _ in range(2000):
        direction = grid[int(rng.integers(0, 512))]
        gain = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
        channel = MultipathChannel(
            np.array([gain]), direction[None, :], gain * steering_vector(true_array, direction)
        )
        sample = observe(channel, snr_db, rng)
        est = matching_pursuit(dictionary, sample.observation, StoppingRule.fixed(1), sample.noise_var)
        estimates.append(est.channel)
        truths.append(sample.channel)
    gain_db = snr_out(estimates, truths)
    bound = snr_db + 10.0 * np.log10(64) - 1.5
    ok = gain_db >= bound
    assert report(
        "criterion 09 projection-gain",
        ok,
        f"SNR_out={gain_db:.2f} dB >= {bound:.2f} dB over 2000 on-grid trials",
    )


def test_criterion_10_determinism_and_replay(tmp_path):
    config = CONFIG_DIR / "smoke.yaml"
    out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
    assert cli_main(["--config", str(config), "--out", str(out_a), "--quiet"]) == 0
    assert cli_main(["--config", str(config), "--out", str(out_b), "--quiet"]) == 0
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("curves.csv", "depth_hist.csv", "snr_hist.csv", "stream.csv")
    )
    replay_cfg = tmp_path / "replay.yaml"
    replay_cfg.write_text(
        config.read_text().replace(
            "stream:\n  dump: true", f"stream:\n  replay: {out_a / 'stream.csv'}"
        )
    )
    assert cli_main(["--config", str(replay_cfg), "--out", str(out_c), "--quiet"]) == 0
    replay_ok = (out_a / "curves.csv").read_bytes() == (out_c / "curves.csv").read_bytes()
    ok = identical and replay_ok
    assert report(
        "criterion 10 determinism",
        ok,
        f"byte-identical rerun={identical}, replay reproduces curves.csv={replay_ok}",
    )
