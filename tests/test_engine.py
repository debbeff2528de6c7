"""The batched pursuit kernel against the per-sample (B=1) path and the
loop-based oracles: matching pursuit, OMP, the mpNet forward pass, and the
minibatch gradient assembled from sparse per-sample columns.

Batch sizes straddle the correlation tile, rules and noise variances are mixed
within a batch, and every batch holds samples that stop before the first layer.
Per-row results must not depend on the tile size or on the row order.

The trainer itself must not read ground truth, must average over the samples
it processed, must not replay its forward pass, and must give a roster entry
the same result alone or among others. The array helpers behind the fused
pass (the ordered fold and the stacked energies) are bitwise equal to the
numpy calls they replace.
"""

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpnetlab import estimators, mpnet
from mpnetlab.arrays import Dictionary, make_ula
from mpnetlab.channels import ChannelSample, ChannelStream, FixedSnr, SampleBatch
from mpnetlab.estimators import CORR_TILE, StoppingRule, matching_pursuit, omp, pursuit_batch, row_dot, should_stop
from mpnetlab.experiments import ArraySpec, ExperimentConfig, run_learning_experiment
from mpnetlab.mpnet import MpNetModel, OnlineTrainer, TrainConfig, backward, estimate, forward, forward_batch
from mpnetlab.metrics import rmse
from mpnetlab.utils import add_rows_at, energy, row_energies

from conftest import make_incoherent_dictionary
from reference import ref_matching_pursuit

BATCH_SIZES = (1, CORR_TILE - 1, CORR_TILE + 1, 2 * CORR_TILE + 3)
TILE_SIZES = (1, 5, 32)
RULES = (
    StoppingRule.fixed(1),
    StoppingRule.fixed(3),
    StoppingRule.sc1(),
    StoppingRule.sc2(),
    StoppingRule.sc2(max_depth=2),
)
# every STOP_EVERY-th sample stops at depth 0: a zero input under a fixed
# rule, a noise variance above the input energy under a residual rule
STOP_EVERY = 3


@st.composite
def batches(draw):
    """(dictionary, inputs B x N, noise variances, rule) with mixed noise levels."""
    b = draw(st.sampled_from(BATCH_SIZES))
    rule = draw(st.sampled_from(RULES))
    n, a = draw(st.sampled_from([(8, 16), (16, 40)]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    d = make_incoherent_dictionary(n, a, seed=seed % 997)
    X = (rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))) * rng.uniform(0.1, 5.0, (b, 1))
    energies = np.sum(np.abs(X) ** 2, axis=1)
    noise_vars = rng.uniform(0.0, 0.3, b) * energies / n
    for i in range(0, b, STOP_EVERY):
        if rule.kind == "fixed":
            X[i] = 0.0
        else:
            noise_vars[i] = 2.0 * energies[i]
    return d, X, noise_vars.tolist(), rule


def unit_rows(X):
    return np.array([x / np.linalg.norm(x) for x in X])


def check_support_record(batch):
    """Supports as wide as the batch's deepest row, and zero past each row's depth."""
    assert batch.support.shape == (len(batch), batch.depth.max(initial=0))
    assert not np.any(batch.support[np.arange(batch.support.shape[1]) >= batch.depth[:, None]])


class TestMatchingPursuitBatch:
    @settings(max_examples=30, deadline=None)
    @given(batches())
    def test_matches_single_sample_path_and_reference(self, case):
        d, X, noise_vars, rule = case
        batched = pursuit_batch(d, X, rule, noise_vars)
        assert any(est.depth == 0 for est in batched)
        check_support_record(batched)
        for x, noise_var, est in zip(X, noise_vars, batched):
            single = matching_pursuit(d, x, rule, noise_var)
            assert est.support == single.support
            assert np.max(np.abs(est.channel - single.channel)) <= 1e-12
            ref_channel, ref_support = ref_matching_pursuit(d.atoms, x, est.depth)
            assert list(est.support) == ref_support
            assert np.max(np.abs(est.channel - ref_channel)) <= 1e-12 * max(1.0, np.linalg.norm(x))


class TestOmpBatch:
    @settings(max_examples=30, deadline=None)
    @given(batches())
    def test_matches_single_sample_path(self, case):
        d, X, noise_vars, rule = case
        batched = pursuit_batch(d, X, rule, noise_vars, orthogonal=True)
        assert any(est.depth == 0 for est in batched)
        check_support_record(batched)
        for x, noise_var, est in zip(X, noise_vars, batched):
            single = omp(d, x, rule, noise_var)
            assert est.support == single.support
            assert len(set(est.support)) == est.depth
            assert np.max(np.abs(est.channel - single.channel)) <= 1e-12

    @pytest.mark.parametrize("b", BATCH_SIZES)
    def test_dependent_support_raises_inside_a_batch(self, b):
        atoms = np.zeros((4, 2), complex)
        atoms[:, 0] = [0.5, 0.5, 0.5, 0.5]
        atoms[:, 1] = atoms[:, 0]  # exact duplicate
        d = Dictionary(atoms, np.tile([0.0, 1.0, 0.0], (2, 1)))
        X = np.tile(np.array([1.0, 1.0, 1.0, 2.0], complex), (b, 1))
        X[: b // 2] = 0.0  # zero inputs stop at once under a fixed rule
        with pytest.raises(np.linalg.LinAlgError):
            pursuit_batch(d, X, StoppingRule.fixed(2, max_depth=2), [0.0] * b, orthogonal=True)

    def test_exhausted_dictionary_raises_inside_a_batch(self):
        d = make_incoherent_dictionary(8, 2, seed=3)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((CORR_TILE + 1, 8)) + 0j
        with pytest.raises(np.linalg.LinAlgError, match="every atom"):
            pursuit_batch(d, X, StoppingRule.fixed(3), [0.0] * len(X), orthogonal=True)


class TestForwardBatch:
    @settings(max_examples=30, deadline=None)
    @given(batches())
    def test_matches_single_sample_forward(self, case):
        d, X, noise_vars, rule = case
        keep = np.any(X != 0.0, axis=1)  # the network needs nonzero inputs
        assume(keep.any())
        noise_var_norms = [v / np.vdot(x, x).real for x, v, k in zip(X, noise_vars, keep) if k]
        X = unit_rows(X[keep])
        model = MpNetModel.from_dictionary(d, rule)
        batched = forward_batch(model, X, noise_var_norms)
        assert len(batched) == len(X)
        check_support_record(batched)
        for x_unit, noise_var_norm, est in zip(X, noise_var_norms, batched):
            single = forward(model, x_unit, noise_var_norm)
            assert est.support == single.support
            assert np.max(np.abs(est.channel - single.channel), initial=0.0) <= 1e-12

    def test_rejects_a_non_unit_row(self):
        d = make_incoherent_dictionary(8, 16)
        X = unit_rows(np.ones((3, 8), complex))
        X[1] *= 2.0
        with pytest.raises(ValueError, match="unit-norm"):
            forward_batch(MpNetModel.from_dictionary(d, StoppingRule.fixed(2)), X, [0.0] * 3)


class TestMinibatchGradient:
    @settings(max_examples=20, deadline=None)
    @given(batches())
    def test_equals_sum_of_dense_backward(self, case):
        d, X, noise_vars, rule = case
        samples = [ChannelSample(x, x, v, 10.0) for x, v in zip(X, noise_vars) if np.any(x != 0.0)]
        assume(samples)
        rng = np.random.default_rng(len(X))
        # trained weights, so that columns are no longer unit-norm
        weights = d.atoms + 0.05 * (rng.standard_normal(d.atoms.shape) + 1j * rng.standard_normal(d.atoms.shape))
        model = MpNetModel(weights, rule)

        dense = np.zeros(weights.shape, dtype=complex)
        for sample in samples:
            norm = np.linalg.norm(sample.observation)
            x_unit = sample.observation / norm
            dense += backward(model, forward(model, x_unit, sample.noise_var / float(norm**2)), x_unit)

        applied = []
        trainer = OnlineTrainer(model, TrainConfig(minibatch_size=len(samples)))
        with patch.object(mpnet, "adam_step", lambda state, w, grad: (applied.append(grad) or w, state)):
            trainer.step(SampleBatch.of(samples))
        assert np.array_equal(applied[0], dense / len(samples))


def nonzero_unit_case(case):
    """The nonzero rows of a case on the unit scale, with normalized noise."""
    d, X, noise_vars, rule = case
    keep = np.any(X != 0.0, axis=1)
    assume(keep.any())
    noise_var_norms = [v / np.vdot(x, x).real for x, v, k in zip(X, noise_vars, keep) if k]
    return d, unit_rows(X[keep]), noise_var_norms, rule


def trained_model(d, rule, seed):
    """A model whose columns are no longer unit-norm, as after training."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(d.atoms.shape) + 1j * rng.standard_normal(d.atoms.shape)
    return MpNetModel(d.atoms + 0.05 * noise, rule)


def minibatch_gradient(model, samples):
    applied = []
    trainer = OnlineTrainer(model, TrainConfig(minibatch_size=len(samples)))
    with patch.object(mpnet, "adam_step", lambda state, w, grad: (applied.append(grad) or w, state)):
        trainer.step(SampleBatch.of(samples))
    return applied[0]


class TestTrainerBatchRows:
    @settings(max_examples=20, deadline=None)
    @given(batches())
    def test_rows_equal_estimate(self, case):
        d, X, noise_vars, rule = case
        samples = [ChannelSample(x, x, v, 10.0) for x, v in zip(X, noise_vars) if np.any(x != 0.0)]
        assume(samples)
        model = trained_model(d, rule, len(X))
        before = MpNetModel(model.weights.copy(), rule)  # the weights the step's forward pass ran on
        batch, _ = OnlineTrainer(model, TrainConfig(minibatch_size=len(samples))).step(SampleBatch.of(samples))
        assert len(batch) == len(samples)
        for i, sample in enumerate(samples):
            row, single = batch[i], estimate(before, sample.observation, sample.noise_var)
            assert (row.support, row.depth, row.residual_energy) == (single.support, single.depth, single.residual_energy)
            assert np.array_equal(row.channel, single.channel)


class TestTileAndOrderInvariance:
    """Every row's bytes are the same whatever the tile size and row order."""

    @settings(max_examples=20, deadline=None)
    @given(batches(), st.booleans(), st.randoms(use_true_random=False))
    def test_pursuit_batch(self, case, orthogonal, random):
        d, X, noise_vars, rule = case
        order = list(range(len(X)))
        random.shuffle(order)
        with patch.object(estimators, "CORR_TILE", len(X)):
            expected = pursuit_batch(d, X, rule, noise_vars, orthogonal)
        for tile in TILE_SIZES:
            with patch.object(estimators, "CORR_TILE", tile):
                got = pursuit_batch(d, X[order], rule, [noise_vars[i] for i in order], orthogonal)
            for i, est in zip(order, got):
                assert est.support == expected[i].support
                assert np.array_equal(est.channel, expected[i].channel)
                assert est.residual_energy == expected[i].residual_energy

    @settings(max_examples=20, deadline=None)
    @given(batches(), st.randoms(use_true_random=False))
    def test_forward_batch(self, case, random):
        d, X, noise_var_norms, rule = nonzero_unit_case(case)
        model = trained_model(d, rule, len(X))
        order = list(range(len(X)))
        random.shuffle(order)
        expected = forward_batch(model, X, noise_var_norms)
        for tile in TILE_SIZES:
            with patch.object(estimators, "CORR_TILE", tile):
                got = forward_batch(model, X[order], [noise_var_norms[i] for i in order])
            for i, est in zip(order, got):
                assert est.support == expected[i].support
                assert np.array_equal(est.channel, expected[i].channel)
                assert est.residual_energy == expected[i].residual_energy

    @settings(max_examples=15, deadline=None)
    @given(batches())
    def test_minibatch_gradient(self, case):
        d, X, noise_vars, rule = case
        samples = [ChannelSample(x, x, v, 10.0) for x, v in zip(X, noise_vars) if np.any(x != 0.0)]
        assume(samples)
        model = trained_model(d, rule, len(X))
        expected = minibatch_gradient(model, samples)
        for tile in TILE_SIZES:
            with patch.object(estimators, "CORR_TILE", tile):
                assert np.array_equal(minibatch_gradient(model, samples), expected)


class TestStoppingDepth:
    @settings(max_examples=30, deadline=None)
    @given(batches())
    def test_depth_is_first_layer_where_the_scalar_rule_stops(self, case):
        d, X, noise_var_norms, rule = nonzero_unit_case(case)
        model = trained_model(d, rule, len(X))
        n = model.n_antennas
        for x, noise_var_norm, est in zip(X, noise_var_norms, forward_batch(model, X, noise_var_norms)):
            # replay with the kernel's row arithmetic, one layer at a time
            r = x[None].copy()
            for k, s in enumerate(est.support):
                assert not should_stop(rule, row_dot(r, r).real[0] if k else 1.0, k, noise_var_norm, n)
                col = model.weights.T[[s]]
                r -= col * row_dot(col, r)[:, None]
            assert should_stop(rule, row_dot(r, r).real[0] if est.depth else 1.0, est.depth, noise_var_norm, n)
            assert np.array_equal(x - r[0], est.channel)


class TestMemory:
    # tracemalloc peak of this step (N=64, A=512, B=200, depth 8) with the
    # Adam update left out: 2.73 MB with per-layer residuals held for one
    # tile, 5.2 MB with the update. The pass with the whole minibatch as one
    # tile peaked at 7.7 MB.
    PEAK_BOUND_MB = 3.0

    def test_step_peak_is_tile_bounded(self):
        n, a, b = 64, 512, 200
        rng = np.random.default_rng(7)
        d = make_incoherent_dictionary(n, a, seed=7)
        X = rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))
        samples = [ChannelSample(x, x, 1e-4 * np.vdot(x, x).real, 10.0) for x in X]
        trainer = OnlineTrainer(trained_model(d, StoppingRule.fixed(8), 7), TrainConfig(minibatch_size=b))
        batch = SampleBatch.of(samples)
        # the bound is on the pass; the Adam update adds its own arrays
        with patch.object(mpnet, "adam_step", lambda state, w, grad: (w, state)):
            trainer.step(SampleBatch.of(samples[:CORR_TILE]))  # warm caches outside the measurement
            tracemalloc.start()
            try:
                trainer.step(batch)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak / 2**20 < self.PEAK_BOUND_MB


class TestTrainerWithoutGroundTruth:
    """The trainer sees observations and noise variances only; scoring happens
    outside it, once per minibatch."""

    def test_channels_do_not_reach_the_trainer(self):
        d = make_incoherent_dictionary(8, 24, seed=3)
        samples = list(ChannelStream(FixedSnr(10.0), make_ula(8), np.random.default_rng(3)).take(60))
        rng = np.random.default_rng(4)
        decoys = [
            ChannelSample(10.0 * (rng.standard_normal(8) + 1j * rng.standard_normal(8)), s.observation, s.noise_var, s.snr_db)
            for s in samples
        ]
        runs = []
        for stream in (samples, decoys):
            trainer = OnlineTrainer(MpNetModel.from_dictionary(d, StoppingRule.sc2()), TrainConfig(minibatch_size=20))
            costs, channels = [], []
            for start in range(0, len(stream), 20):
                estimates, cost = trainer.step(SampleBatch.of(stream[start : start + 20]))
                channels += [est.channel for est in estimates]
                costs.append(cost)
            runs.append((trainer, costs, channels))
        (a, costs_a, channels_a), (b, costs_b, channels_b) = runs
        assert np.array_equal(a.model.weights, b.model.weights)
        assert np.array_equal(a.adam.m, b.adam.m)
        assert np.array_equal(a.adam.v, b.adam.v)
        assert costs_a == costs_b
        assert all(np.array_equal(x, y) for x, y in zip(channels_a, channels_b))


class TestPartialMinibatch:
    def test_cost_and_gradient_are_means_over_the_samples_processed(self):
        d = make_incoherent_dictionary(8, 24, seed=5)
        model = trained_model(d, StoppingRule.sc2(), 5)
        samples = list(ChannelStream(FixedSnr(10.0), make_ula(8), np.random.default_rng(5)).take(7))
        cost, dense = 0.0, np.zeros(model.weights.shape, dtype=complex)
        for sample in samples:
            norm = np.linalg.norm(sample.observation)
            x_unit = sample.observation / norm
            est = forward(model, x_unit, sample.noise_var / float(norm**2))
            cost += 0.5 * est.residual_energy
            dense += backward(model, est, x_unit)

        applied = []
        trainer = OnlineTrainer(model, TrainConfig(minibatch_size=50))
        with patch.object(mpnet, "adam_step", lambda state, w, grad: (applied.append(grad) or w, state)):
            _, mean_cost = trainer.step(SampleBatch.of(samples))
        assert mean_cost == cost / 7
        assert np.array_equal(applied[0], dense / 7)


def _curve(path, column):
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    picks = [header.index(f"{column}_rmse_db"), header.index(f"{column}_mean_depth")]
    return [[row[i] for i in picks] for row in rows]


class TestRosterIndependence:
    def test_an_entry_runs_the_same_alone_and_in_a_full_roster(self, tmp_path):
        # every forward pass of a minibatch runs before any Adam step, so an
        # entry must not see its neighbours through shared state or order
        base = dict(
            seed=11,
            array=ArraySpec(shape=(16,), gain_std=0.3, pos_std=0.1),
            n_atoms=64,
            snr=FixedSnr(10.0),
            training=TrainConfig(minibatch_size=50),
            total_samples=300,
        )
        full = ("ls", "mpnet:xavier:sc2", "omp:oracle:sc2", "mpnet:nominal:sc2", "mp:nominal:sc2", "mpnet:nominal:fixed3")
        for roster in (full, ("mpnet:nominal:sc2",)):
            run_learning_experiment(ExperimentConfig(estimators=roster, **base), tmp_path / str(len(roster)))
        alone, among = tmp_path / "1", tmp_path / str(len(full))
        assert _curve(alone / "curves.csv", "mpnet_nominal_sc2") == _curve(among / "curves.csv", "mpnet_nominal_sc2")
        checkpoint = "checkpoint_mpnet_nominal_sc2.npz"
        assert (alone / checkpoint).read_bytes() == (among / checkpoint).read_bytes()


@st.composite
def folds(draw):
    """(target, rows, values): repeats of a row interleave with other rows, and
    values span many magnitudes, so the order of a row's sum shows in its bits."""
    n_rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rows = np.array(draw(st.lists(st.integers(0, n_rows - 1), max_size=40)), dtype=np.intp)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-8, 8, (len(rows), 1))
    values = (rng.standard_normal((len(rows), width)) + 1j * rng.standard_normal((len(rows), width))) * scale
    return rng.standard_normal((n_rows, width)) + 0j, rows, values


class TestOrderedFold:
    """utils.add_rows_at is np.add.at (and, on negated values, np.subtract.at) to the bit."""

    @staticmethod
    def check(target, rows, values):
        for ufunc, signed in ((np.add, values), (np.subtract, -values)):
            expected, got = target.copy(), target.copy()
            ufunc.at(expected, rows, values)
            add_rows_at(got, rows, signed)
            assert got.tobytes() == expected.tobytes()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(folds())
    def test_matches_the_ordered_scatter_add(self, case):
        self.check(*case)

    @pytest.mark.parametrize("rows", [[2] * 40, [0, 1, 0, 2, 1, 0, 2, 2, 0, 1], []])
    def test_one_row_hit_by_all_interleaved_repeats_and_empty(self, rows):
        rng = np.random.default_rng(len(rows))
        values = rng.standard_normal((len(rows), 3)) * 10.0 ** rng.uniform(-8, 8, (len(rows), 1)) + 0j
        self.check(rng.standard_normal((3, 3)) + 0j, np.array(rows, dtype=np.intp), values)


class TestRowEnergies:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.sampled_from([1, 16, 64]), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_energy_and_rmse(self, n, b, seed):
        rng = np.random.default_rng(seed)
        X, H = ((rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))) * 10.0 ** rng.uniform(-3, 3, (b, 1)) for _ in range(2))
        assert row_energies(X).tolist() == [energy(x) for x in X]
        assert (row_energies(X - H) / row_energies(H)).tolist() == [rmse(x, h) for x, h in zip(X, H)]


class TestFusedPass:
    """The trainer runs the reverse pass on the forward pass's own layers, one
    kernel call per batch, and the public backward is that same call on one row."""

    def _trainer_and_samples(self):
        d = make_incoherent_dictionary(8, 24, seed=9)
        samples = ChannelStream(FixedSnr(10.0), make_ula(8), np.random.default_rng(9)).take(2 * CORR_TILE + 3)
        return OnlineTrainer(trained_model(d, StoppingRule.sc2(), 9), TrainConfig(minibatch_size=len(samples))), samples

    def test_step_replays_nothing(self):
        trainer, samples = self._trainer_and_samples()
        rows = []
        original = mpnet.pursue
        with patch.object(mpnet, "pursue", lambda atoms, X, *args, **kwargs: rows.append(len(X)) or original(atoms, X, *args, **kwargs)):
            estimates, _ = trainer.step(samples)
            assert rows == [len(samples)]
            x_unit = samples[0].observation / np.linalg.norm(samples[0].observation)
            est = forward(trainer.model, x_unit)
            rows.clear()
            backward(trainer.model, est, x_unit)
            assert est.depth > 0 and rows == [1]
            est = forward(trainer.model, x_unit, noise_var_norm=1.0)  # stops before the first layer
            rows.clear()
            assert est.depth == 0 and not np.any(backward(trainer.model, est, x_unit))
            assert rows == []
        assert estimates.channel.shape == (len(samples), 8)
        assert estimates.depth.shape == (len(samples),)

    def test_thresholds_once_per_tile_without_should_stop(self):
        trainer, samples = self._trainer_and_samples()
        calls = []
        original = estimators.sc_threshold
        with (
            patch.object(estimators, "should_stop", side_effect=AssertionError("per-layer stop test")),
            patch.object(estimators, "sc_threshold", lambda *args: calls.append(args) or original(*args)),
        ):
            trainer.step(samples)
        assert len(calls) == 3  # 2 * CORR_TILE + 3 rows make three tiles
