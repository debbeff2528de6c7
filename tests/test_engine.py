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
from mpnetlab.arrays import Dictionary, build_dictionary, doa_grid_ula, make_ula, unit_response
from mpnetlab.channels import ChannelSample, ChannelStream, FixedSnr, SampleBatch
from mpnetlab.estimators import CORR_TILE, StoppingRule, matching_pursuit, omp, pursuit_batch, row_dot, should_stop
from mpnetlab.config import ArraySpec, ExperimentConfig
from mpnetlab.experiments import run_learning_experiment
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
            pursuit_batch(d, X, StoppingRule.fixed(2), [0.0] * b, orthogonal=True)

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
    # tracemalloc peaks at N=64, A=512, B=200. The step (depth 8) with the
    # Adam update left out: 1.90 MB with per-layer residuals held for one
    # tile; the pass with the whole minibatch as one tile peaked at 7.7 MB.
    # The step with its update: 2.85 MB (2.86 under sc2), the update alone
    # 2.13 MB and OMP fixed(16) 1.90 MB. Whole-array Adam expressions, a
    # concatenated and negated reverse pass and layer records that nothing
    # reads made those 5.22, 4.00 and 2.86 MB.
    PEAK_BOUND_MB = 3.0

    def _trainer_and_samples(self, rule):
        n, a, b = 64, 512, 200
        rng = np.random.default_rng(7)
        d = make_incoherent_dictionary(n, a, seed=7)
        X = rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))
        samples = [ChannelSample(x, x, 1e-4 * np.vdot(x, x).real, 10.0) for x in X]
        return OnlineTrainer(trained_model(d, rule, 7), TrainConfig(minibatch_size=b)), samples

    def test_step_peak_is_tile_bounded(self):
        trainer, samples = self._trainer_and_samples(StoppingRule.fixed(8))
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

    @pytest.mark.parametrize("rule", [StoppingRule.fixed(8), StoppingRule.sc2()], ids=["fixed8", "sc2"])
    def test_step_with_its_update_allocates_only_what_it_keeps(self, rule):
        trainer, samples = self._trainer_and_samples(rule)
        batch = SampleBatch.of(samples)
        assert _peak_mb(lambda: trainer.step(batch)) < 4.0

    def test_adam_step_allocates_two_scratch_arrays(self):
        rng = np.random.default_rng(8)
        weights = rng.standard_normal((64, 512)) + 1j * rng.standard_normal((64, 512))
        grad = rng.standard_normal((512, 64)) + 1j * rng.standard_normal((512, 64))  # A x N, as the trainer holds it
        state = mpnet.AdamState.for_shape(weights.shape)
        assert _peak_mb(lambda: mpnet.adam_step(state, weights, grad.T)) < 3.0

    def test_omp_keeps_no_layer_records(self):
        rng = np.random.default_rng(9)
        d = make_incoherent_dictionary(64, 512, seed=9)
        X = rng.standard_normal((200, 64)) + 1j * rng.standard_normal((200, 64))
        assert _peak_mb(lambda: pursuit_batch(d, X, StoppingRule.fixed(16), [0.0] * 200, orthogonal=True)) < 2.4


def _peak_mb(call) -> float:
    """tracemalloc peak of ``call()`` in MB, after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestNoWholeMatrixScratch:
    """At N=64, A=2048 (2 MB of complex atoms), B=200: the dictionary builds
    and the pursuit kernel allocate no N x A array beyond the ones their result
    keeps. Measured peaks of unit_response, build_dictionary, the Dictionary
    check, MP fixed(1) and OMP fixed(8): 2.19, 2.39, 2.09, 0.69 and 1.26 MB,
    and 2.39 MB for build_dictionary from a given response. Float phases held
    beside the complex response, a correlation over all atoms at once, a
    scaled copy of the builder's own response and a copy of the built atoms in
    Dictionary made those 3.13, 4.13, 2.09, 2.28 and 2.79, and 4.11 MB; with a
    scratch copy of the atoms (conjugate, norm temporaries, out-of-place
    exponential) 5.00, 6.09, 4.08, 4.28 and 5.21 MB."""

    N, A, B = 64, 2048, 200

    @pytest.fixture(scope="class")
    def dictionary(self):
        return build_dictionary(make_ula(self.N), doa_grid_ula(self.A))

    @pytest.fixture(scope="class")
    def observations(self):
        rng = np.random.default_rng(8)
        return rng.standard_normal((self.B, self.N)) + 1j * rng.standard_normal((self.B, self.N))

    def test_unit_response(self):
        positions, dirs = make_ula(self.N).positions, doa_grid_ula(self.A)
        assert _peak_mb(lambda: unit_response(positions, dirs)) < 3.5

    def test_build_dictionary(self):
        arr, dirs = make_ula(self.N), doa_grid_ula(self.A)
        assert _peak_mb(lambda: build_dictionary(arr, dirs)) < 4.5

    def test_dictionary_check(self, dictionary):
        atoms, dirs = np.array(dictionary.atoms), dictionary.directions
        assert _peak_mb(lambda: Dictionary(atoms, dirs)) < 2.5

    def test_matching_pursuit(self, dictionary, observations):
        noise = [0.0] * self.B
        assert _peak_mb(lambda: pursuit_batch(dictionary, observations, StoppingRule.fixed(1), noise)) < 2.75

    def test_omp(self, dictionary, observations):
        noise = [0.0] * self.B
        assert _peak_mb(lambda: pursuit_batch(dictionary, observations, StoppingRule.fixed(8), noise, orthogonal=True)) < 3.75

    def test_build_dictionary_scales_its_own_response_in_place(self):
        arr, dirs = make_ula(self.N), doa_grid_ula(self.A)
        assert _peak_mb(lambda: build_dictionary(arr, dirs)) < 2.75

    def test_build_dictionary_from_a_response_keeps_its_atoms_uncopied(self):
        arr, dirs = make_ula(self.N), doa_grid_ula(self.A)
        response = unit_response(arr.positions, dirs)
        assert _peak_mb(lambda: build_dictionary(arr, dirs, response=response)) < 2.75

    def test_matching_pursuit_correlates_in_atom_blocks(self, dictionary, observations):
        noise = [0.0] * self.B
        assert _peak_mb(lambda: pursuit_batch(dictionary, observations, StoppingRule.fixed(1), noise)) < 1.25

    def test_omp_correlates_in_atom_blocks(self, dictionary, observations):
        noise = [0.0] * self.B
        assert _peak_mb(lambda: pursuit_batch(dictionary, observations, StoppingRule.fixed(8), noise, orthogonal=True)) < 2.0


class TestCorrelationForm:
    """``pursue`` correlates as ``|atoms^T conj(R)^T|``; its moduli must be the
    bits of ``|atoms^H R^T|``, or every pick and artifact could move."""

    @pytest.mark.parametrize("m", [1, 7, 32])
    @pytest.mark.parametrize("a", [512, 2048])
    def test_moduli_are_bit_equal(self, m, a):
        rng = np.random.default_rng(m * a)
        steering = build_dictionary(make_ula(64), doa_grid_ula(a)).atoms
        weights = rng.standard_normal((64, a)) + 1j * rng.standard_normal((64, a))  # mpNet's are arbitrary
        for W in (steering, weights):
            R = rng.standard_normal((m, 64)) + 1j * rng.standard_normal((m, 64))
            assert np.array_equal(np.abs(W.T @ R.conj().T), np.abs(W.conj().T @ R.T))

    # pursue correlates ATOM_BLOCK atoms at a time; each block's moduli must be
    # the whole product's rows, or a pick could depend on the block size
    @pytest.mark.parametrize("block", [64, 512])
    @pytest.mark.parametrize("m", [1, 7, 32])
    @pytest.mark.parametrize("a", [512, 2048])
    def test_atom_blocks_are_rows_of_the_whole_product(self, a, m, block):
        rng = np.random.default_rng(m * a + block)
        steering = build_dictionary(make_ula(64), doa_grid_ula(a)).atoms
        weights = rng.standard_normal((64, a)) + 1j * rng.standard_normal((64, a))
        for W in (steering, weights):
            Rc = (rng.standard_normal((m, 64)) + 1j * rng.standard_normal((m, 64))).conj().T
            whole = np.abs(W.T @ Rc)
            for a0 in range(0, a, block):
                assert np.array_equal(np.abs(W.T[a0 : a0 + block] @ Rc), whole[a0 : a0 + block])


class TestAtomBlockInvariance:
    """A batch's bytes do not depend on how many atoms a correlation block
    holds: blocks of one atom, of a few, of all but one and of all."""

    N, A = 16, 100
    BLOCKS = (1, 5, 64, A - 1, A, 2 * A)

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(21)
        d = make_incoherent_dictionary(self.N, self.A, seed=21)
        b = 2 * CORR_TILE + 3
        X = (rng.standard_normal((b, self.N)) + 1j * rng.standard_normal((b, self.N))) * rng.uniform(0.1, 5.0, (b, 1))
        noise_vars = (rng.uniform(0.0, 0.9, len(X)) * row_energies(X) / self.N).tolist()
        return d, X, noise_vars

    def _each_block(self, run):
        with patch.object(estimators, "ATOM_BLOCK", self.A):
            expected = run()
        for block in self.BLOCKS:
            with patch.object(estimators, "ATOM_BLOCK", block):
                got = run()
            if isinstance(expected, np.ndarray):
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
            else:
                assert_same_batch(got, expected)

    @pytest.mark.parametrize("rule", [StoppingRule.fixed(3), StoppingRule.sc2()], ids=["fixed3", "sc2"])
    @pytest.mark.parametrize("orthogonal", [False, True], ids=["mp", "omp"])
    def test_pursuit_batch(self, case, rule, orthogonal):
        d, X, noise_vars = case
        self._each_block(lambda: pursuit_batch(d, X, rule, noise_vars, orthogonal))

    def test_omp_masks_its_support_across_blocks(self, case):
        d, X, noise_vars = case
        est = pursuit_batch(d, X, StoppingRule.fixed(12), noise_vars, orthogonal=True)
        assert all(len(set(est[i].support)) == est[i].depth == 12 for i in range(len(est)))
        self._each_block(lambda: pursuit_batch(d, X, StoppingRule.fixed(12), noise_vars, orthogonal=True))

    # OMP's residual is orthogonal to its support, so the mask only matters on
    # rounding noise; here each column's three largest moduli are masked
    @pytest.mark.parametrize("block", BLOCKS)
    def test_a_support_is_masked_in_every_block(self, case, block):
        d, X, _ = case
        atom_rows, Rc = d.atoms.T, X[:7].conj().T
        corr = np.abs(atom_rows @ Rc)
        taken = np.argsort(-corr, axis=0)[:3].T
        corr[taken.T, np.arange(7)] = -1.0
        with patch.object(estimators, "ATOM_BLOCK", block):
            assert np.array_equal(estimators._select(atom_rows, Rc, taken), np.argmax(corr, axis=0))

    @pytest.mark.parametrize("rule", [StoppingRule.fixed(4), StoppingRule.sc2()], ids=["fixed4", "sc2"])
    def test_mpnet_pass_and_gradient(self, case, rule):
        d, X, noise_vars = case
        model = trained_model(d, rule, 21)
        noise_var_norms = (np.asarray(noise_vars) / row_energies(X)).tolist()
        self._each_block(lambda: forward_batch(model, unit_rows(X), noise_var_norms))
        samples = [ChannelSample(x, x, v, 10.0) for x, v in zip(X, noise_vars)]
        self._each_block(lambda: minibatch_gradient(model, samples))

    @pytest.mark.parametrize("block", [1, 2, 3, 4])
    @pytest.mark.parametrize("orthogonal", [False, True], ids=["mp", "omp"])
    def test_ties_across_blocks_go_to_the_lowest_index(self, block, orthogonal):
        # atoms 2 and 4 are equal, and so are 0 and 3; no block holds both of a pair
        atoms = np.array([[0.0, 0.6, 1.0, 0.0, 1.0, 0.6], [1.0, 0.8, 0.0, 1.0, 0.0, 0.8]], complex)
        d = Dictionary(atoms, np.tile([0.0, 1.0, 0.0], (6, 1)))
        X = np.array([[2.0, 0.0], [0.0, 3.0], [-1.0, 0.0]], complex)
        with patch.object(estimators, "ATOM_BLOCK", block):
            est = pursuit_batch(d, X, StoppingRule.fixed(1), [0.0] * 3, orthogonal)
        assert est.support[:, 0].tolist() == [2, 0, 2]

    @pytest.mark.parametrize("block", [2, 3])
    def test_omp_exhausts_a_dictionary_of_several_blocks(self, block):
        d = make_incoherent_dictionary(8, 5, seed=5)
        X = np.random.default_rng(5).standard_normal((CORR_TILE + 1, 8)) + 0j
        with patch.object(estimators, "ATOM_BLOCK", block), pytest.raises(np.linalg.LinAlgError, match="every atom"):
            pursuit_batch(d, X, StoppingRule.fixed(6), [0.0] * len(X), orthogonal=True)


def assert_same_batch(got, expected):
    """Two BatchEstimates hold the same bytes in every field."""
    for field in ("channel", "depth", "support", "residual_energy"):
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field


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


def concatenated_reverse(grad, layers, final):
    """The reverse pass folded at the end of the tile: every layer's terms
    concatenated in reverse layer order, negated, and summed into zeroed
    (row, weight column) slots by one ordered scatter-add."""
    n_atoms = len(grad)
    R = np.array(final, dtype=complex)
    pairs, terms = [np.zeros(0, dtype=np.intp)], [np.zeros((0, R.shape[1]), dtype=complex)]
    for live, picks, cols, coeffs, before in reversed(layers):
        mu = R[live]
        overlaps = row_dot(cols, mu)
        pairs.append(live * n_atoms + picks)
        terms.append(np.conj(coeffs)[:, None] * mu + np.conj(overlaps)[:, None] * before)
        R[live] = mu - cols * overlaps[:, None]
    keys, slots = np.unique(np.concatenate(pairs), return_inverse=True)
    columns = np.zeros((len(keys), R.shape[1]), dtype=complex)
    add_rows_at(columns, slots, -np.concatenate(terms))
    add_rows_at(grad, keys % n_atoms, columns)


class TestReverseFold:
    """``mpnet._reverse`` takes each layer's terms off their slots as it goes;
    the sums must be the bits of the fold over the concatenated terms, on
    tiles where a row visits a weight column again and on depth-0 tiles."""

    @pytest.mark.parametrize("seed", range(6))
    # few atoms and deep layers: rows pick a column again; sc2 reaches its cap of 10 layers at N = 40
    @pytest.mark.parametrize("rule, n", [(StoppingRule.fixed(12), 4), (StoppingRule.sc2(), 40)], ids=["fixed12", "sc2"])
    def test_bit_equal_to_the_concatenated_fold(self, seed, rule, n):
        rng = np.random.default_rng(seed)
        a, b = 6, CORR_TILE + 5
        weights = rng.standard_normal((n, a)) + 1j * rng.standard_normal((n, a))
        X = unit_rows(rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n)))
        noise = rng.uniform(0.0, 0.02, b)
        X[CORR_TILE:] = 0.0  # the second tile stops before its first layer
        tiles = []
        estimators.pursue(weights, X, np.where(X.any(axis=1), 1.0, 0.0), noise, rule, on_tile=lambda layers, final: tiles.append((layers, final.copy())))
        assert [len(layers) > 0 for layers, _ in tiles] == [True, False]
        revisits = 0
        for layers, final in tiles:
            revisits += sum(len(live) for live, *_ in layers) - len({(r, p) for live, picks, *_ in layers for r, p in zip(live.tolist(), picks.tolist())})
            start = rng.standard_normal((a, n)) + 1j * rng.standard_normal((a, n))  # a minibatch gradient so far
            got, expected = start.copy(), start.copy()
            mpnet._reverse(got, layers, final)
            concatenated_reverse(expected, layers, final)
            assert got.tobytes() == expected.tobytes()
        assert revisits > 0


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
