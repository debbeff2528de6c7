"""The batched pursuit kernel against the per-sample (B=1) path and the
loop-based oracles: matching pursuit, OMP, the mpNet forward pass, and the
minibatch gradient assembled from sparse per-sample columns.

Batch sizes straddle the correlation tile, rules and noise variances are mixed
within a batch, and every batch holds samples that stop before the first layer.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpnetlab import mpnet
from mpnetlab.arrays import Dictionary
from mpnetlab.channels import ChannelSample
from mpnetlab.estimators import CORR_TILE, StoppingRule, matching_pursuit, omp, pursuit_batch
from mpnetlab.mpnet import MpNetModel, OnlineTrainer, TrainConfig, backward, forward, forward_batch

from conftest import make_incoherent_dictionary
from reference import ref_matching_pursuit

BATCH_SIZES = (1, CORR_TILE - 1, CORR_TILE + 1, 2 * CORR_TILE + 3)
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


class TestMatchingPursuitBatch:
    @settings(max_examples=30, deadline=None)
    @given(batches())
    def test_matches_single_sample_path_and_reference(self, case):
        d, X, noise_vars, rule = case
        batched = pursuit_batch(d, X, rule, noise_vars)
        assert any(est.depth == 0 for est in batched)
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
        traces = forward_batch(model, X, noise_var_norms)
        for x_unit, noise_var_norm, trace in zip(X, noise_var_norms, traces):
            _, single = forward(model, x_unit, noise_var_norm)
            assert trace.indices == single.indices
            assert np.array_equal(trace.coeffs, single.coeffs)
            assert np.max(np.abs(trace.final_residual - single.final_residual), initial=0.0) <= 1e-12

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
            _, trace = forward(model, x_unit, sample.noise_var / float(norm**2))
            dense += backward(model, trace, x_unit)

        applied = []
        trainer = OnlineTrainer(model, TrainConfig(minibatch_size=len(samples)))
        trainer.process_batch(samples)
        with patch.object(mpnet, "adam_step", lambda state, w, grad: applied.append(grad) or w):
            trainer.end_minibatch()
        assert np.array_equal(applied[0], dense / len(samples))
