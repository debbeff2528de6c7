import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpnetlab.arrays import Dictionary, build_dictionary, doa_grid_ula, make_ula, perturb_array, steering_matrix
from mpnetlab.channels import ChannelStream, FixedSnr, generate_channel, observe
from mpnetlab.estimators import (
    Estimate,
    StoppingRule,
    ls_estimate,
    matching_pursuit,
    omp,
    sc_threshold,
    should_stop,
)
from mpnetlab.utils import energy

from conftest import make_incoherent_dictionary
from reference import best_support_error, ref_matching_pursuit


class TestStoppingRule:
    def test_constructors_validate(self):
        with pytest.raises(ValueError):
            StoppingRule.fixed(0)
        with pytest.raises(ValueError):
            StoppingRule("sc2", depth=3)
        with pytest.raises(ValueError):
            StoppingRule("nope")
        with pytest.raises(ValueError):
            StoppingRule.sc1(max_depth=0)

    def test_default_cap_quarter_of_dims(self):
        assert StoppingRule.sc2().cap(64) == 16
        assert StoppingRule.sc2().cap(3) == 1
        # fixed rules are never capped below their own depth
        assert StoppingRule.fixed(6).cap(8) == 6
        assert StoppingRule.fixed(2).cap(64) == 16
        assert StoppingRule.fixed(6, max_depth=4).cap(64) == 4


class TestScThreshold:
    def test_sc2_value(self):
        assert sc_threshold(StoppingRule.sc2(), 0.01, 64) == pytest.approx(0.64)

    def test_sc1_value_natural_log(self):
        expected = 0.01 * (64 + 2.0 * np.sqrt(64 * np.log(64)))
        got = sc_threshold(StoppingRule.sc1(), 0.01, 64)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.9663, abs=1e-3)

    def test_zero_noise_zero_threshold(self):
        assert sc_threshold(StoppingRule.sc1(), 0.0, 64) == 0.0
        assert sc_threshold(StoppingRule.sc2(), 0.0, 64) == 0.0

    def test_sc1_rejects_single_dimension(self):
        with pytest.raises(ValueError):
            sc_threshold(StoppingRule.sc1(), 0.01, 1)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            sc_threshold(StoppingRule.sc2(), -1e-9, 64)

    @given(noise=st.floats(0, 10), n=st.integers(2, 512))
    @settings(max_examples=60, deadline=None)
    def test_sc1_dominates_sc2(self, noise, n):
        # the support-recovery threshold is never below the plain noise floor
        assert sc_threshold(StoppingRule.sc1(), noise, n) >= sc_threshold(StoppingRule.sc2(), noise, n)

    @given(noise=st.floats(0, 1), scale=st.floats(1, 100), n=st.integers(2, 256))
    @settings(max_examples=60, deadline=None)
    def test_thresholds_scale_linearly_in_noise(self, noise, scale, n):
        for rule in (StoppingRule.sc1(), StoppingRule.sc2()):
            assert sc_threshold(rule, noise * scale, n) == pytest.approx(scale * sc_threshold(rule, noise, n))


class TestShouldStop:
    def test_fixed_depth_reached(self):
        assert should_stop(StoppingRule.fixed(6), 0.9, 6, 0.0, 64)
        assert not should_stop(StoppingRule.fixed(6), 0.9, 5, 0.0, 64)

    def test_sc2_threshold_comparison(self):
        assert should_stop(StoppingRule.sc2(), 0.5, 1, 0.01, 64)
        assert not should_stop(StoppingRule.sc2(), 0.65, 1, 0.01, 64)

    def test_cap_always_wins(self):
        assert should_stop(StoppingRule.sc2(max_depth=3), 1.0, 3, 0.0, 64)
        assert should_stop(StoppingRule.fixed(9, max_depth=2), 1.0, 2, 0.0, 64)

    def test_zero_residual_stops(self):
        assert should_stop(StoppingRule.fixed(5), 0.0, 1, 0.0, 64)

    @pytest.mark.parametrize("rule", [StoppingRule.fixed(3), StoppingRule.sc1(), StoppingRule.sc2(max_depth=4)])
    def test_arrays_broadcast_like_scalars(self, rule, rng):
        energies = np.concatenate([rng.uniform(0.0, 1.0, 20), [0.0, 1e-30]])
        noise = rng.uniform(0.0, 0.02, energies.size)
        depths = rng.integers(0, 6, energies.size)
        batched = should_stop(rule, energies, depths, noise, 64)
        assert batched.shape == energies.shape
        assert batched.tolist() == [bool(should_stop(rule, e, d, v, 64)) for e, d, v in zip(energies, depths, noise)]
        assert np.array_equal(sc_threshold(rule, noise, 64), [sc_threshold(rule, v, 64) for v in noise])


class TestLsEstimate:
    def test_zero_input(self):
        est = ls_estimate(np.zeros(4, complex))
        assert np.array_equal(est.channel, np.zeros(4))
        assert est.depth == 0 and est.support == ()

    def test_residual_is_zero_by_definition(self, rng):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        est = ls_estimate(x)
        assert est.residual_energy == 0.0
        assert np.array_equal(est.channel, x)

    def test_expected_rmse_at_snr(self):
        # LS relative error concentrates at 1/SNR
        rng = np.random.default_rng(17)
        arr = make_ula(64)
        total = 0.0
        draws = 2000
        for _ in range(draws):
            ch = generate_channel(arr, rng)
            s = observe(ch, 10.0, rng)
            est = ls_estimate(s.observation)
            total += energy(est.channel - s.channel) / energy(s.channel)
        db = 10 * np.log10(total / draws)
        assert db == pytest.approx(-10.0, abs=0.3)


class TestMatchingPursuit:
    def test_recovers_single_atom_with_sc_rule(self):
        d = make_incoherent_dictionary(16, 40)
        x = d.atoms[:, 7].copy()
        for rule in (StoppingRule.sc1(), StoppingRule.sc2(), StoppingRule.fixed(5)):
            est = matching_pursuit(d, x, rule, noise_var=0.0)
            assert est.support == (7,)
            assert est.depth == 1
            assert np.allclose(est.channel, x, atol=1e-12)

    def test_orthogonal_input_gives_zero_estimate(self):
        atoms = np.zeros((4, 2), complex)
        atoms[0, 0] = 1.0
        atoms[1, 1] = 1.0
        d = Dictionary(atoms, np.tile([0.0, 1.0, 0.0], (2, 1)))
        x = np.array([0.0, 0.0, 1.0, 1.0], complex)
        est = matching_pursuit(d, x, StoppingRule.fixed(3))
        assert est.depth == 3
        assert np.allclose(est.channel, 0.0)
        assert est.residual_energy == pytest.approx(energy(x))

    def test_two_atom_instance_against_bruteforce(self):
        d = make_incoherent_dictionary(24, 12, seed=5)
        x = 2.0 * d.atoms[:, 1] + d.atoms[:, 5]
        est = matching_pursuit(d, x, StoppingRule.fixed(2))
        assert set(est.support) == {1, 5}
        oracle = best_support_error(d.atoms, x, 2)
        # MP re-projects greedily, so it cannot beat the best 2-atom fit, but with
        # mildly coherent atoms it must land close to it
        assert np.sqrt(est.residual_energy) <= oracle + 0.2 * np.linalg.norm(x)

    def test_matches_reference_implementation(self, rng):
        d = make_incoherent_dictionary(8, 20, seed=2)
        for _ in range(25):
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            depth = int(rng.integers(1, 5))
            mine = matching_pursuit(d, x, StoppingRule.fixed(depth))
            ref_h, ref_support = ref_matching_pursuit(d.atoms, x, depth)
            assert mine.support == tuple(ref_support)
            assert np.allclose(mine.channel, ref_h, atol=1e-10)

    def test_estimate_consistency(self, rng):
        d = make_incoherent_dictionary(8, 16)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        est = matching_pursuit(d, x, StoppingRule.fixed(3))
        assert est.residual_energy == pytest.approx(energy(x - est.channel), rel=1e-9)
        assert est.depth == len(est.support)

    def test_rejects_zero_input_with_sc_rules(self):
        d = make_incoherent_dictionary(4, 8)
        with pytest.raises(ValueError):
            matching_pursuit(d, np.zeros(4, complex), StoppingRule.sc2(), noise_var=0.1)

    def test_rejects_unnormalized_dictionary(self):
        dirs = doa_grid_ula(16)
        with pytest.raises(ValueError, match="unit norm"):
            Dictionary(steering_matrix(make_ula(8), dirs), dirs)

    def test_argmax_tie_breaks_low_index(self):
        atoms = np.zeros((2, 2), complex)
        atoms[0, 0] = 1.0
        atoms[0, 1] = 1.0  # identical correlations
        d = Dictionary(atoms, np.tile([0.0, 1.0, 0.0], (2, 1)))
        est = matching_pursuit(d, np.array([2.0, 0.0], complex), StoppingRule.fixed(1))
        assert est.support == (0,)


class TestOmp:
    def test_single_atom_matches_mp(self):
        d = make_incoherent_dictionary(16, 32, seed=9)
        x = d.atoms[:, 3].copy()
        a = matching_pursuit(d, x, StoppingRule.sc2(), noise_var=0.0)
        b = omp(d, x, StoppingRule.sc2(), noise_var=0.0)
        assert a.support == b.support == (3,)
        assert np.allclose(a.channel, b.channel)

    def test_duplicate_free_support(self, rng):
        d = make_incoherent_dictionary(8, 16, seed=3)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        est = omp(d, x, StoppingRule.fixed(6, max_depth=6))
        assert len(set(est.support)) == len(est.support)

    def test_omp_never_worse_than_mp_on_sparse_inputs(self, rng):
        # paired runs on two-atom inputs over correlated atoms: while both
        # methods walk the same selections, the least-squares re-fit can only
        # shrink the residual
        d = make_incoherent_dictionary(12, 30, seed=8)
        for _ in range(50):
            i, j = rng.choice(30, size=2, replace=False)
            a, b = (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            x = a * d.atoms[:, i] + b * d.atoms[:, j]
            for depth in (1, 2):
                rule = StoppingRule.fixed(depth)
                assert omp(d, x, rule).residual_energy <= matching_pursuit(d, x, rule).residual_energy + 1e-12

    def test_exact_recovery_on_support(self):
        d = make_incoherent_dictionary(24, 12, seed=5)
        x = 2.0 * d.atoms[:, 1] + d.atoms[:, 5]
        est = omp(d, x, StoppingRule.fixed(2))
        assert set(est.support) == {1, 5}
        # once the true support is selected the least-squares re-fit is exact
        assert np.sqrt(est.residual_energy) == pytest.approx(best_support_error(d.atoms, x, 2), abs=1e-9)

    def test_residual_orthogonal_to_selected(self, rng):
        arr = perturb_array(make_ula(16), 0.3, 0.1, rng)
        d = build_dictionary(arr, doa_grid_ula(128))
        ch = generate_channel(arr, rng)
        s = observe(ch, 10.0, rng)
        est = omp(d, s.observation, StoppingRule.sc2(), s.noise_var)
        residual = s.observation - est.channel
        for idx in est.support:
            assert abs(np.vdot(d.atoms[:, idx], residual)) < 1e-9 * np.linalg.norm(s.observation)

    def test_rank_deficient_support_raises(self):
        atoms = np.zeros((4, 2), complex)
        atoms[:, 0] = [0.5, 0.5, 0.5, 0.5]
        atoms[:, 1] = atoms[:, 0]  # exact duplicate
        d = Dictionary(atoms, np.tile([0.0, 1.0, 0.0], (2, 1)))
        x = np.array([1.0, 1.0, 1.0, 2.0], complex)
        with pytest.raises(np.linalg.LinAlgError):
            omp(d, x, StoppingRule.fixed(2, max_depth=2))


class TestPursuitInvariants:
    def test_randomized_invariant_suite(self):
        # residuals non-increasing, selected correlation annihilated, caps hold
        rng = np.random.default_rng(33)
        d = make_incoherent_dictionary(16, 48, seed=12)
        for _ in range(400):
            x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            depth = int(rng.integers(1, 5))
            est = matching_pursuit(d, x, StoppingRule.fixed(depth))
            assert est.depth <= StoppingRule.fixed(depth).cap(16)
            r = x.copy()
            prev = np.linalg.norm(r)
            for s in est.support:
                r = r - d.atoms[:, s] * np.vdot(d.atoms[:, s], r)
                now = np.linalg.norm(r)
                assert now <= prev + 1e-12
                assert abs(np.vdot(d.atoms[:, s], r)) < 1e-9 * max(1.0, np.linalg.norm(x))
                prev = now

    def test_sc_rules_depth_ordering(self, rng):
        # the looser threshold (sc1) always stops at most as deep as sc2
        arr = perturb_array(make_ula(16), 0.2, 0.05, rng)
        d = build_dictionary(arr, doa_grid_ula(64))
        stream = ChannelStream(FixedSnr(10.0), arr, rng)
        for sample in stream.take(100):
            d1 = matching_pursuit(d, sample.observation, StoppingRule.sc1(), sample.noise_var).depth
            d2 = matching_pursuit(d, sample.observation, StoppingRule.sc2(), sample.noise_var).depth
            assert d1 <= d2


class TestEstimateType:
    def test_depth_support_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Estimate(np.zeros(4, complex), (1, 2), 3, 0.0)

    def test_negative_residual_rejected(self):
        with pytest.raises(ValueError):
            Estimate(np.zeros(4, complex), (), 0, -1.0)
