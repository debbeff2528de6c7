from copy import deepcopy

import numpy as np
import pytest

from mpnetlab import mpnet
from mpnetlab.arrays import build_dictionary, doa_grid_ula, make_ula, perturb_array
from mpnetlab.channels import ChannelStream, FixedSnr
from mpnetlab.estimators import StoppingRule, matching_pursuit
from mpnetlab.mpnet import (
    AdamState,
    MpNetModel,
    OnlineTrainer,
    TrainConfig,
    adam_step,
    backward,
    estimate,
    forward,
    load_checkpoint,
    save_checkpoint,
    xavier_init,
)
from mpnetlab.experiments import train_online
from mpnetlab.utils import complex_normal, energy

from conftest import make_incoherent_dictionary
from reference import numerical_gradient, ref_adam_step, selection_margin


def random_model(rng, n=6, a=12, depth=3):
    w = (rng.standard_normal((n, a)) + 1j * rng.standard_normal((n, a))) / np.sqrt(n)
    return MpNetModel(w, StoppingRule.fixed(depth))


def unit_vector(rng, n):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x / np.linalg.norm(x)


class TestForward:
    def test_matches_matching_pursuit_at_init(self, rng):
        d = make_incoherent_dictionary(16, 40, seed=4)
        model = MpNetModel.from_dictionary(d, StoppingRule.fixed(4))
        for _ in range(50):
            x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            mp = matching_pursuit(d, x, StoppingRule.fixed(4))
            est = estimate(model, x)
            assert mp.support == est.support
            assert np.max(np.abs(mp.channel - est.channel)) < 1e-9

    def test_recovers_own_column(self, rng):
        model = random_model(rng, n=8, a=16, depth=4)
        model.weights /= np.linalg.norm(model.weights, axis=0, keepdims=True)
        model.rule = StoppingRule.sc2()
        x = model.weights[:, 5].copy()
        est = forward(model, x, 0.0)
        assert est.depth == 1
        assert est.support == (5,)
        assert est.residual_energy < 1e-20

    def test_rejects_non_unit_input(self, rng):
        model = random_model(rng)
        with pytest.raises(ValueError):
            forward(model, np.ones(6, complex), 0.0)

    def test_depth_never_exceeds_cap(self, rng):
        model = random_model(rng, n=12, a=16)
        model.rule = StoppingRule.sc2()  # cap max(12 // 4, 1) = 3
        for _ in range(20):
            assert forward(model, unit_vector(rng, 12), 0.0).depth <= 3

    def test_trace_replay_is_deterministic(self, rng):
        model = random_model(rng)
        x = unit_vector(rng, 6)
        e1, e2 = forward(model, x, 0.0), forward(model, x, 0.0)
        assert e1.support == e2.support
        assert np.array_equal(e1.channel, e2.channel)
        assert e1.residual_energy == e2.residual_energy


class TestBackward:
    def test_matches_finite_differences(self, rng):
        # oracle: central differences over every real coordinate, instances
        # filtered so the perturbation cannot flip a selection
        step = 1e-6
        checked = 0
        while checked < 15:
            model = random_model(rng)
            x = unit_vector(rng, 6)
            if selection_margin(model.weights, x, 3) < 200 * step:
                continue
            checked += 1
            grad = backward(model, forward(model, x, 0.0), x)

            def cost(w):
                return 0.5 * forward(MpNetModel(w, model.rule), x, 0.0).residual_energy

            fd = numerical_gradient(cost, model.weights, step)
            rel = np.max(np.abs(fd - grad)) / np.max(np.abs(fd))
            assert rel < 1e-6

    def test_zero_depth_zero_gradient(self, rng):
        model = random_model(rng)
        model.rule = StoppingRule.sc2()
        x = unit_vector(rng, 6)
        # huge noise floor stops the network before the first layer
        est = forward(model, x, noise_var_norm=1.0)
        assert est.depth == 0
        grad = backward(model, est, x)
        assert np.all(grad == 0.0)

    def test_gradient_support_is_trace_support(self, rng):
        model = random_model(rng, n=8, a=20, depth=3)
        x = unit_vector(rng, 8)
        est = forward(model, x, 0.0)
        grad = backward(model, est, x)
        untouched = np.setdiff1d(np.arange(20), np.asarray(est.support))
        assert np.all(grad[:, untouched] == 0.0)
        assert np.all(np.abs(grad[:, list(set(est.support))]) > 0.0)

    def test_stale_trace_rejected(self, rng):
        model = random_model(rng)
        x = unit_vector(rng, 6)
        est = forward(model, x, 0.0)
        model.weights = model.weights + 0.05
        with pytest.raises(ValueError, match="stale"):
            backward(model, est, x)

    def test_original_scale_estimate_rejected(self, rng):
        # estimate() rescales to the observation: its channel is not x_unit's
        model = random_model(rng)
        x = 3.0 * unit_vector(rng, 6)
        est = estimate(model, x)
        assert est.support == forward(model, x / 3.0, 0.0).support
        with pytest.raises(ValueError, match="stale"):
            backward(model, est, x / 3.0)


class TestAdam:
    def test_zero_gradient_leaves_weights(self, rng):
        w = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        state = AdamState.for_shape(w.shape)
        out, _ = adam_step(state, w, np.zeros_like(w))
        assert np.array_equal(out, w)

    def test_rate_schedule(self):
        state = AdamState.for_shape((2, 2), base_rate=1e-3, decay=0.9, decay_every=200)
        w = np.zeros((2, 2), complex)
        g = np.ones((2, 2), complex)
        for _ in range(200):
            w, state = adam_step(state, w, g)
        assert state.learning_rate == pytest.approx(1e-3 * 0.9)
        for _ in range(200):
            w, state = adam_step(state, w, g)
        assert state.learning_rate == pytest.approx(1e-3 * 0.81)

    def test_constant_gradient_update_magnitude(self):
        # with a constant gradient the bias-corrected update settles at the rate
        state = AdamState.for_shape((1, 1), base_rate=1e-3, decay_every=10**9)
        w = np.zeros((1, 1), complex)
        g = np.full((1, 1), 0.25 + 0.0j)
        prev = w.copy()
        for _ in range(50):
            prev, before = w.copy(), state
            m, v, step = state.m.copy(), state.v.copy(), state.step
            w, state = adam_step(state, w, g)
            # the update makes a new state and leaves the one it was given as it was
            assert np.array_equal(before.m, m) and np.array_equal(before.v, v) and before.step == step
        assert abs(w - prev)[0, 0] == pytest.approx(1e-3, rel=0.01)

    def test_shape_mismatch_rejected(self):
        state = AdamState.for_shape((2, 2))
        with pytest.raises(ValueError):
            adam_step(state, np.zeros((2, 2), complex), np.zeros((3, 2), complex))

    @pytest.mark.parametrize("seed", range(40))
    def test_bit_equal_to_the_whole_array_expressions(self, seed):
        rng = np.random.default_rng(seed)
        n, a = (int(d) for d in rng.integers(1, 9, 2))
        cfg = TrainConfig(
            base_rate=10.0 ** rng.uniform(-5, 0),
            decay=rng.uniform(0.5, 1.0),
            decay_every=int(rng.integers(1, 300)),
            beta1=rng.uniform(0.0, 0.999),
            beta2=rng.uniform(0.0, 0.9999),
            eps=10.0 ** rng.uniform(-12, -4),
        )
        scale = 10.0 ** rng.uniform(-8, 4, (2, n, a))  # magnitudes far apart, so rounding shows
        m, v = rng.standard_normal((2, n, a)) * scale, rng.standard_normal((2, n, a)) ** 2 * scale**2
        v[0, 0, 0] = 0.0
        state = AdamState(m, v, cfg, int(rng.integers(0, 2000)))
        weights = complex_normal(rng, (n, a)) * 10.0 ** rng.uniform(-3, 3)
        grad = (complex_normal(rng, (a, n)) * 10.0 ** rng.uniform(-6, 2, (a, n))).T  # a transposed view, as the trainer passes it
        grad[0, 0] = 0.0
        inputs = [x.copy() for x in (m, v, weights, grad)]
        new, nxt = adam_step(state, weights, grad)
        expected, ref_m, ref_v = ref_adam_step(m, v, state.step, cfg, weights, grad)
        assert np.array_equal(new, expected) and np.array_equal(nxt.m, ref_m) and np.array_equal(nxt.v, ref_v)
        assert new.tobytes() == expected.tobytes() and nxt.m.tobytes() == ref_m.tobytes() and nxt.v.tobytes() == ref_v.tobytes()
        assert new.flags.c_contiguous and nxt.m.flags.c_contiguous and nxt.v.flags.c_contiguous
        assert nxt.step == state.step + 1 and nxt.cfg is cfg
        assert all(x.tobytes() == y.tobytes() for x, y in zip((m, v, weights, grad), inputs))


class TestXavierInit:
    def test_entry_variance(self):
        # the draw before the columns are normalized: complex entries of variance 2 / (N + A)
        w = complex_normal(np.random.default_rng(0), (64, 512), 2.0 / (64 + 512))
        assert np.var(w.view(float)) * 2 == pytest.approx(2.0 / (64 + 512), rel=0.05)

    def test_unit_columns_after_normalization(self, rng):
        w = xavier_init(16, 64, rng)
        assert np.allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-9)

    def test_reproducible(self):
        a = xavier_init(8, 16, np.random.default_rng(5))
        b = xavier_init(8, 16, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestEstimate:
    def test_scale_invariance(self, rng):
        d = make_incoherent_dictionary(8, 24, seed=6)
        model = MpNetModel.from_dictionary(d, StoppingRule.sc2())
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        noise_var = 0.05 * energy(x) / 8
        base = estimate(model, x, noise_var)
        for c in (0.1, 3.0, 250.0):
            scaled = estimate(model, c * x, c**2 * noise_var)
            assert scaled.support == base.support
            assert scaled.depth == base.depth
            assert np.allclose(scaled.channel, c * base.channel, rtol=1e-9, atol=1e-12)

    def test_zero_input_rejected(self, rng):
        model = random_model(rng)
        with pytest.raises(ValueError):
            estimate(model, np.zeros(6, complex))

    def test_residual_energy_consistent(self, rng):
        d = make_incoherent_dictionary(8, 24, seed=6)
        model = MpNetModel.from_dictionary(d, StoppingRule.fixed(3))
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        est = estimate(model, x)
        assert est.residual_energy == pytest.approx(energy(x - est.channel), rel=1e-9)


class TestTraining:
    def _tiny_setup(self, seed=0):
        rng = np.random.default_rng(seed)
        nominal = make_ula(16)
        true = perturb_array(nominal, 0.3, 0.1, rng)
        d = build_dictionary(nominal, doa_grid_ula(64))
        stream = ChannelStream(FixedSnr(10.0), true, rng)
        return d, stream

    def test_cost_decreases_on_repeated_sample(self, rng, tmp_path):
        # a stream of identical noiseless atom-aligned inputs is the easiest task
        d = make_incoherent_dictionary(8, 16, seed=1)
        target = 0.7 * d.atoms[:, 2] + 0.3 * d.atoms[:, 9]
        from mpnetlab.channels import ChannelSample, ReplayStream, SampleBatch, dump_stream

        sample = ChannelSample(target, target, 1e-6, 60.0)
        dump_stream(SampleBatch.of([sample] * 200), tmp_path / "stream.csv")
        model = MpNetModel.from_dictionary(d, StoppingRule.fixed(2))
        cfg = TrainConfig(minibatch_size=10, base_rate=1e-2)
        costs = train_online(model, ReplayStream(tmp_path / "stream.csv"), 200, cfg).mean_cost["mpnet"].tolist()
        # monotone over the first few minibatches, then near zero (Adam's
        # fixed-magnitude steps dither once the cost is tiny)
        assert all(b < a for a, b in zip(costs[:5], costs[1:6]))
        assert costs[-1] < 0.05 * costs[0]

    def test_two_runs_identical_trajectory(self):
        d1, s1 = self._tiny_setup(3)
        d2, s2 = self._tiny_setup(3)
        cfg = TrainConfig(minibatch_size=50)
        m1 = MpNetModel.from_dictionary(d1, StoppingRule.sc2())
        m2 = MpNetModel.from_dictionary(d2, StoppingRule.sc2())
        r1 = train_online(m1, s1, 400, cfg)
        r2 = train_online(m2, s2, 400, cfg)
        assert np.array_equal(m1.weights, m2.weights)
        assert r1.rmse_linear["mpnet"].tolist() == r2.rmse_linear["mpnet"].tolist()

    def test_partial_minibatch_not_applied(self):
        d, stream = self._tiny_setup(5)
        cfg = TrainConfig(minibatch_size=50)
        model = MpNetModel.from_dictionary(d, StoppingRule.sc2())
        result = train_online(model, stream, 130, cfg)
        assert len(result.records) == 2  # the trailing 30 samples trigger no update

    def test_returns_a_record_per_minibatch(self):
        d, stream = self._tiny_setup(6)
        cfg = TrainConfig(minibatch_size=25)
        model = MpNetModel.from_dictionary(d, StoppingRule.sc2())
        result = train_online(model, stream, 100, cfg)
        assert result.estimator_names == ("mpnet",) and result.records.shape == (4, 1)
        assert result.depth_counts["mpnet"].sum() == 100
        assert np.isfinite(result.rmse_linear["mpnet"]).all()

    def test_learning_improves_over_nominal_start(self):
        # small-scale version of the headline behavior: online updates beat the
        # frozen imperfect dictionary within a few minibatches
        rng = np.random.default_rng(8)
        nominal = make_ula(16)
        true = perturb_array(nominal, 0.3, 0.1, rng)
        d = build_dictionary(nominal, doa_grid_ula(128))
        stream = ChannelStream(FixedSnr(10.0), true, rng)
        model = MpNetModel.from_dictionary(d, StoppingRule.sc2())
        cfg = TrainConfig(minibatch_size=200)
        curve = train_online(model, stream, 8000, cfg).rmse_linear["mpnet"]
        assert curve[-1] < curve[0] * 0.9

    def test_trainer_rejects_zero_observation(self):
        from mpnetlab.channels import ChannelSample, SampleBatch

        d = make_incoherent_dictionary(4, 8)
        trainer = OnlineTrainer(MpNetModel.from_dictionary(d, StoppingRule.fixed(1)))
        dead = ChannelSample(np.ones(4, complex), np.zeros(4, complex), 0.0, 10.0)
        with pytest.raises(ValueError, match="zero observation"):
            trainer.step(SampleBatch.of([dead]))
        with pytest.raises(ValueError, match="no samples"):
            trainer.step(SampleBatch.of([]))


class TestCheckpoints:
    def test_roundtrip(self, tmp_path, rng):
        d = make_incoherent_dictionary(8, 16, seed=7)
        model = MpNetModel.from_dictionary(d, StoppingRule.sc1())
        trainer = OnlineTrainer(model, TrainConfig(minibatch_size=4))
        stream = ChannelStream(FixedSnr(10.0), make_ula(8), rng)
        trainer.step(stream.take(4))
        path = tmp_path / "model.npz"
        save_checkpoint(path, trainer.model, trainer.adam)
        loaded, adam = load_checkpoint(path)
        assert np.array_equal(loaded.weights, trainer.model.weights)
        assert loaded.rule == trainer.model.rule
        assert adam.step == 1
        assert np.array_equal(adam.m, trainer.adam.m)
        assert np.array_equal(adam.v, trainer.adam.v)

    def test_resumed_trainer_steps_as_the_original(self, tmp_path, rng):
        # at a minibatch boundary a trainer is its weights, rule and Adam state,
        # and the checkpoint holds all of them: the whole TrainConfig too
        d = make_incoherent_dictionary(8, 16, seed=7)
        trainer = OnlineTrainer(MpNetModel.from_dictionary(d, StoppingRule.sc2()), TrainConfig(minibatch_size=50, decay_every=2))
        stream = ChannelStream(FixedSnr(10.0), make_ula(8), rng)
        for _ in range(3):
            trainer.step(stream.take(50))
        save_checkpoint(tmp_path / "model.npz", trainer.model, trainer.adam)
        model, adam = load_checkpoint(tmp_path / "model.npz")
        assert adam.cfg == trainer.adam.cfg and model.rule == trainer.model.rule
        resumed = OnlineTrainer(model, adam.cfg)
        resumed.adam = adam
        batch = stream.take(50)
        (estimates, cost), (resumed_estimates, resumed_cost) = trainer.step(batch), resumed.step(batch)
        assert resumed.adam.step == trainer.adam.step == 4
        for got, expected in ((resumed.model.weights, trainer.model.weights), (resumed.adam.m, trainer.adam.m), (resumed.adam.v, trainer.adam.v)):
            assert got.tobytes() == expected.tobytes()
        for field in ("channel", "depth", "support", "residual_energy"):
            assert getattr(resumed_estimates, field).tobytes() == getattr(estimates, field).tobytes()
        assert repr(resumed_cost) == repr(cost)

    def test_version_1_file_rejected(self, tmp_path, rng):
        # format 1 stored the weights as w_re/w_im, the rule as kind/depth/max_depth
        # with -1 for unset, and six of the seven TrainConfig fields
        w = random_model(rng).weights
        np.savez(
            tmp_path / "old.npz",
            format_version=np.array(1), w_re=w.real, w_im=w.imag, init=np.array("nominal_dictionary"),
            rule_kind=np.array("fixed"), rule_depth=np.array(3), rule_max_depth=np.array(-1),
        )
        with pytest.raises(ValueError) as exc:
            load_checkpoint(tmp_path / "old.npz")
        assert str(exc.value) == "unsupported checkpoint version 1"


class TestCheckpointValidation:
    @pytest.mark.parametrize("key", ["adam_m", "adam_v"])
    @pytest.mark.parametrize("edit", [lambda m: m[:, :, :-1], lambda m: m[0], lambda m: m[:, :-1, :]])
    def test_mismatched_adam_moments_rejected(self, tmp_path, rng, key, edit):
        model = random_model(rng)
        save_checkpoint(tmp_path / "model.npz", model, AdamState.for_shape(model.weights.shape))
        with np.load(tmp_path / "model.npz") as data:
            payload = dict(data)
        payload[key] = edit(payload[key])
        np.savez(tmp_path / "edited.npz", **payload)
        with pytest.raises(ValueError, match=f"{key} has shape") as exc:
            load_checkpoint(tmp_path / "edited.npz")
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize(
        "token, message",
        [
            ("sc3", "unknown stopping rule 'sc3'"),
            ("fixed03", "bad fixed-depth rule 'fixed03'"),
            ("fixed0", "fixed rules need depth >= 1"),
        ],
    )
    def test_bad_rule_rejected(self, tmp_path, rng, token, message):
        model = random_model(rng)
        save_checkpoint(tmp_path / "model.npz", model, AdamState.for_shape(model.weights.shape))
        with np.load(tmp_path / "model.npz") as data:
            payload = dict(data)
        payload["rule"] = np.array(token)
        np.savez(tmp_path / "edited.npz", **payload)
        with pytest.raises(ValueError) as exc:
            load_checkpoint(tmp_path / "edited.npz")
        assert str(exc.value) == f"checkpoint rule: {message}"

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("adam_step", lambda step: np.array(-400)),
            ("adam_m", lambda m: np.where(np.arange(m.size).reshape(m.shape) == 3, np.nan, m)),
            ("adam_m", lambda m: np.full_like(m, np.inf)),
            ("adam_v", lambda v: np.where(np.arange(v.size).reshape(v.shape) == 5, np.nan, v)),
            ("adam_v", lambda v: np.full_like(v, -np.inf)),
            ("adam_v", lambda v: v - 2.0 * v.max()),
        ],
        ids=["negative_step", "nan_m", "inf_m", "nan_v", "minus_inf_v", "negative_v"],
    )
    def test_corrupt_adam_state_rejected(self, tmp_path, rng, key, edit):
        d = make_incoherent_dictionary(8, 16, seed=7)
        trainer = OnlineTrainer(MpNetModel.from_dictionary(d, StoppingRule.sc2()), TrainConfig(minibatch_size=4))
        trainer.step(ChannelStream(FixedSnr(), make_ula(8), rng).take(4))
        save_checkpoint(tmp_path / "model.npz", trainer.model, trainer.adam)
        with np.load(tmp_path / "model.npz") as data:
            payload = dict(data)
        np.savez(tmp_path / "unedited.npz", **payload)
        assert load_checkpoint(tmp_path / "unedited.npz")[1].step == 1
        payload[key] = edit(payload[key])
        np.savez(tmp_path / "edited.npz", **payload)
        with pytest.raises(ValueError, match=f"^checkpoint {key} ") as exc:
            load_checkpoint(tmp_path / "edited.npz")
        assert "\n" not in str(exc.value)


class TestDivergenceGuard:
    def test_nan_gradient_raises_and_keeps_weights(self, rng, monkeypatch):
        d = make_incoherent_dictionary(8, 16, seed=2)
        model = MpNetModel.from_dictionary(d, StoppingRule.sc2())
        trainer = OnlineTrainer(model, TrainConfig(minibatch_size=4), name="mpnet:nominal:sc2")
        stream = ChannelStream(FixedSnr(10.0), make_ula(8), rng)
        trainer.step(stream.take(4))
        before = model.weights.copy()
        original = mpnet.adam_step
        monkeypatch.setattr(mpnet, "adam_step", lambda state, w, grad: original(state, w, grad * np.nan))
        with pytest.raises(ValueError, match="mpnet:nominal:sc2: non-finite weights .* minibatch 2"):
            trainer.step(stream.take(4))
        assert np.array_equal(model.weights, before)

    def test_rejected_update_leaves_the_trainer_as_it_was(self, rng, monkeypatch):
        # a trainer that rejects an update keeps its weights and Adam state, and
        # steps on from them as a copy taken before the rejected minibatch does
        d = make_incoherent_dictionary(8, 16, seed=2)
        trainer = OnlineTrainer(MpNetModel.from_dictionary(d, StoppingRule.sc2()), TrainConfig(minibatch_size=4))
        stream = ChannelStream(FixedSnr(10.0), make_ula(8), rng)
        trainer.step(stream.take(4))
        copy = deepcopy(trainer)
        original = mpnet.adam_step
        with monkeypatch.context() as patched:
            patched.setattr(mpnet, "adam_step", lambda state, w, grad: original(state, w, grad * np.nan))
            with pytest.raises(ValueError, match="non-finite weights .* minibatch 2"):
                trainer.step(stream.take(4))
        assert trainer.adam.step == copy.adam.step == 1
        for got, expected in ((trainer.model.weights, copy.model.weights), (trainer.adam.m, copy.adam.m), (trainer.adam.v, copy.adam.v)):
            assert got.tobytes() == expected.tobytes()
        batch = stream.take(4)
        (estimates, cost), (copy_estimates, copy_cost) = trainer.step(batch), copy.step(batch)
        assert trainer.adam.step == copy.adam.step == 2
        for got, expected in ((trainer.model.weights, copy.model.weights), (trainer.adam.m, copy.adam.m), (trainer.adam.v, copy.adam.v)):
            assert got.tobytes() == expected.tobytes()
        for field in ("channel", "depth", "support", "residual_energy"):
            assert getattr(estimates, field).tobytes() == getattr(copy_estimates, field).tobytes()
        assert repr(cost) == repr(copy_cost)


class TestComplexityStructure:
    def test_forward_work_is_one_correlation_per_layer(self, rng):
        # the dominant cost is depth * (N * A) multiplies: one full correlation
        # per layer; count them through the matmul entry point
        model = random_model(rng, n=8, a=32, depth=4)
        x = unit_vector(rng, 8)
        calls = {"n": 0}
        original = np.ndarray.__matmul__

        depth = forward(model, x, 0.0).depth

        class Counting(np.ndarray):
            def __matmul__(self, other):
                calls["n"] += 1
                return original(self, other)

        model.weights = model.weights.view(Counting)
        forward(model, x, 0.0)
        assert calls["n"] == depth

    def test_backward_touches_only_support_columns(self, rng):
        # O(depth * N) structure: every nonzero gradient column is in the support
        model = random_model(rng, n=8, a=64, depth=3)
        x = unit_vector(rng, 8)
        est = forward(model, x, 0.0)
        grad = backward(model, est, x)
        nonzero_cols = np.flatnonzero(np.any(grad != 0.0, axis=0))
        assert set(nonzero_cols) <= set(est.support)
        assert len(nonzero_cols) <= est.depth


class TestAdamStateConfig:
    def test_trainer_state_holds_its_config(self, rng):
        cfg = TrainConfig(minibatch_size=4, base_rate=2e-3, decay_every=7, beta2=0.99)
        trainer = OnlineTrainer(random_model(rng), cfg)
        assert trainer.adam.cfg is cfg
        assert trainer.adam.m.shape == trainer.adam.v.shape == (2, 6, 12)
        assert trainer.adam.learning_rate == 2e-3

    def test_for_shape_takes_train_config_fields(self):
        state = AdamState.for_shape((3, 5), base_rate=1e-2, eps=1e-6)
        assert state.cfg == TrainConfig(base_rate=1e-2, eps=1e-6)
        assert state.m.shape == (2, 3, 5)
        with pytest.raises(ValueError, match="^beta1 must be in"):
            AdamState.for_shape((3, 5), beta1=1.0)

    def test_checkpoint_keys_and_hyperparameters_round_trip(self, tmp_path, rng):
        model = random_model(rng)
        fields = dict(minibatch_size=50, base_rate=5e-3, decay=0.5, decay_every=3, beta1=0.8, beta2=0.95, eps=1e-7)
        save_checkpoint(tmp_path / "model.npz", model, AdamState.for_shape(model.weights.shape, **fields))
        with np.load(tmp_path / "model.npz") as data:
            keys = data.files
        assert keys == [
            "format_version", "weights", "rule", "adam_m", "adam_v", "adam_step", "adam_minibatch_size",
            "adam_base_rate", "adam_decay", "adam_decay_every", "adam_beta1", "adam_beta2", "adam_eps",
        ]
        loaded, adam = load_checkpoint(tmp_path / "model.npz")
        assert loaded.weights.tobytes() == model.weights.tobytes() and loaded.rule == model.rule
        assert adam.cfg == TrainConfig(**fields)
        assert type(adam.cfg.decay_every) is int and type(adam.cfg.minibatch_size) is int

    @pytest.mark.parametrize("key, value", [("adam_beta2", 1.5), ("adam_decay_every", 0), ("adam_eps", -1.0), ("adam_eps", np.inf), ("adam_minibatch_size", 0)])
    def test_out_of_range_hyperparameter_rejected(self, tmp_path, rng, key, value):
        model = random_model(rng)
        save_checkpoint(tmp_path / "model.npz", model, AdamState.for_shape(model.weights.shape))
        with np.load(tmp_path / "model.npz") as data:
            payload = dict(data)
        payload[key] = np.array(value)
        np.savez(tmp_path / "edited.npz", **payload)
        with pytest.raises(ValueError, match=f"^checkpoint {key} must be ") as exc:
            load_checkpoint(tmp_path / "edited.npz")
        assert "\n" not in str(exc.value)
