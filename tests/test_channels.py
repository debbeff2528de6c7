import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mpnetlab.arrays import build_dictionary, doa_grid_ula, make_ula, make_upa, perturb_array
from mpnetlab.channels import (
    ArrayEvent,
    ChannelGenConfig,
    ChannelSample,
    ChannelStream,
    FixedSnr,
    ReplayStream,
    SampleBatch,
    TruncatedGaussianSnr,
    age_antennas,
    break_antennas,
    dump_stream,
    generate_channel,
    load_stream,
    observe,
    sample_snr,
    sample_to_row,
    stream_rows,
)
from mpnetlab.arrays import steering_vector
from mpnetlab.estimators import StoppingRule, pursuit_batch
from mpnetlab.utils import energy


class TestGenerateChannel:
    def test_single_path_matches_steering_vector(self, rng):
        arr = perturb_array(make_ula(16), 0.2, 0.05, rng)
        cfg = ChannelGenConfig(paths_min=1, paths_max=1, gain_decay=1.0)
        ch = generate_channel(cfg, arr, rng)
        assert ch.n_paths == 1
        expected = ch.gains[0] * steering_vector(arr, ch.directions[0])
        assert np.allclose(ch.vector, expected)

    def test_path_count_bounds(self, rng):
        cfg = ChannelGenConfig(paths_min=1, paths_max=10)
        arr = make_ula(8)
        counts = {generate_channel(cfg, arr, rng).n_paths for _ in range(300)}
        assert counts <= set(range(1, 11))
        assert len(counts) > 3

    def test_mean_energy_matches_closed_form(self):
        # E||h||^2 = sum_p decay^p * sum_i |g_i|^2 for independent CN gains
        rng = np.random.default_rng(42)
        arr = perturb_array(make_ula(16), 0.3, 0.1, rng)
        cfg = ChannelGenConfig(paths_min=4, paths_max=4, gain_decay=0.7)
        draws = [energy(generate_channel(cfg, arr, rng).vector) for _ in range(10_000)]
        expected = sum(0.7**p for p in range(4)) * energy(arr.gains)
        assert np.mean(draws) == pytest.approx(expected, rel=0.05)

    def test_rejects_zero_path_config(self):
        with pytest.raises(ValueError):
            ChannelGenConfig(paths_min=0)

    def test_clustered_directions_stay_in_domain(self, rng):
        cfg = ChannelGenConfig(paths_min=5, paths_max=5, cluster_std_deg=3.0)
        ch = generate_channel(cfg, make_upa(4, 2), rng)
        assert np.all(ch.directions[:, 1] >= 0.0)
        spread = ch.directions.std(axis=0).max()
        assert spread < 0.3  # tight cluster

    @pytest.mark.parametrize("cfg", [ChannelGenConfig(), ChannelGenConfig(cluster_std_deg=3.0)], ids=["default", "clustered"])
    def test_directions_follow_the_array_geometry(self, rng, cfg):
        # a UPA draws from the y > 0 hemisphere, off the z = 0 plane; a ULA stays on it
        planar = np.concatenate([generate_channel(cfg, make_upa(4, 4), rng).directions for _ in range(20)])
        assert np.all(planar[:, 1] >= 0.0)
        assert np.mean(np.abs(planar[:, 2]) > 1e-3) > 0.5
        linear = np.concatenate([generate_channel(cfg, make_ula(8), rng).directions for _ in range(20)])
        assert np.all(linear[:, 2] == 0.0)
        assert np.all(linear[:, 1] >= 0.0)


class TestObserve:
    def test_infinite_snr_is_noiseless(self, rng):
        ch = generate_channel(ChannelGenConfig(), make_ula(8), rng)
        sample = observe(ch, math.inf, rng)
        assert sample.noise_var == 0.0
        assert np.array_equal(sample.observation, ch.vector)

    def test_noise_variance_formula(self, rng):
        arr = make_ula(64)
        ch = generate_channel(ChannelGenConfig(), arr, rng)
        sample = observe(ch, 10.0, rng)
        assert sample.noise_var == pytest.approx(energy(ch.vector) / 640.0, rel=1e-12)
        # recorded SNR back-solves exactly
        implied = energy(sample.channel) / (64 * sample.noise_var)
        assert 10.0 * np.log10(implied) == pytest.approx(sample.snr_db, rel=1e-12)

    def test_preserves_ground_truth(self, rng):
        ch = generate_channel(ChannelGenConfig(), make_ula(8), rng)
        before = ch.vector.copy()
        observe(ch, 0.0, rng)
        assert np.array_equal(ch.vector, before)

    def test_noise_energy_concentration(self):
        # empirical ||x - h||^2 / (N sigma^2) concentrates at 1
        rng = np.random.default_rng(7)
        arr = make_ula(16)
        ch = generate_channel(ChannelGenConfig(), arr, rng)
        total = 0.0
        draws = 10_000
        for _ in range(draws):
            s = observe(ch, 5.0, rng)
            total += energy(s.observation - s.channel) / (16 * s.noise_var)
        assert total / draws == pytest.approx(1.0, abs=0.03)


class TestSampleSnr:
    def test_fixed_model(self, rng):
        assert sample_snr(FixedSnr(10.0), rng) == 10.0

    def test_degenerate_gaussian(self, rng):
        model = TruncatedGaussianSnr(mean_db=10.0, std_db=0.0, floor_db=1.0)
        assert sample_snr(model, rng) == 10.0

    def test_floor_respected(self, rng):
        model = TruncatedGaussianSnr(mean_db=10.0, std_db=4.0, floor_db=1.0)
        values = [sample_snr(model, rng) for _ in range(5000)]
        assert min(values) >= 1.0

    def test_mean_matches_truncated_normal(self):
        rng = np.random.default_rng(3)
        model = TruncatedGaussianSnr(mean_db=10.0, std_db=4.0, floor_db=1.0)
        values = [sample_snr(model, rng) for _ in range(100_000)]
        a = (model.floor_db - model.mean_db) / model.std_db
        expected = stats.truncnorm.mean(a, np.inf, loc=model.mean_db, scale=model.std_db)
        assert np.mean(values) == pytest.approx(expected, abs=0.1)

    def test_rejects_hopeless_floor(self):
        with pytest.raises(ValueError):
            TruncatedGaussianSnr(mean_db=0.0, std_db=1.0, floor_db=30.0)


class TestBreakAntennas:
    def test_zero_fraction_identity(self, rng):
        arr = make_ula(16)
        out = break_antennas(arr, 0.0, rng)
        assert np.array_equal(out.gains, arr.gains)

    def test_thirty_percent_of_64(self, rng):
        out = break_antennas(make_ula(64), 0.3, rng)
        assert int(np.sum(out.gains == 0.0)) == 19

    def test_rounding_ties_prefer_fewer(self, rng):
        out = break_antennas(make_ula(10), 0.25, rng)  # 2.5 antennas
        assert int(np.sum(out.gains == 0.0)) == 2

    def test_full_break_then_dictionary_rejects(self, rng):
        dead = break_antennas(make_ula(8), 1.0, rng)
        assert np.all(dead.gains == 0.0)
        with pytest.raises(ValueError):
            build_dictionary(dead, doa_grid_ula(16))

    def test_unbroken_array_draws_as_a_choice_of_all_antennas(self):
        out = break_antennas(make_ula(64), 0.3, np.random.default_rng(4))
        expected = np.random.default_rng(4).choice(64, size=19, replace=False)
        assert np.array_equal(np.flatnonzero(out.gains == 0.0), np.sort(expected))

    @pytest.mark.parametrize("seed", range(10))
    def test_second_break_takes_its_fraction_of_the_working_antennas(self, seed):
        rng = np.random.default_rng(seed)
        once = break_antennas(make_ula(16), 0.9, rng)  # 14 broken
        twice = break_antennas(once, 0.5, rng)  # 1 of the 2 left
        assert int(np.sum(twice.gains == 0.0)) == 15
        assert np.all(twice.gains[once.gains == 0.0] == 0.0)
        assert np.all(break_antennas(once, 0.9, rng).gains == 0.0)  # 2 of the 2 left

    def test_positions_unchanged(self, rng):
        arr = make_ula(16)
        out = break_antennas(arr, 0.5, rng)
        assert np.array_equal(out.positions, arr.positions)

    def test_rejects_bad_fraction(self, rng):
        with pytest.raises(ValueError):
            break_antennas(make_ula(4), 1.5, rng)


class TestAgeAntennas:
    def test_zero_std_identity(self, rng):
        arr = make_ula(8)
        out = age_antennas(arr, 0.0, rng)
        assert np.array_equal(out.gains, arr.gains)

    def test_cumulative_variance(self):
        # ten aging steps accumulate variance 10 * std^2
        rng = np.random.default_rng(11)
        arr = make_ula(200)
        deviations = []
        for _ in range(50):
            aged = arr
            for _ in range(10):
                aged = age_antennas(aged, 0.1, rng)
            deviations.append(aged.gains - arr.gains)
        sample_var = np.var(np.concatenate(deviations))  # complex variance
        assert sample_var == pytest.approx(10 * 0.1**2, rel=0.1)

    def test_two_steps_match_one_wider_step_in_distribution(self):
        rng = np.random.default_rng(21)
        arr = make_ula(1)
        two = np.array(
            [age_antennas(age_antennas(arr, 0.1, rng), 0.1, rng).gains[0] - 1.0 for _ in range(10_000)]
        )
        one = np.array(
            [age_antennas(arr, 0.1 * math.sqrt(2.0), rng).gains[0] - 1.0 for _ in range(10_000)]
        )
        ks = stats.ks_2samp(two.real, one.real)
        assert ks.pvalue > 1e-3
        assert np.var(two) == pytest.approx(np.var(one), rel=0.1)


class TestStream:
    def test_same_seed_same_sequence(self):
        arr = make_ula(8)
        cfg = ChannelGenConfig(snr=FixedSnr(10.0))
        a = ChannelStream(cfg, arr, np.random.default_rng(3)).take(20)
        b = ChannelStream(cfg, arr, np.random.default_rng(3)).take(20)
        for s, t in zip(a, b):
            assert np.array_equal(s.observation, t.observation)
            assert np.array_equal(s.channel, t.channel)
            assert s.noise_var == t.noise_var

    def test_take_zero(self, rng):
        stream = ChannelStream(ChannelGenConfig(), make_ula(4), rng)
        assert len(stream.take(0)) == 0

    def test_break_event_switches_array(self):
        arr = make_ula(32)
        cfg = ChannelGenConfig(snr=FixedSnr(math.inf))
        events = [ArrayEvent(index=5, kind="break", fraction=0.5)]
        stream = ChannelStream(cfg, arr, np.random.default_rng(0), events)
        samples = list(stream.take(10))
        # noiseless samples expose the channel: before the event no antenna is
        # silenced, afterwards the same 16 entries are zero in every sample
        assert all(np.all(s.channel != 0.0) for s in samples[:5])
        broken_masks = [s.channel == 0.0 for s in samples[5:]]
        assert all(mask.sum() == 16 for mask in broken_masks)
        assert all(np.array_equal(mask, broken_masks[0]) for mask in broken_masks)

    def test_fixed_snr_recorded_exactly(self, rng):
        stream = ChannelStream(ChannelGenConfig(snr=FixedSnr(7.5)), make_ula(8), rng)
        assert all(s.snr_db == 7.5 for s in stream.take(50))

    def test_current_array_tracks_events(self):
        arr = make_ula(8)
        events = [ArrayEvent(index=3, kind="age", gain_std=0.5)]
        stream = ChannelStream(ChannelGenConfig(), arr, np.random.default_rng(0), events)
        stream.take(3)
        assert stream.current_array is arr
        stream.take(1)
        assert stream.current_array is not arr


class TestStreamFiles:
    def test_dump_and_load_roundtrip(self, tmp_path, rng):
        stream = ChannelStream(ChannelGenConfig(snr=FixedSnr(10.0)), make_ula(8), rng)
        samples = stream.take(12)
        path = tmp_path / "stream.csv"
        dump_stream(samples, path)
        loaded = load_stream(path)
        assert len(loaded) == 12
        for s, t in zip(samples, loaded):
            assert np.array_equal(s.observation, t.observation)
            assert np.array_equal(s.channel, t.channel)
            assert s.noise_var == t.noise_var
            assert s.snr_db == t.snr_db

    def test_replay_stream_interface(self, tmp_path, rng):
        path = tmp_path / "stream.csv"
        dump_stream(ChannelStream(ChannelGenConfig(), make_ula(4), rng).take(6), path)
        replay = ReplayStream(path)
        assert (replay.n_antennas, replay.count) == (4, 6)
        assert len(replay.take(2)) == 2
        assert len(replay.take(4)) == 4
        with pytest.raises(ValueError):
            replay.take(1)

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("index,snr_db\n0,1\n")
        with pytest.raises(ValueError):
            load_stream(path)

    def _dumped_lines(self, tmp_path, rng):
        path = tmp_path / "stream.csv"
        dump_stream(ChannelStream(ChannelGenConfig(snr=FixedSnr(10.0)), make_ula(4), rng).take(5), path)
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [1, 2, 3, -1])
    def test_load_rejects_non_finite_values(self, tmp_path, rng, bad, column):
        path, lines = self._dumped_lines(tmp_path, rng)
        fields = lines[3].split(",")
        fields[column] = bad
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 4: non-finite value$"):
            load_stream(path)

    @pytest.mark.parametrize("bad", ["-5e-324", "-0.1", "-1e308"])
    def test_load_rejects_a_negative_noise_variance(self, tmp_path, rng, bad):
        path, lines = self._dumped_lines(tmp_path, rng)
        fields = lines[3].split(",")
        fields[2] = bad
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 4: noise variance must be nonnegative$"):
            load_stream(path)

    def test_load_rejects_swapped_rows(self, tmp_path, rng):
        path, lines = self._dumped_lines(tmp_path, rng)
        lines[2], lines[3] = lines[3], lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: index '2', expected 1$"):
            load_stream(path)

    @pytest.mark.parametrize("index", ["1", "-1", "0.0", "x"])
    def test_load_rejects_an_index_out_of_order(self, tmp_path, rng, index):
        path, lines = self._dumped_lines(tmp_path, rng)
        lines[1] = ",".join([index] + lines[1].split(",")[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2: index '.*', expected 0$"):
            load_stream(path)

    def test_load_rejects_a_non_number(self, tmp_path, rng):
        path, lines = self._dumped_lines(tmp_path, rng)
        lines[5] = lines[5].replace(",", ",x", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 6: a field is not a number$"):
            load_stream(path)


# values whose shortest round-trip form is easy to get wrong: signed zero, the
# smallest subnormal, extremes of the exponent range and integer-valued floats
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, 1.0, -7.0, 2.0**53, 1e16, 123456789.0]
_stream_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(10**17), 10**17).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _stream_samples(draw):
    n = draw(st.integers(1, 4))
    vector = st.lists(_stream_floats, min_size=2 * n, max_size=2 * n).map(lambda v: np.array(v).view(complex))
    return [
        ChannelSample(draw(vector), draw(vector), draw(_stream_floats.filter(lambda v: v >= 0.0)), draw(_stream_floats))
        for _ in range(draw(st.integers(1, 3)))
    ]


class TestStreamRows:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(samples=_stream_samples(), start=st.integers(0, 10**6))
    def test_matches_the_per_sample_rows(self, samples, start):
        expected = "".join(",".join(sample_to_row(start + i, s)) + "\n" for i, s in enumerate(samples))
        assert "".join(stream_rows(start, SampleBatch.of(samples))) == expected

    def test_edge_values_keep_their_form(self):
        vector = np.array(EDGE_FLOATS).view(complex)
        (row,) = stream_rows(3, SampleBatch.of([ChannelSample(vector, vector, 5e-324, -0.0)]))
        fields = row.rstrip("\n").split(",")
        assert fields[:3] == ["3", "-0.0", "5e-324"]
        assert fields[3:15] == [repr(v) for v in EDGE_FLOATS]


class TestOpenStream:
    """Opening a stream dump as a ReplayStream."""

    def test_counts_rows_and_parses_lazily(self, tmp_path, rng):
        path = tmp_path / "stream.csv"
        dump_stream(ChannelStream(ChannelGenConfig(snr=FixedSnr(10.0)), make_ula(4), rng).take(8), path)
        lines = path.read_text().splitlines()
        lines[7] = lines[7].replace(",", ",x", 1)
        path.write_text("\n".join(lines) + "\n")
        replay = ReplayStream(path)
        assert (replay.n_antennas, replay.count) == (4, 8)
        assert len(replay.take(6)) == 6  # lines 2-7
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 8: a field is not a number$"):
            replay.take(1)

    @pytest.mark.parametrize("text", ["", "index,snr_db,noise_var\n", "index,snr_db\n0,1\n"])
    def test_checks_the_header_before_any_row(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: (not a stream dump|unrecognized stream header)"):
            ReplayStream(path)

    def test_lines_split_as_the_whole_text_splits(self, tmp_path, rng):
        samples = ChannelStream(ChannelGenConfig(snr=FixedSnr(10.0)), make_ula(2), rng).take(3)
        path = tmp_path / "stream.csv"
        dump_stream(samples, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert [s.snr_db for s in load_stream(path)] == [s.snr_db for s in samples]


COLUMNS = ("channel", "observation", "noise_var", "snr_db")


class TestSampleBatch:
    def test_take_continues_where_the_last_take_stopped(self):
        cfg = ChannelGenConfig(snr=TruncatedGaussianSnr())
        events = [ArrayEvent(index=4, kind="break", fraction=0.5)]
        batch = ChannelStream(cfg, make_ula(8), np.random.default_rng(4), events).take(9)
        twin = ChannelStream(cfg, make_ula(8), np.random.default_rng(4), events)
        first, second = twin.take(4), twin.take(5)
        for column in COLUMNS:
            assert np.array_equal(getattr(batch, column), np.concatenate([getattr(first, column), getattr(second, column)]))

    def test_take_matches_the_per_draw_reference(self):
        # events due, then the SNR, the channel and its observation, draw by draw
        cfg = ChannelGenConfig(snr=TruncatedGaussianSnr())
        events = [ArrayEvent(index=4, kind="break", fraction=0.5)]
        batch = ChannelStream(cfg, make_ula(8), np.random.default_rng(4), events).take(9)
        rng, array, drawn = np.random.default_rng(4), make_ula(8), []
        for index in range(9):
            if index == events[0].index:
                array = events[0].apply(array, rng)
            snr_db = sample_snr(cfg.snr, rng)
            drawn.append(observe(generate_channel(cfg, array, rng), snr_db, rng))
        expected = SampleBatch.of(drawn)
        for column in COLUMNS:
            assert np.array_equal(getattr(batch, column), getattr(expected, column))
        assert len(batch) == len(list(batch)) == 9
        for row, sample in zip(batch, drawn):
            assert np.array_equal(row.channel, sample.channel) and np.array_equal(row.observation, sample.observation)
            assert (row.noise_var, row.snr_db) == (sample.noise_var, sample.snr_db)

    def test_replayed_takes_equal_the_dumped_batch(self, tmp_path, rng):
        batch = ChannelStream(ChannelGenConfig(snr=TruncatedGaussianSnr()), make_ula(4), rng).take(8)
        path = tmp_path / "stream.csv"
        dump_stream(batch, path)
        replay = ReplayStream(path)
        first, second = replay.take(3), replay.take(5)
        for column in COLUMNS:
            assert np.array_equal(np.concatenate([getattr(first, column), getattr(second, column)]), getattr(batch, column))

    def test_take_zero_gives_empty_columns_as_wide_as_the_array(self, tmp_path, rng):
        live = ChannelStream(ChannelGenConfig(snr=FixedSnr(10.0)), make_ula(8), rng)
        dump_stream(live.take(3), tmp_path / "stream.csv")
        for batch in (live.take(0), ReplayStream(tmp_path / "stream.csv").take(0)):
            assert batch.channel.shape == batch.observation.shape == (0, 8)
            assert batch.channel.dtype == batch.observation.dtype == complex
            assert batch.noise_var.shape == batch.snr_db.shape == (0,)
            assert batch.noise_var.dtype == batch.snr_db.dtype == float
        empty = live.take(0)
        estimates = pursuit_batch(build_dictionary(make_ula(8), doa_grid_ula(16)), empty.observation, StoppingRule.sc2(), empty.noise_var)
        assert len(estimates) == 0 and estimates.channel.shape == (0, 8)

    @pytest.mark.parametrize("stream", [ChannelStream, ReplayStream])
    def test_take_is_defined_in_the_class_body(self, stream):
        # the benchmark times minibatches by wrapping each class's own take
        assert "take" in stream.__dict__


class TestChannelSampleInvariants:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ChannelSample(np.ones(4, complex), np.ones(3, complex), 0.1, 10.0)

    def test_negative_noise_var_rejected(self):
        with pytest.raises(ValueError):
            ChannelSample(np.ones(4, complex), np.ones(4, complex), -0.1, 10.0)
