import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpnetlab import arrays
from mpnetlab.arrays import (
    AntennaArray,
    Dictionary,
    build_dictionary,
    doa_grid_ula,
    doa_grid_upa,
    make_ula,
    make_upa,
    perturb_array,
    steering_matrix,
    steering_vector,
    unit_response,
)


class TestAntennaArray:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_position(self, bad):
        positions = make_ula(4).positions.copy()
        positions[2, 0] = bad
        with pytest.raises(ValueError, match="^positions and gains must be finite$"):
            AntennaArray(positions, np.ones(4, complex))

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan), np.inf, complex(1.0, -np.inf)])
    def test_rejects_a_non_finite_gain(self, bad):
        gains = np.ones(4, complex)
        gains[1] = bad
        with pytest.raises(ValueError, match="^positions and gains must be finite$"):
            AntennaArray(make_ula(4).positions, gains)


class TestDictionaryCheck:
    @pytest.mark.parametrize("bad", [np.nan + 0j, complex(0.0, np.nan), np.inf + 0j])
    def test_rejects_non_finite_atoms(self, bad):
        with pytest.raises(ValueError, match="^dictionary atoms must have unit norm$"):
            Dictionary(np.full((4, 3), bad), doa_grid_ula(3))

    def test_rejects_one_non_finite_entry(self):
        atoms = build_dictionary(make_ula(4), doa_grid_ula(3)).atoms.copy()
        atoms[1, 2] = np.nan
        with pytest.raises(ValueError, match="^dictionary atoms must have unit norm$"):
            Dictionary(atoms, doa_grid_ula(3))

    def test_rejects_a_column_off_unit_norm(self):
        atoms = build_dictionary(make_ula(4), doa_grid_ula(3)).atoms * (1.0 + 1e-8)
        with pytest.raises(ValueError, match="^dictionary atoms must have unit norm$"):
            Dictionary(atoms, doa_grid_ula(3))

    def test_owns_a_read_only_copy(self):
        atoms = build_dictionary(make_ula(4), doa_grid_ula(3)).atoms.copy()
        d = Dictionary(atoms, doa_grid_ula(3))
        atoms[0, 0] = 0.0
        assert d.atoms[0, 0] != 0.0
        assert not d.atoms.flags.writeable

    def test_never_aliases_a_callers_read_only_array(self):
        atoms = build_dictionary(make_ula(4), doa_grid_ula(3)).atoms.copy()
        atoms.setflags(write=False)
        d = Dictionary(atoms, doa_grid_ula(3))
        kept = d.atoms.copy()
        atoms.setflags(write=True)  # the caller owns the array, so it may
        atoms[:] = 0.0
        assert np.array_equal(d.atoms, kept)
        assert not np.shares_memory(d.atoms, atoms)

    def test_build_dictionary_atoms_are_referenced_by_the_dictionary_alone(self):
        arr, dirs = make_ula(8), doa_grid_ula(12)
        response = unit_response(arr.positions, dirs)
        for d in (build_dictionary(arr, dirs), build_dictionary(arr, dirs, response=response)):
            assert not d.atoms.flags.writeable
            assert d.atoms.base is None and d.atoms.flags.owndata  # not a view of another array
            # at most the dictionary's field and the call's argument; taken
            # outside the assert, which holds its operands (an interpreter that
            # borrows stack references may count fewer)
            refs = sys.getrefcount(d.atoms)
            assert refs <= 2
            assert not np.shares_memory(d.atoms, response)


class TestMakeUla:
    def test_two_elements_centered(self):
        arr = make_ula(2, 0.5)
        assert np.allclose(arr.positions[:, 0], [-0.25, 0.25])
        assert np.allclose(arr.positions[:, 1:], 0.0)
        assert np.allclose(arr.gains, 1.0)

    def test_three_elements_unit_spacing(self):
        arr = make_ula(3, 1.0)
        assert np.allclose(arr.positions[:, 0], [-1.0, 0.0, 1.0])

    def test_standard_span(self):
        arr = make_ula(64, 0.5)
        assert arr.size == 64
        span = arr.positions[:, 0].max() - arr.positions[:, 0].min()
        assert span == pytest.approx(31.5)
        assert abs(arr.positions.mean(axis=0)).max() < 1e-12

    @pytest.mark.parametrize("n,spacing", [(0, 0.5), (3, 0.0), (3, -1.0)])
    def test_rejects_bad_parameters(self, n, spacing):
        with pytest.raises(ValueError):
            make_ula(n, spacing)


class TestMakeUpa:
    def test_square_grid(self):
        arr = make_upa(8, 8, 0.5)
        assert arr.size == 64
        assert np.allclose(arr.positions[:, 1], 0.0)
        assert abs(arr.positions.mean(axis=0)).max() < 1e-12

    def test_single_antenna_at_origin(self):
        arr = make_upa(1, 1, 0.5)
        assert np.allclose(arr.positions, 0.0)

    def test_two_by_two_square(self):
        arr = make_upa(2, 2, 0.5)
        xz = arr.positions[:, [0, 2]]
        expected = {(-0.25, -0.25), (-0.25, 0.25), (0.25, -0.25), (0.25, 0.25)}
        assert {tuple(np.round(p, 9)) for p in xz} == expected

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            make_upa(0, 4)


class TestPerturbArray:
    def test_zero_noise_is_identity(self, rng):
        arr = make_ula(16)
        out = perturb_array(arr, 0.0, 0.0, rng)
        assert np.array_equal(out.positions, arr.positions)
        assert np.array_equal(out.gains, arr.gains)

    def test_ula_jitters_x_only(self, rng):
        arr = make_ula(64)
        out = perturb_array(arr, 0.15, 0.05, rng)
        assert not np.allclose(out.positions[:, 0], arr.positions[:, 0])
        assert np.array_equal(out.positions[:, 1:], arr.positions[:, 1:])

    def test_upa_jitters_x_and_z(self, rng):
        arr = make_upa(4, 4)
        out = perturb_array(arr, 0.0, 0.1, rng)
        assert not np.allclose(out.positions[:, 0], arr.positions[:, 0])
        assert not np.allclose(out.positions[:, 2], arr.positions[:, 2])
        assert np.array_equal(out.positions[:, 1], arr.positions[:, 1])

    def test_gain_noise_variance(self):
        # Monte-Carlo estimate: Re(g - g_nominal) has variance gain_std^2 / 2
        gain_std = 0.15
        rng = np.random.default_rng(99)
        arr = make_ula(100)
        draws = np.concatenate(
            [perturb_array(arr, gain_std, 0.0, rng).gains - arr.gains for _ in range(100)]
        )
        sample_var = np.var(draws.real)
        assert sample_var == pytest.approx(gain_std**2 / 2.0, rel=0.05)

    def test_seed_reproducible(self):
        arr = make_ula(32)
        a = perturb_array(arr, 0.3, 0.1, np.random.default_rng(5))
        b = perturb_array(arr, 0.3, 0.1, np.random.default_rng(5))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.gains, b.gains)

    def test_rejects_negative_std(self, rng):
        with pytest.raises(ValueError):
            perturb_array(make_ula(4), -0.1, 0.0, rng)
        with pytest.raises(ValueError):
            perturb_array(make_ula(4), 0.0, -0.1, rng)


class TestSteeringVector:
    def test_single_antenna_origin(self):
        arr = AntennaArray(np.zeros((1, 3)), np.ones(1, complex))
        v = steering_vector(arr, [0.0, 1.0, 0.0])
        assert v == pytest.approx(1.0 + 0.0j)

    def test_orthogonal_direction_gives_plain_gains(self, rng):
        arr = perturb_array(make_ula(16), 0.3, 0.0, rng)
        v = steering_vector(arr, [0.0, 1.0, 0.0])
        assert np.allclose(v, arr.gains)

    def test_endfire_alternating_signs(self):
        # direct evaluation: phases are -2*pi*0.5*i + const along the array axis
        arr = make_ula(6, 0.5)
        v = steering_vector(arr, [1.0, 0.0, 0.0])
        ratios = v[1:] / v[:-1]
        assert np.allclose(ratios, -1.0)

    def test_formula_matches_direct_evaluation(self, rng):
        arr = perturb_array(make_ula(8), 0.2, 0.1, rng)
        u = np.array([0.6, 0.8, 0.0])
        v = steering_vector(arr, u)
        for i in range(arr.size):
            expected = arr.gains[i] * np.exp(-2j * np.pi * float(arr.positions[i] @ u))
            assert v[i] == pytest.approx(expected)

    def test_unit_gain_entries_have_unit_modulus(self):
        arr = make_ula(32)
        for u in doa_grid_ula(7):
            assert np.allclose(np.abs(steering_vector(arr, u)), 1.0)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            steering_vector(make_ula(4), [1.0, 1.0, 0.0])

    @given(re=st.floats(-2, 2), im=st.floats(-2, 2))
    @settings(max_examples=25, deadline=None)
    def test_linear_in_gains(self, re, im):
        c = complex(re, im)
        arr = make_ula(8)
        scaled = AntennaArray(arr.positions, arr.gains * c)
        u = doa_grid_ula(5)[1]
        assert np.allclose(steering_vector(scaled, u), c * steering_vector(arr, u))


class TestDoaGrids:
    def test_ula_single_point_is_broadside(self):
        grid = doa_grid_ula(1)
        assert np.allclose(grid, [[0.0, 1.0, 0.0]])

    def test_ula_grid_size_and_norms(self):
        grid = doa_grid_ula(32 * 64)
        assert grid.shape == (2048, 3)
        assert np.allclose(np.linalg.norm(grid, axis=1), 1.0)
        assert np.allclose(grid[:, 2], 0.0)
        # evenly spaced azimuths, symmetric about broadside
        azimuths = np.arctan2(grid[:, 0], grid[:, 1])
        steps = np.diff(azimuths)
        assert np.allclose(steps, steps[0])
        assert azimuths[0] == pytest.approx(-azimuths[-1])

    def test_upa_grid_faces_positive_y(self):
        grid = doa_grid_upa(512)
        assert grid.shape == (512, 3)
        assert np.all(grid[:, 1] > 0.0)
        assert np.allclose(np.linalg.norm(grid, axis=1), 1.0)

    def test_upa_pairwise_separation(self):
        # exhaustive pairwise check (chunked): no two directions coincide
        grid = doa_grid_upa(10_000)
        min_angle = np.inf
        for start in range(0, grid.shape[0], 1000):
            block = grid[start : start + 1000]
            cos = np.clip(block @ grid.T, -1.0, 1.0)
            np.fill_diagonal(cos[:, start : start + 1000], -1.0)
            min_angle = min(min_angle, float(np.arccos(cos.max())))
        assert min_angle > 0.0

    def test_deterministic(self):
        assert np.array_equal(doa_grid_upa(64), doa_grid_upa(64))

    @pytest.mark.parametrize("builder", [doa_grid_ula, doa_grid_upa])
    def test_rejects_empty_grid(self, builder):
        with pytest.raises(ValueError):
            builder(0)


class TestBuildDictionary:
    def test_unit_gain_norms(self):
        arr = make_ula(16)
        dirs = doa_grid_ula(50)
        normalized = build_dictionary(arr, dirs)
        raw = steering_matrix(arr, dirs)
        assert np.allclose(np.linalg.norm(normalized.atoms, axis=0), 1.0, atol=1e-9)
        assert np.allclose(np.linalg.norm(raw, axis=0), np.sqrt(16))

    def test_columns_are_steering_vectors(self, rng):
        arr = perturb_array(make_ula(8), 0.2, 0.05, rng)
        dirs = doa_grid_ula(12)
        raw = steering_matrix(arr, dirs)
        for i in range(12):
            assert np.allclose(raw[:, i], steering_vector(arr, dirs[i]), atol=1e-12)

    def test_projection_property(self, rng):
        # normalized atoms make e e^H an orthogonal projection
        arr = perturb_array(make_ula(16), 0.3, 0.1, rng)
        d = build_dictionary(arr, doa_grid_ula(64))
        atom = d.atoms[:, 20]
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        proj = atom * np.vdot(atom, x)
        assert np.allclose(atom * np.vdot(atom, proj), proj, atol=1e-12)

    def test_broken_array_still_unit_columns(self, rng):
        arr = make_ula(16)
        gains = arr.gains.copy()
        gains[:5] = 0.0
        broken = AntennaArray(arr.positions, gains)
        d = build_dictionary(broken, doa_grid_ula(20))
        assert np.allclose(np.linalg.norm(d.atoms, axis=0), 1.0, atol=1e-9)

    def test_rejects_zero_column(self):
        arr = make_ula(4)
        dead = AntennaArray(arr.positions, np.zeros(4, complex))
        with pytest.raises(ValueError):
            build_dictionary(dead, doa_grid_ula(8))

    def test_steering_matrix_rejects_bad_directions(self):
        with pytest.raises(ValueError):
            steering_matrix(make_ula(4), np.ones((3, 3)))


def _perturbed_arrays():
    rng = np.random.default_rng(11)
    ula = perturb_array(make_ula(16), 0.2, 0.05, rng)
    upa = perturb_array(make_upa(4, 3), 0.2, 0.05, rng)
    return [(ula, doa_grid_ula(40)), (upa, doa_grid_upa(40))]


class TestPrecomputedResponse:
    """A response computed once for some positions stands in for the one
    ``steering_matrix`` and ``build_dictionary`` would compute, to the bit."""

    # unit_response exponentiates in place; it must give the out-of-place bits
    @pytest.mark.parametrize("arr, dirs", _perturbed_arrays() + [(make_ula(64), doa_grid_ula(2048))], ids=["ula", "upa", "ula64"])
    def test_steering_matrix_is_bit_equal(self, arr, dirs):
        response = unit_response(arr.positions, dirs)
        assert np.array_equal(response, np.exp(-2j * np.pi * (arr.positions @ dirs.T)))
        given = steering_matrix(arr, dirs, response=response)
        assert np.array_equal(given, steering_matrix(arr, dirs))
        assert np.array_equal(given, arr.gains[:, None] * np.exp(-2j * np.pi * (arr.positions @ dirs.T)))

    # unit_response forms its phases inside the result's memory and
    # exponentiates them in row blocks; a row-blocked matrix product changes
    # bits (92 of 300 random shapes), so the one product must stay whole
    @pytest.mark.parametrize("block", [1, 100, arrays.EXP_BLOCK])
    def test_unit_response_is_the_whole_matrix_expression(self, block, monkeypatch):
        monkeypatch.setattr(arrays, "EXP_BLOCK", block)
        rng = np.random.default_rng(block)
        for trial in range(30):
            n, a = int(rng.integers(1, 80)), int(rng.integers(1, 2100))
            positions = rng.standard_normal((n, 3)) * rng.uniform(0.1, 40.0)
            if trial % 3 == 0:  # a line, as in linear arrays
                positions[:, 1:] = 0.0
            dirs = rng.standard_normal((a, 3))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            response = unit_response(positions, dirs)
            assert response.flags.c_contiguous and response.flags.owndata
            assert np.array_equal(response.view(np.uint64), np.exp(-2j * np.pi * (positions @ dirs.T)).view(np.uint64))

    # a response steering_matrix builds itself is scaled in place, which must
    # give the out-of-place product's bits (``response *= gains`` does not)
    def test_own_response_scaled_in_place_is_bit_equal(self):
        rng = np.random.default_rng(12)
        for geometry in ("ula", "upa") * 10:
            nominal = make_ula(16) if geometry == "ula" else make_upa(4, 3)
            arr = perturb_array(nominal, 0.5, 0.1, rng)
            dirs = doa_grid_ula(40) if geometry == "ula" else doa_grid_upa(40)
            assert np.array_equal(steering_matrix(arr, dirs), arr.gains[:, None] * unit_response(arr.positions, dirs))

    @pytest.mark.parametrize("arr, dirs", _perturbed_arrays(), ids=["ula", "upa"])
    def test_a_callers_response_is_never_scaled(self, arr, dirs):
        response = unit_response(arr.positions, dirs)
        kept = response.copy()
        scaled = steering_matrix(arr, dirs, response=response)
        build_dictionary(arr, dirs, response=response)
        assert np.array_equal(response, kept)
        assert not np.shares_memory(scaled, response)

    @pytest.mark.parametrize("arr, dirs", _perturbed_arrays(), ids=["ula", "upa"])
    def test_build_dictionary_is_bit_equal(self, arr, dirs):
        given = build_dictionary(arr, dirs, response=unit_response(arr.positions, dirs))
        own = build_dictionary(arr, dirs)
        assert np.array_equal(given.atoms, own.atoms)
        raw = steering_matrix(arr, dirs)
        assert np.array_equal(own.atoms, raw / np.linalg.norm(raw, axis=0))

    # the blocked norms must give np.linalg.norm's bits; 257 and 2049 are the
    # sizes where fixed 256-column blocks would leave a one-column block, whose
    # norm differs in the last bit at N = 9, A = 257 and N = 8, A = 2049
    @pytest.mark.parametrize("n", [8, 9, 64])
    @pytest.mark.parametrize("a", [1, 2, 257, 2048, 2049])
    def test_blocked_norms_are_the_whole_matrix_norms(self, n, a):
        arr = perturb_array(make_ula(n), 0.2, 0.05, np.random.default_rng(a))
        dirs = doa_grid_ula(a)
        raw = steering_matrix(arr, dirs)
        assert np.array_equal(build_dictionary(arr, dirs).atoms, raw / np.linalg.norm(raw, axis=0))

    def test_one_response_serves_every_gain_draw(self):
        arr = make_ula(8)
        dirs = doa_grid_ula(24)
        response = unit_response(arr.positions, dirs)
        rng = np.random.default_rng(3)
        for _ in range(3):
            gains = arr.gains + 0.3 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
            other = AntennaArray(arr.positions, gains, geometry="ula")
            assert np.array_equal(build_dictionary(other, dirs, response=response).atoms, build_dictionary(other, dirs).atoms)

    @pytest.mark.parametrize("shape", [(40, 16), (15, 40), (16, 39), (16,)])
    def test_wrong_shape_raises(self, shape):
        arr = make_ula(16)
        dirs = doa_grid_ula(40)
        with pytest.raises(ValueError, match="response must have shape"):
            steering_matrix(arr, dirs, response=np.ones(shape, complex))
        with pytest.raises(ValueError, match="response must have shape"):
            build_dictionary(arr, dirs, response=np.ones(shape, complex))

    def test_directions_still_checked(self):
        arr = make_ula(4)
        with pytest.raises(ValueError, match="unit norm"):
            steering_matrix(arr, np.ones((3, 3)), response=np.ones((4, 3), complex))
        with pytest.raises(ValueError, match="unit norm"):
            unit_response(arr.positions, np.ones((3, 3)))
