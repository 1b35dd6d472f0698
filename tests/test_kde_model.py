"""Tests for the KDE, the interference model and the sphere/ML decoder."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.core.config import CPRecycleConfig
from repro.core.interference_model import InterferenceModel
from repro.core.kde import GaussianProductKde, silverman_bandwidth, wrap_phase
from repro.core.ml_decoder import FixedSphereMlDecoder
from repro.core.sphere import centroid, select_sphere_candidates
from repro.phy.constellation import qam16, qam64, qpsk


class TestWrapPhase:
    @given(st.floats(min_value=-50.0, max_value=50.0))
    @example(np.pi)
    @example(-np.pi)
    @example(3 * np.pi)
    @example(-3 * np.pi)
    def test_range(self, phase):
        wrapped = float(wrap_phase(phase))
        assert -np.pi < wrapped <= np.pi + 1e-12

    def test_training_samples_in_range_keep_the_closed_end(self):
        # np.angle returns -pi for a negative real part with a -0.0 imaginary
        # part; the fit skips the remainder for such in-range angles.
        kde = GaussianProductKde(np.ones(3), np.angle(np.array([complex(-1, -0.0), -1, 1j])))
        assert np.array_equal(kde.phase_samples[0], [np.pi, np.pi, np.pi / 2])

    def test_wrap_identity_in_range(self):
        assert wrap_phase(0.5) == pytest.approx(0.5)

    def test_wrap_two_pi(self):
        assert wrap_phase(2 * np.pi + 0.3) == pytest.approx(0.3)


class TestSilverman:
    def test_floor_applies(self):
        assert silverman_bandwidth(np.zeros(10), floor=0.05) == 0.05

    def test_scales_with_spread(self):
        narrow = silverman_bandwidth(np.random.default_rng(0).normal(0, 0.1, 100), 1e-6)
        wide = silverman_bandwidth(np.random.default_rng(0).normal(0, 1.0, 100), 1e-6)
        assert wide > narrow

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            silverman_bandwidth(np.array([]), 0.1)


class TestGaussianProductKde:
    def test_density_peaks_at_samples(self):
        kde = GaussianProductKde(np.array([0.5]), np.array([0.0]),
                                 bandwidth_amplitude=0.1, bandwidth_phase=0.3)
        at_sample = kde.density(np.array([0.5]), np.array([0.0]))
        away = kde.density(np.array([1.5]), np.array([0.0]))
        assert at_sample > away

    def test_density_integrates_to_about_one(self):
        rng = np.random.default_rng(0)
        amps = rng.uniform(0.2, 1.0, 20)
        phases = rng.uniform(-np.pi, np.pi, 20)
        kde = GaussianProductKde(amps, phases, bandwidth_amplitude=0.1, bandwidth_phase=0.4)
        a_grid = np.linspace(-1.0, 3.0, 200)
        # One phase period only: the kernel is circular in phase.
        p_grid = np.linspace(-np.pi, np.pi, 200)
        aa, pp = np.meshgrid(a_grid, p_grid, indexing="ij")
        density = kde.density(aa[None], pp[None])[0]
        integral = density.sum() * (a_grid[1] - a_grid[0]) * (p_grid[1] - p_grid[0])
        assert integral == pytest.approx(1.0, rel=0.1)

    def test_phase_wraps_circularly(self):
        kde = GaussianProductKde(np.array([0.5]), np.array([np.pi - 0.05]),
                                 bandwidth_amplitude=0.2, bandwidth_phase=0.2)
        near_wrap = kde.log_density(np.array([0.5]), np.array([-np.pi + 0.05]))
        far = kde.log_density(np.array([0.5]), np.array([0.0]))
        assert near_wrap > far

    def test_vectorised_bank_independent_series(self):
        amps = np.array([[0.1, 0.12], [1.0, 1.1]])
        phases = np.zeros((2, 2))
        kde = GaussianProductKde(amps, phases, bandwidth_amplitude=0.1, bandwidth_phase=0.5)
        queries_amp = np.array([[0.1], [0.1]])
        queries_phase = np.zeros((2, 1))
        log_density = kde.log_density(queries_amp, queries_phase)
        assert log_density[0, 0] > log_density[1, 0]

    def test_shape_validation(self):
        kde = GaussianProductKde(np.ones((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            kde.log_density(np.ones((3, 1)), np.zeros((3, 1)))
        with pytest.raises(ValueError):
            GaussianProductKde(np.ones((2, 3)), np.zeros((2, 4)))

    @pytest.mark.parametrize(
        "field, value",
        [("min_bandwidth_amplitude", 0.0), ("min_bandwidth_phase", np.nan),
         ("amplitude_weight", -1.0), ("phase_weight", np.inf),
         ("bandwidth_amplitude", np.nan), ("bandwidth_phase", 0.0)],
    )
    def test_invalid_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            GaussianProductKde(np.ones(2), np.zeros(2), **{field: value})

    def test_weights_change_relative_importance(self):
        amps = np.array([0.5, 0.5])
        phases = np.array([0.0, 0.0])
        amp_only = GaussianProductKde(amps, phases, bandwidth_amplitude=0.1,
                                      bandwidth_phase=0.5, phase_weight=0.0)
        # With zero phase weight, a large phase error must not change the density.
        a = amp_only.log_density(np.array([0.5]), np.array([0.0]))
        b = amp_only.log_density(np.array([0.5]), np.array([3.0]))
        assert a == pytest.approx(b)


class TestInterferenceModel:
    def _deviations(self, n_data=6, n_segments=4, n_preambles=2, scale=0.3, seed=0):
        rng = np.random.default_rng(seed)
        return scale * (
            rng.normal(size=(n_data, n_segments, n_preambles))
            + 1j * rng.normal(size=(n_data, n_segments, n_preambles))
        )

    def test_shapes(self):
        model = InterferenceModel(self._deviations())
        assert model.n_subcarriers == 6
        assert model.n_segments == 4
        assert model.n_preambles == 2
        assert model.n_samples == 8

    def test_log_likelihood_shape(self):
        model = InterferenceModel(self._deviations())
        deviations = self._deviations()[:, :, 0][:, None, :].repeat(3, axis=1)
        out = model.log_likelihood(np.transpose(deviations, (0, 1, 2)))
        assert out.shape == (6, 3)

    def test_pooled_and_per_segment_scopes(self):
        deviations = self._deviations()
        pooled = InterferenceModel(deviations, CPRecycleConfig(model_scope="pooled"))
        per_segment = InterferenceModel(deviations, CPRecycleConfig(model_scope="per-segment"))
        query = deviations[:, :, :1].transpose(0, 2, 1)
        assert pooled.log_likelihood(query).shape == per_segment.log_likelihood(query).shape

    def test_small_deviations_more_likely_when_trained_clean(self):
        clean = InterferenceModel(self._deviations(scale=0.02))
        small = clean.log_likelihood(np.full((6, 1, 4), 0.02 + 0j))
        large = clean.log_likelihood(np.full((6, 1, 4), 1.0 + 0j))
        assert np.all(small > large)

    def test_segment_count_mismatch_in_likelihood(self):
        model = InterferenceModel(self._deviations())
        with pytest.raises(ValueError):
            model.log_likelihood(np.zeros((6, 2, 3), dtype=complex))


class TestSphere:
    def test_centroid(self):
        obs = np.array([[1 + 1j, 3 + 3j], [0 + 0j, 2 + 0j]])
        assert np.allclose(centroid(obs, axis=1), [2 + 2j, 1 + 0j])

    def test_candidates_sorted_by_distance(self):
        c = qam16()
        candidates = select_sphere_candidates(c, np.array([c.points[5]]), radius=10.0)
        assert candidates.indices[0, 0] == 5

    def test_radius_limits_validity(self):
        c = qam64()
        center = np.array([c.points[0]])
        candidates = select_sphere_candidates(c, center, radius=0.9 * c.min_distance,
                                              max_candidates=10)
        assert candidates.valid[0, 0]
        assert candidates.valid[0].sum() <= 5

    def test_nearest_always_valid_even_outside_radius(self):
        c = qpsk()
        candidates = select_sphere_candidates(c, np.array([10 + 10j]), radius=0.1)
        assert candidates.valid[0, 0]

    def test_max_candidates_cap(self):
        c = qam64()
        candidates = select_sphere_candidates(c, np.array([0.0 + 0j]), radius=100.0,
                                              max_candidates=7)
        assert candidates.n_candidates == 7

    @pytest.mark.parametrize("radius", [0.0, np.nan, np.inf])
    def test_invalid_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            select_sphere_candidates(qpsk(), np.array([0j]), radius=radius)

    def test_invalid_parameters(self):
        c = qpsk()
        with pytest.raises(ValueError):
            select_sphere_candidates(c, np.array([0j]), radius=1.0, max_candidates=0)


class TestMlDecoder:
    def _noise_model(self, constellation, n_data, n_segments, scale=0.05, seed=0):
        rng = np.random.default_rng(seed)
        deviations = scale * (
            rng.normal(size=(n_data, n_segments, 2)) + 1j * rng.normal(size=(n_data, n_segments, 2))
        )
        return InterferenceModel(deviations)

    @pytest.mark.parametrize("constellation", [qpsk(), qam16()])
    def test_decodes_clean_observations(self, constellation):
        rng = np.random.default_rng(0)
        n_data, n_segments = 24, 6
        true_indices = rng.integers(0, constellation.order, size=n_data)
        points = constellation.map_indices(true_indices)
        noise = 0.03 * (rng.normal(size=(n_segments, n_data)) + 1j * rng.normal(size=(n_segments, n_data)))
        observations = points[None, :] + noise
        model = self._noise_model(constellation, n_data, n_segments)
        decoder = FixedSphereMlDecoder(constellation)
        decided = decoder.decode_symbol(observations, model)
        assert np.array_equal(decided, true_indices)

    def test_outlier_segment_does_not_flip_decision(self):
        constellation = qpsk()
        n_data, n_segments = 10, 8
        rng = np.random.default_rng(1)
        true_indices = rng.integers(0, 4, size=n_data)
        points = constellation.map_indices(true_indices)
        observations = np.repeat(points[None, :], n_segments, axis=0)
        observations += 0.05 * (rng.normal(size=observations.shape) + 1j * rng.normal(size=observations.shape))
        # One segment is pushed onto the opposite lattice point (strong interference).
        observations[0] = -points
        # Train the model with the same structure: one bad segment, the rest clean.
        deviations = 0.05 * (rng.normal(size=(n_data, n_segments, 2)) + 1j * rng.normal(size=(n_data, n_segments, 2)))
        deviations[:, 0, :] += 2.0
        model = InterferenceModel(deviations)
        decided = FixedSphereMlDecoder(constellation).decode_symbol(observations, model)
        assert np.array_equal(decided, true_indices)

    def test_decode_frame_shape(self):
        constellation = qpsk()
        model = self._noise_model(constellation, 5, 4)
        observations = np.zeros((4, 3, 5), dtype=complex) + constellation.points[0]
        decided = FixedSphereMlDecoder(constellation).decode_frame(observations, model)
        assert decided.shape == (3, 5)

    def test_subcarrier_count_mismatch(self):
        constellation = qpsk()
        model = self._noise_model(constellation, 5, 4)
        with pytest.raises(ValueError):
            FixedSphereMlDecoder(constellation).decode_symbol(np.zeros((4, 6), dtype=complex), model)

    def test_sphere_radius_scales_with_constellation(self):
        config = CPRecycleConfig(sphere_radius_scale=2.0)
        assert FixedSphereMlDecoder(qpsk(), config).sphere_radius == pytest.approx(2.0 * qpsk().min_distance)
        assert FixedSphereMlDecoder(qam64(), config).sphere_radius < FixedSphereMlDecoder(qpsk(), config).sphere_radius


class TestConfigValidation:
    def test_defaults_valid(self):
        CPRecycleConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [dict(n_segments=0), dict(max_segments=0), dict(sphere_radius_scale=0),
         dict(max_candidates=0), dict(bandwidth_amplitude=-1.0), dict(amplitude_weight=-1),
         dict(amplitude_weight=0, phase_weight=0), dict(min_bandwidth_phase=0),
         dict(model_scope="global")],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CPRecycleConfig(**kwargs)

    @pytest.mark.parametrize("value", [2.5, 0.5, True, "16", np.float64(16.0)])
    @pytest.mark.parametrize(
        "field", ["n_segments", "max_segments", "max_candidates", "kde_chunk_elements"]
    )
    def test_integer_fields_accept_only_integers(self, field, value):
        with pytest.raises(TypeError, match=field):
            CPRecycleConfig(**{field: value})
        assert getattr(CPRecycleConfig(**{field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "field",
        ["sphere_radius_scale", "bandwidth_amplitude", "bandwidth_phase", "amplitude_weight",
         "phase_weight", "min_bandwidth_amplitude", "min_bandwidth_phase"],
    )
    def test_non_finite_floats_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            CPRecycleConfig(**{field: value})
