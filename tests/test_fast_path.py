"""Equivalence tests for the batched link-simulation fast path.

The batched link path must agree with the per-packet / per-symbol reference
implementations, which survive only as test oracles: same per-packet RNG
streams, same front-end outputs, bit-identical symbol decisions and
identical packet outcomes.  These tests pin that contract at every layer —
KDE kernel, interference model, ML decoder, front end, receivers, FEC chain
and the link simulation itself, whose per-packet oracle lives here.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.multipath import ExponentialMultipathChannel
from repro.channel.scenario import Scenario
from repro.core import interference_model
from repro.core.config import CPRecycleConfig
from repro.core.interference_model import InterferenceModel
from repro.core.kde import GaussianProductKde, silverman_bandwidth
from repro.core.ml_decoder import FixedSphereMlDecoder
from repro.core.receiver import CPRecycleReceiver
from repro.core.sphere import select_sphere_candidates
from repro.experiments.config import aci_scenario, build_receivers, cci_scenario
from repro.experiments.link import FAST_ENGINE_BATCH, packet_success_rate, symbol_error_rate
from repro.experiments.parallel import parallel_map, resolve_workers
from repro.phy.constellation import qam16, qam64, qpsk
from repro.phy.scrambler import scrambler_sequence
from repro.phy.viterbi import _TRELLIS, ViterbiDecoder, _branch_table
from repro.receiver.decode_chain import (
    decode_coded_bits_batch,
    decode_coded_bits_batch_reference,
)
from repro.receiver.frontend import FrontEnd, front_end_batches
from repro.receiver.standard import StandardOfdmReceiver
from repro.utils.rng import child_rng


# --------------------------------------------------------------------------- #
# KDE layer                                                                   #
# --------------------------------------------------------------------------- #
class TestKdeFastPath:
    def _kde(self, n_series=23, n_samples=5, seed=0, **kwargs):
        rng = np.random.default_rng(seed)
        amps = rng.uniform(0.05, 2.0, (n_series, n_samples))
        phases = rng.uniform(-4.0, 4.0, (n_series, n_samples))
        return GaussianProductKde(amps, phases, **kwargs), rng

    def test_vectorised_silverman_matches_per_row(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(17, 9))
        vectorised = silverman_bandwidth(samples, 0.02, axis=1)
        looped = np.array([silverman_bandwidth(row, 0.02) for row in samples])
        assert np.array_equal(vectorised, looped)

    @pytest.mark.parametrize("n_samples", [1, 2, 7])
    def test_sample_major_silverman_matches_row_std(self, n_samples):
        # Fewer than 8 samples per density take the sample-major path.
        samples = np.random.default_rng(n_samples).normal(size=(31, n_samples))
        expected = np.maximum(1.06 * np.std(samples, axis=1) * n_samples ** (-0.2), 0.02)
        assert np.array_equal(silverman_bandwidth(samples, 0.02, axis=1), expected)

    def test_silverman_scalar_unchanged(self):
        assert silverman_bandwidth(np.zeros(10), floor=0.05) == 0.05

    @pytest.mark.parametrize("budget", [1, 7, 100, 10**9])
    def test_chunked_log_density_is_bitwise_identical(self, budget):
        kde, rng = self._kde()
        qa = rng.uniform(0.0, 2.0, (23, 6, 4))
        qp = rng.uniform(-4.0, 4.0, (23, 6, 4))
        full = kde.log_density(qa, qp, max_chunk_elements=10**9)
        assert np.array_equal(full, kde.log_density(qa, qp, max_chunk_elements=budget))

    def test_invalid_budget_rejected(self):
        kde, rng = self._kde()
        qa = np.full((23, 2), 0.5)
        with pytest.raises(ValueError):
            kde.log_density(qa, qa, max_chunk_elements=0)
        with pytest.raises(ValueError):
            GaussianProductKde(np.ones((2, 3)), np.zeros((2, 3)), max_chunk_elements=-1)


# --------------------------------------------------------------------------- #
# Interference model                                                          #
# --------------------------------------------------------------------------- #
class TestModelFastPath:
    def _model(self, scope, n_data=12, n_segments=5, n_preambles=2, seed=0, budget=None):
        rng = np.random.default_rng(seed)
        deviations = 0.3 * (
            rng.normal(size=(n_data, n_segments, n_preambles))
            + 1j * rng.normal(size=(n_data, n_segments, n_preambles))
        )
        config = CPRecycleConfig(model_scope=scope, kde_chunk_elements=budget)
        return InterferenceModel(deviations, config), rng

    @staticmethod
    def _queries(rng, n_data=12, n_segments=5, n_symbols=6, k=4):
        def draw(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        return draw(n_data, n_segments, n_symbols), draw(n_data, n_symbols, k)

    @staticmethod
    def _reference(model, observations, points):
        """``log_likelihood`` of the full (n_data, S, k, P) deviation tensor."""
        deviations = observations[:, :, :, None] - points[:, None, :, :]
        return model.log_likelihood(np.moveaxis(deviations, 1, -1))

    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    def test_batched_log_likelihood_matches_symbol_loop(self, scope):
        model, rng = self._model(scope)
        n_symbols, k = 7, 4
        dev = 0.4 * (
            rng.normal(size=(12, n_symbols, k, 5)) + 1j * rng.normal(size=(12, n_symbols, k, 5))
        )
        batched = model.log_likelihood(dev)
        looped = np.stack(
            [model.log_likelihood(dev[:, s]) for s in range(n_symbols)], axis=1
        )
        assert np.array_equal(batched, looped)

    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    @pytest.mark.parametrize("n_preambles", [1, 2, 5])
    def test_candidate_kernel_matches_reference_kernel(self, scope, n_preambles):
        model, rng = self._model(scope, n_preambles=n_preambles, seed=11)
        observations, points = self._queries(rng, n_symbols=8)
        candidate = model.candidate_log_likelihood(observations, points)
        reference = self._reference(model, observations, points)
        assert np.allclose(candidate, reference, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    @pytest.mark.parametrize(
        "n_segments, k, n_symbols, budget",
        [
            (5, 4, 6, None),
            (1, 4, 6, None),  # one segment: fig14's P = 1
            (5, 1, 6, None),  # one candidate
            (5, 4, 7, 3 * 4 * 5 * 2 * 12),  # per-segment blocks of 3 symbols: 7 = 3 + 3 + 1
        ],
    )
    def test_candidate_log_likelihood_matches_deviation_tensor(
        self, scope, n_segments, k, n_symbols, budget
    ):
        model, rng = self._model(scope, n_segments=n_segments, seed=4, budget=budget)
        observations, points = self._queries(rng, n_segments=n_segments, n_symbols=n_symbols, k=k)
        candidate = model.candidate_log_likelihood(observations, points)
        assert candidate.shape == (12, n_symbols, k)
        reference = self._reference(model, observations, points)
        assert np.allclose(candidate, reference, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    @pytest.mark.parametrize("budget", [1, 7, 100, 10**9])
    def test_candidate_log_likelihood_is_bitwise_independent_of_budget(self, scope, budget):
        # Per-segment: 40 evaluations per (symbol, subcarrier), so budgets 1
        # and 7 give one-subcarrier blocks and 100 splits the 13 subcarriers
        # 2 + ... + 2 + 1.
        model, rng = self._model(scope, n_data=13, seed=6, budget=budget)
        whole, _ = self._model(scope, n_data=13, seed=6, budget=10**9)
        observations, points = self._queries(rng, n_data=13, n_symbols=7)
        assert np.array_equal(
            model.candidate_log_likelihood(observations, points),
            whole.candidate_log_likelihood(observations, points),
        )

    def test_candidate_log_likelihood_validation(self):
        model, rng = self._model("per-segment")
        obs = np.zeros((12, 5, 3), dtype=complex)
        with pytest.raises(ValueError):
            model.candidate_log_likelihood(obs, np.zeros((12, 4, 2), dtype=complex))
        with pytest.raises(ValueError):
            model.candidate_log_likelihood(
                np.zeros((12, 4, 3), dtype=complex), np.zeros((12, 3, 2), dtype=complex)
            )

    def test_subcarrier_rows_validation(self):
        # Pair layout: row i is scored against the densities of subcarrier
        # subcarriers[i], in any order and with repeats.
        model, _ = self._model("per-segment")
        obs = np.zeros((3, 5, 1), dtype=complex)
        pts = np.zeros((3, 1, 2), dtype=complex)
        scores = model.candidate_log_likelihood(obs, pts, subcarriers=np.array([11, 0, 11]))
        assert scores.shape == (3, 1, 2)
        for bad in ([0, 1], [0.0, 1.0, 2.0], [0, 12, 4], [-1, 0, 4]):
            with pytest.raises(ValueError):
                model.candidate_log_likelihood(obs, pts, subcarriers=np.array(bad))

    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    @pytest.mark.parametrize("budget", [1, 7, 100, 10**9])
    def test_candidate_log_likelihood_bound_is_bitwise_independent_of_budget(
        self, scope, budget
    ):
        # The bound's blocks split rows and symbols only, as the kernel's do,
        # so which candidates the decoder verifies does not depend on the budget.
        model, rng = self._model(scope, n_data=13, seed=6, budget=budget)
        whole, _ = self._model(scope, n_data=13, seed=6, budget=10**9)
        observations, points = self._queries(rng, n_data=13, n_symbols=7)
        assert np.array_equal(
            model.candidate_log_likelihood_bound(observations, points),
            whole.candidate_log_likelihood_bound(observations, points),
        )

    def test_candidate_log_likelihood_bound_validation(self):
        # The bound checks its arguments as the kernel does; its rows are
        # always the model's subcarriers.
        model, _ = self._model("per-segment")
        for observations, points in [
            ((12, 5, 3), (12, 4, 2)),  # 3 symbols against 4
            ((12, 4, 3), (12, 3, 2)),  # 4 segments, not 5
            ((11, 5, 3), (11, 3, 2)),  # 11 rows, not 12
            ((12, 5), (12, 2)),  # not three-dimensional
        ]:
            with pytest.raises(ValueError):
                model.candidate_log_likelihood_bound(
                    np.zeros(observations, dtype=complex), np.zeros(points, dtype=complex)
                )


# --------------------------------------------------------------------------- #
# Sphere and ML decoder                                                       #
# --------------------------------------------------------------------------- #
CONSTELLATIONS = {"qpsk": qpsk(), "16qam": qam16(), "64qam": qam64()}


def _decoder_frame(constellation, n_segments, seed, far=8.0, n_data=32, n_symbols=10):
    """Observations ``(P, S, n_data)`` whose centroids sit from on a lattice
    point (subcarrier 0) to ``far`` minimum distances off it (the last), so
    the in-sphere counts ``m`` of a frame span 1..k."""
    rng = np.random.default_rng(seed)
    true = rng.integers(0, constellation.order, size=(n_symbols, n_data))
    offsets = constellation.min_distance * np.geomspace(0.05, far, n_data)
    offsets = offsets * np.exp(2j * np.pi * rng.random((n_symbols, n_data)))
    shape = (n_segments, n_symbols, n_data)
    noise = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return constellation.map_indices(true)[None] + offsets[None] + 0.25 * noise


def _decoder_model(n_data, n_segments, scope, seed, budget=None):
    rng = np.random.default_rng(seed)
    shape = (n_data, n_segments, 2)
    deviations = 0.3 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return InterferenceModel(deviations, CPRecycleConfig(model_scope=scope, kde_chunk_elements=budget))


def _in_sphere_counts(decoder, observations):
    candidates = select_sphere_candidates(
        decoder.constellation,
        observations.mean(axis=0).reshape(-1),
        decoder.sphere_radius,
        decoder.config.max_candidates,
    )
    return candidates, candidates.valid.sum(axis=1)


class TestSphereCandidates:
    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(CONSTELLATIONS)),
        radius=st.floats(min_value=1e-9, max_value=1e3),
        max_candidates=st.integers(min_value=1, max_value=64),
        centers=st.lists(
            st.one_of(
                st.complex_numbers(max_magnitude=2.0),  # on and around the lattice
                st.complex_numbers(min_magnitude=10.0, max_magnitude=1e6),  # far outside
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_rows_are_nearest_first_with_an_in_sphere_prefix(
        self, name, radius, max_candidates, centers
    ):
        constellation = CONSTELLATIONS[name]
        centers = np.array(centers, dtype=complex)
        candidates = select_sphere_candidates(constellation, centers, radius, max_candidates)
        k = min(max_candidates, constellation.order)
        assert candidates.indices.shape == candidates.valid.shape == (len(centers), k)
        distances = np.abs(centers[:, None] - candidates.points)
        assert np.all(np.diff(distances, axis=1) >= 0)
        valid = candidates.valid
        assert valid[:, 0].all()
        in_sphere = valid.sum(axis=1, keepdims=True)
        assert np.array_equal(valid, np.arange(k) < in_sphere)  # a prefix
        assert np.array_equal(valid[:, 1:], distances[:, 1:] <= radius)


class TestScoreBound:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(CONSTELLATIONS)),
        n_segments=st.sampled_from([1, 2, 8, 9, 40, 64]),  # q > P, q = P and q < P
        scope=st.sampled_from(["per-segment", "pooled"]),
        n_preambles=st.integers(min_value=1, max_value=3),
        weights=st.sampled_from([(1.0, 0.25), (1.0, 0.0), (0.0, 0.25)]),
        spread=st.sampled_from([0.01, 0.3, 3.0]),
        far=st.sampled_from([0.1, 1.0, 8.0, 1000.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bound_is_never_below_the_exact_score(
        self, name, n_segments, scope, n_preambles, weights, spread, far, seed
    ):
        # Per-segment densities hold n_preambles samples, pooled ones
        # P * n_preambles; observations sit from on the lattice to `far`
        # minimum distances off it.
        constellation = CONSTELLATIONS[name]
        amplitude_weight, phase_weight = weights
        config = CPRecycleConfig(
            model_scope=scope, amplitude_weight=amplitude_weight, phase_weight=phase_weight
        )
        rng = np.random.default_rng(seed)
        n_data, n_symbols = 6, 3
        shape = (n_data, n_segments, n_preambles)
        deviations = spread * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        model = InterferenceModel(deviations, config)
        observations = _decoder_frame(
            constellation, n_segments, seed, far=far, n_data=n_data, n_symbols=n_symbols
        )
        candidates, _ = _in_sphere_counts(FixedSphereMlDecoder(constellation, config), observations)
        frame = np.transpose(observations, (2, 0, 1))
        points = np.transpose(candidates.points.reshape(n_symbols, n_data, -1), (1, 0, 2))
        bound = model.candidate_log_likelihood_bound(frame, points)
        exact = model.candidate_log_likelihood(frame, points)
        assert bound.shape == exact.shape
        assert np.all(bound >= exact)

    @pytest.mark.parametrize("n_segments", [1, 2, 8])
    def test_bound_exceeds_the_score_by_its_slack_alone_when_nothing_is_dropped(
        self, n_segments
    ):
        # One training sample per density, no phase term and P <= 8: the
        # kernel's score is minus the sum of every segment's amplitude term,
        # and the bound sums the same terms, so it exceeds the score by its
        # slack only: a relative 1e-8 of that sum plus 1e-12 per segment.
        config = CPRecycleConfig(phase_weight=0.0, bandwidth_amplitude=0.3)
        rng = np.random.default_rng(n_segments)
        n_data, n_symbols = 6, 3
        shape = (n_data, n_segments, 1)
        deviations = 0.3 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        model = InterferenceModel(deviations, config)
        observations = _decoder_frame(
            qam16(), n_segments, seed=n_segments, n_data=n_data, n_symbols=n_symbols
        )
        candidates, _ = _in_sphere_counts(FixedSphereMlDecoder(qam16(), config), observations)
        frame = np.transpose(observations, (2, 0, 1))
        points = np.transpose(candidates.points.reshape(n_symbols, n_data, -1), (1, 0, 2))
        distances = np.abs(frame[:, :, :, None] - points[:, None])  # (n, P, S, k)
        amplitude = 0.5 * ((distances - np.abs(deviations)[..., None]) / 0.3) ** 2
        slack = 1e-8 * amplitude.sum(axis=1) + n_segments * 1e-12
        gap = model.candidate_log_likelihood_bound(frame, points) - model.candidate_log_likelihood(
            frame, points
        )
        assert np.all(gap >= 0)
        assert np.allclose(gap, slack, rtol=1e-3, atol=1e-13)

    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    def test_bound_reads_only_the_narrowest_segments(self, scope):
        # P = 12 > BOUND_SEGMENTS.  Segment j of subcarrier f has amplitude
        # samples s and 2s with s = 0.1 * 1.3**rank[f, j], so its Silverman
        # bandwidth grows with the rank: the 8 lowest ranks are the narrowest
        # kernels.  A pooled model has one density per subcarrier, and its
        # first 8 segments by index count.
        n_data, n_segments, n_symbols, k = 6, 12, 3, 4
        rng = np.random.default_rng(21)
        rank = np.argsort(rng.random((n_data, n_segments)), axis=1)
        deviations = 0.1 * 1.3 ** rank[:, :, None] * np.array([1.0, 2.0])
        model = InterferenceModel(deviations, CPRecycleConfig(model_scope=scope))
        if scope == "pooled":
            narrow = np.broadcast_to(np.arange(n_segments) < 8, rank.shape)
        else:
            narrow = rank < 8
        observations = rng.normal(size=(n_data, n_segments, n_symbols)) + 1j * rng.normal(
            size=(n_data, n_segments, n_symbols)
        )
        points = rng.normal(size=(n_data, n_symbols, k)) + 1j * rng.normal(
            size=(n_data, n_symbols, k)
        )
        bound = model.candidate_log_likelihood_bound(observations, points)
        for segment in range(n_segments):
            moved = observations.copy()
            moved[:, segment] += 0.5
            changed = model.candidate_log_likelihood_bound(moved, points) != bound
            assert np.array_equal(changed.any(axis=(1, 2)), narrow[:, segment]), segment


class TestDecoderFastPath:
    @pytest.mark.parametrize("n_segments", [1, 5, 40])
    @pytest.mark.parametrize("constellation", [qpsk(), qam16(), qam64()])
    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    def test_batched_decode_frame_matches_reference(self, constellation, scope, n_segments):
        observations = _decoder_frame(constellation, n_segments, seed=42)
        model = _decoder_model(observations.shape[2], n_segments, scope, seed=3)
        decoder = FixedSphereMlDecoder(constellation, CPRecycleConfig(model_scope=scope))
        candidates, in_sphere = _in_sphere_counts(decoder, observations)
        assert np.array_equal(np.unique(in_sphere), np.arange(1, candidates.n_candidates + 1))
        fast = decoder.decode_frame(observations, model)
        reference = decoder.decode_frame_reference(observations, model)
        assert fast.dtype == reference.dtype
        assert fast.flags.c_contiguous
        assert np.array_equal(fast, reference)

    def test_exact_ties_decide_by_the_first_maximum(self):
        constellation = qpsk()
        # Every observation sits on the midpoint of two adjacent QPSK points:
        # their deviations are +-x exactly, so an amplitude-only kernel
        # scores the two nearest candidates exactly alike.
        points = constellation.points
        adjacent = np.abs(points[:, None] - points[None, :]) == constellation.min_distance
        pairs = [(a, b) for a, b in zip(*np.nonzero(adjacent)) if a < b]
        midpoints = np.array([(points[a] + points[b]) / 2 for a, b in pairs])
        rng = np.random.default_rng(4)
        observations = np.broadcast_to(
            rng.choice(midpoints, size=(6, 20)), (5, 6, 20)
        ).copy()
        config = CPRecycleConfig(phase_weight=0.0)
        shape = (20, 5, 2)
        deviations = 0.3 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        model = InterferenceModel(deviations, config)
        decoder = FixedSphereMlDecoder(constellation, config)
        candidates, _ = _in_sphere_counts(decoder, observations)
        full = model.candidate_log_likelihood(
            np.transpose(observations, (2, 0, 1)),
            np.transpose(candidates.points.reshape(6, 20, 4), (1, 0, 2)),
        )
        assert np.all((full == full.max(axis=-1, keepdims=True)).sum(axis=-1) == 2)
        fast = decoder.decode_frame(observations, model)
        assert np.array_equal(fast, decoder.decode_frame_reference(observations, model))

    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    @pytest.mark.parametrize("budget", [1, 7, 100, 10**9])
    def test_in_sphere_scores_equal_full_k_scores(self, scope, budget):
        observations = _decoder_frame(qam16(), 5, seed=8)
        n_segments, n_symbols, n_data = observations.shape
        decoder = FixedSphereMlDecoder(qam16(), CPRecycleConfig(model_scope=scope))
        candidates, in_sphere = _in_sphere_counts(decoder, observations)
        k = candidates.n_candidates
        whole = _decoder_model(n_data, n_segments, scope, seed=5, budget=10**9)
        full = whole.candidate_log_likelihood(
            np.transpose(observations, (2, 0, 1)),
            np.transpose(candidates.points.reshape(n_symbols, n_data, k), (1, 0, 2)),
        )
        full = np.transpose(full, (1, 0, 2)).reshape(-1, k)  # row-major (symbol, subcarrier)
        model = _decoder_model(n_data, n_segments, scope, seed=5, budget=budget)
        columns = observations.reshape(n_segments, -1)
        for m in np.unique(in_sphere):
            group = np.flatnonzero(in_sphere == m)
            scores = model.candidate_log_likelihood(
                columns[:, group].T[:, :, None],
                candidates.points[group, None, :m],
                subcarriers=group % n_data,
            )
            assert scores.shape == (group.size, 1, m)
            assert np.array_equal(scores[:, 0], full[group, :m])

    def test_frame_without_symbols_decodes_to_nothing(self):
        model = _decoder_model(32, 5, "per-segment", seed=2)
        decided = FixedSphereMlDecoder(qam16()).decode_frame(np.zeros((5, 0, 32), complex), model)
        assert decided.shape == (0, 32) and decided.dtype == np.int64

    def test_decode_frame_validation(self):
        model = _decoder_model(32, 5, "per-segment", seed=2)
        decoder = FixedSphereMlDecoder(qam16())
        for shape in [(5, 32), (5, 3, 31), (4, 3, 32)]:  # one symbol, 31 subcarriers, P = 4
            with pytest.raises(ValueError):
                decoder.decode_frame(np.zeros(shape, dtype=complex), model)

    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    def test_decisions_are_independent_of_the_budget(self, scope):
        observations = _decoder_frame(qam16(), 9, seed=12)
        n_data = observations.shape[2]
        decoder = FixedSphereMlDecoder(qam16(), CPRecycleConfig(model_scope=scope))
        reference = decoder.decode_frame_reference(
            observations, _decoder_model(n_data, 9, scope, seed=2)
        )
        for budget in (1, 7, 100, 10**9):
            model = _decoder_model(n_data, 9, scope, seed=2, budget=budget)
            assert np.array_equal(decoder.decode_frame(observations, model), reference), budget

    @pytest.mark.parametrize("scope", ["per-segment", "pooled"])
    def test_decisions_are_independent_of_memory_order(self, scope):
        # The front end hands frames over with subcarriers outermost in memory.
        observations = _decoder_frame(qam16(), 9, seed=14)
        front_end_order = np.ascontiguousarray(observations.transpose(2, 0, 1)).transpose(1, 2, 0)
        assert not front_end_order.flags.c_contiguous
        model = _decoder_model(observations.shape[2], 9, scope, seed=4)
        decoder = FixedSphereMlDecoder(qam16(), CPRecycleConfig(model_scope=scope))
        decided = decoder.decode_frame(front_end_order, model)
        assert np.array_equal(decided, decoder.decode_frame(observations, model))
        assert np.array_equal(decided, decoder.decode_frame_reference(observations, model))

    def test_nan_never_prunes(self):
        # NaN observations leave their columns one candidate, the nearest.
        # A NaN training deviation at segment 8 of subcarrier 10 makes every
        # exact score of that subcarrier NaN, so the reference decides by
        # the first NaN, slot 0.  With fixed bandwidths the log-normaliser
        # stays finite, and P = 9 > BOUND_SEGMENTS leaves segment 8 (last by
        # index among equal kernels) out of the bound, so the bounds stay
        # finite and rank other slots first in 6 of the 10 columns.
        observations = _decoder_frame(qam16(), 9, seed=13)
        observations[2, 1, 3] = np.nan
        observations[:, 4, 7] = complex(np.nan, 1.0)
        n_data = observations.shape[2]
        rng = np.random.default_rng(6)
        shape = (n_data, 9, 2)
        deviations = 0.3 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        deviations[10, 8, 0] = np.nan
        config = CPRecycleConfig(bandwidth_amplitude=0.3, bandwidth_phase=0.5)
        model = InterferenceModel(deviations, config)
        decoder = FixedSphereMlDecoder(qam16(), config)
        candidates, _ = _in_sphere_counts(decoder, observations)
        k = candidates.n_candidates
        bound = model.candidate_log_likelihood_bound(
            np.transpose(observations, (2, 0, 1)),
            np.transpose(candidates.points.reshape(10, n_data, k), (1, 0, 2)),
        )[10]
        valid = candidates.valid.reshape(10, n_data, k)[:, 10]
        assert np.isfinite(bound).all()
        assert np.argmax(np.where(valid, bound, -np.inf), axis=1).any()
        decided = decoder.decode_frame(observations, model)
        assert np.array_equal(decided, decoder.decode_frame_reference(observations, model))
        assert np.array_equal(decided[:, 10], candidates.indices.reshape(10, n_data, k)[:, 10, 0])

    @pytest.mark.parametrize(
        "name, far",
        [
            ("qpsk", 0.3),  # near the lattice: every slot in the sphere
            ("qpsk", 30.0),
            ("16qam", 8.0),
            ("64qam", 0.3),
            ("64qam", 8.0),
        ],
    )
    def test_shape_ledger_counts_the_evaluations_made(self, name, far, monkeypatch):
        observations = _decoder_frame(CONSTELLATIONS[name], 5, seed=9, far=far)
        n_segments, n_symbols, n_data = observations.shape
        decoder = FixedSphereMlDecoder(CONSTELLATIONS[name])
        candidates, in_sphere = _in_sphere_counts(decoder, observations)
        k = candidates.n_candidates
        model = _decoder_model(n_data, n_segments, "per-segment", seed=1)
        # The survivors, from every slot's bound and exact score: the
        # in-sphere slots other than the best-bound one whose bound is not
        # below the best-bound slot's exact score.
        frame = np.transpose(observations, (2, 0, 1))
        points = np.transpose(candidates.points.reshape(n_symbols, n_data, k), (1, 0, 2))
        bound, exact = (
            np.transpose(score(frame, points), (1, 0, 2)).reshape(-1, k)
            for score in (model.candidate_log_likelihood_bound, model.candidate_log_likelihood)
        )
        bound[~candidates.valid] = -np.inf
        columns = np.arange(in_sphere.size)
        best = np.argmax(bound, axis=1)
        survivors = candidates.valid & (bound >= exact[columns, best][:, None])
        n_survivors = survivors.sum() - survivors[columns, best].sum()
        assert n_survivors < (in_sphere - 1).sum()  # the bound prunes

        calls = []
        score = InterferenceModel.candidate_log_likelihood

        def counted(self, observations, points, subcarriers=None):
            # The outside-in ledger reads exactly the two argument shapes.
            calls.append((observations.shape, points.shape, subcarriers is None))
            return score(self, observations, points, subcarriers)

        made = []
        kernel = interference_model._segment_summed_log_density

        def evaluated(block, *banks):
            made.append(block[0].size)  # (symbols, candidates, segments, rows)
            return kernel(block, *banks)

        monkeypatch.setattr(InterferenceModel, "candidate_log_likelihood", counted)
        monkeypatch.setattr(interference_model, "_segment_summed_log_density", evaluated)
        decoded = decoder.decode_frame(observations, model)
        assert np.array_equal(decoded, decoder.decode_frame_reference(observations, model))
        # One best-bound pass in frame layout, then the survivors in pairs.
        assert calls[0] == ((n_data, n_segments, n_symbols), (n_data, n_symbols, 1), True)
        for obs_shape, points_shape, frame_layout in calls[1:]:
            assert obs_shape[1:] == (n_segments, 1) and points_shape[1:] == (1, 1)
            assert not frame_layout
        ledger = sum(math.prod(obs) * points[-1] for obs, points, _ in calls)
        assert ledger == sum(made) == n_segments * (in_sphere.size + n_survivors)


# --------------------------------------------------------------------------- #
# Scenario and front end                                                      #
# --------------------------------------------------------------------------- #
def _bits(array):
    """Dtype, shape and raw bytes of an array: equal only when bitwise equal."""
    array = np.asarray(array)
    return array.dtype, array.shape, array.tobytes()


def _one_training_symbol_scenario(sir_db, payload_length):
    """Fig. 8's 16QAM-1/2 scenario with one training symbol (Np = 1)."""
    fig8 = aci_scenario("16qam-1/2", sir_db, payload_length=payload_length)
    return Scenario(
        fig8.allocation,
        mcs_name=fig8.mcs_name,
        payload_length=payload_length,
        snr_db=fig8.snr_db,
        interferers=fig8.interferers,
        n_preamble_symbols=1,
    )


def _front_end_scenario(layout):
    if layout == "802.11g":  # occupied bins split around DC
        return cci_scenario("qpsk-1/2", 5.0, payload_length=40)
    if layout == "wideband-160-Np1":
        return _one_training_symbol_scenario(-15.0, payload_length=40)
    two_sided = layout == "wideband-256"
    return aci_scenario("16qam-1/2", -15.0, payload_length=40, two_sided=two_sided)


def assert_front_end_matches_reference(front_end, rxs):
    """``process`` and ``process_batch`` equal the data bins of the full-grid oracle."""
    batched = front_end.process_batch(rxs)
    assert len(batched) == len(rxs)
    for rx, from_batch in zip(rxs, batched):
        reference = front_end.process_reference(rx)
        data_bins = rx.allocation.data_bin_array()
        for front in (from_batch, front_end.process(rx)):
            assert _bits(front.preamble) == _bits(reference.preamble[:, :, data_bins])
            assert _bits(front.data) == _bits(reference.data[:, :, data_bins])
            # Same memory order too: later reductions sum in memory order.
            assert front.preamble.strides == reference.preamble[:, :, data_bins].strides
            assert front.data.strides == reference.data[:, :, data_bins].strides
            assert _bits(front.channel_estimate) == _bits(reference.channel_estimate[data_bins])
            assert _bits(front.segment_offsets) == _bits(reference.segment_offsets)
            assert front.frame_start == reference.frame_start


class TestRealizeAndFrontEndBatch:
    def _scenario(self):
        return aci_scenario("qpsk-1/2", -15.0, payload_length=40)

    def test_realize_batch_matches_sequential_child_rngs(self):
        scenario = self._scenario()
        batch = scenario.realize_batch(3, seed=9)
        for index, rx in enumerate(batch):
            expected = scenario.realize(child_rng(9, index))
            assert np.array_equal(rx.composite, expected.composite)
            assert np.array_equal(rx.tx_frame.data_points, expected.tx_frame.data_points)

    def test_realize_batch_first_index_slices_the_stream(self):
        scenario = self._scenario()
        tail = scenario.realize_batch(2, seed=9, first_index=1)
        full = scenario.realize_batch(3, seed=9)
        assert np.array_equal(tail[0].composite, full[1].composite)
        assert np.array_equal(tail[1].composite, full[2].composite)

    def test_realize_batch_validation(self):
        scenario = self._scenario()
        with pytest.raises(ValueError):
            scenario.realize_batch(0, seed=1)
        with pytest.raises(ValueError):
            scenario.realize_batch(1, seed=1, first_index=-1)

    @pytest.mark.parametrize("channel_estimator", ["best-segment", "ls-reference"])
    @pytest.mark.parametrize("segments, batch", [(1, 1), (5, 3), ("cp", 16)])
    @pytest.mark.parametrize(
        "layout", ["802.11g", "wideband-160", "wideband-256", "wideband-160-Np1"]
    )
    def test_process_matches_full_grid_reference(self, layout, segments, batch,
                                                 channel_estimator):
        scenario = _front_end_scenario(layout)
        cp_length = scenario.allocation.cp_length
        n_segments = cp_length if segments == "cp" else segments
        front_end = FrontEnd(
            n_segments=n_segments, max_segments=cp_length, channel_estimator=channel_estimator
        )
        rxs = scenario.realize_batch(batch, seed=5)
        assert_front_end_matches_reference(front_end, rxs)
        assert front_end.process(rxs[0]).n_segments == n_segments

    def test_batch_of_mixed_window_geometries_matches_full_grid_reference(self):
        # Two multipath channels leave 27 and 15 ISI-free samples, so the
        # interleaved batch holds two window geometries (P = 27 and 15); each
        # packet must come back in its own place from its own front-end batch.
        allocation = aci_scenario("qpsk-1/2", -10.0, payload_length=40).allocation
        batches = [
            Scenario(
                allocation,
                payload_length=40,
                snr_db=30.0,
                channel=ExponentialMultipathChannel(spread, allocation.sample_rate_hz),
            ).realize_batch(3, seed=5)
            for spread in (50e-9, 100e-9)
        ]
        rxs = [rx for pair in zip(*batches) for rx in pair]
        front_end = FrontEnd(max_segments=allocation.cp_length)
        assert_front_end_matches_reference(front_end, rxs)
        fronts = front_end.process_batch(rxs)
        assert [front.n_segments for front in fronts] == [27, 15] * 3
        assert [indices for indices, _ in front_end_batches(fronts)] == [[0, 2, 4], [1, 3, 5]]

    @pytest.mark.parametrize("segments", [1, 40])
    def test_one_packet_batch_matches_full_grid_reference(self, segments):
        scenario = aci_scenario("16qam-1/2", -15.0, payload_length=60)
        front_end = FrontEnd(n_segments=segments, max_segments=40)
        assert_front_end_matches_reference(front_end, scenario.realize_batch(1, seed=7))

    def test_one_training_symbol_frames_decode(self):
        # With Np = 1 the best-segment estimator has no spread to rank
        # segments by, so it falls back to least squares at the standard
        # window, and the KDE trains on one deviation per segment.
        scenario = _one_training_symbol_scenario(-10.0, payload_length=60)
        rxs = scenario.realize_batch(3, seed=5)
        front_end = FrontEnd(n_segments=40, max_segments=40)
        least_squares = FrontEnd(n_segments=40, max_segments=40, channel_estimator="ls-reference")
        for front, fallback in zip(front_end.process_batch(rxs), least_squares.process_batch(rxs)):
            assert _bits(front.channel_estimate) == _bits(fallback.channel_estimate)
        receiver = CPRecycleReceiver(front_end=front_end)
        demodulated = receiver.demodulate_batch(rxs)
        for rx, batched in zip(rxs, demodulated):
            assert np.array_equal(batched.decisions, receiver.demodulate(rx).decisions)
        coded = np.stack([packet.coded_bits for packet in demodulated])
        assert all(frame.crc_ok for frame in decode_coded_bits_batch(scenario.frame_spec, coded))


# --------------------------------------------------------------------------- #
# Receivers and link engine                                                   #
# --------------------------------------------------------------------------- #
class ReferenceCPRecycle(CPRecycleReceiver):
    """CPRecycle whose per-packet decision runs the per-symbol reference decoder."""

    def decide(self, front, rx):
        decoder = FixedSphereMlDecoder(front.spec.mcs.constellation, self.config)
        return decoder.decode_frame_reference(front.data, self.build_model(front))


def oracle_link_run(scenario, receivers, n_packets, seed, first_packet=0):
    """The per-packet link loop: one packet realised, demodulated and decoded at a time.

    CPRecycle decides through :class:`ReferenceCPRecycle` and the FEC stage
    through the per-frame reference chain.  Returns each receiver's
    per-packet CRC outcomes and its raw symbol error rate.
    """
    receivers = {
        name: ReferenceCPRecycle(receiver.config, receiver.front_end)
        if isinstance(receiver, CPRecycleReceiver)
        else receiver
        for name, receiver in receivers.items()
    }
    coded = {name: [] for name in receivers}
    errors = dict.fromkeys(receivers, 0)
    total = 0
    for index in range(n_packets):
        rx = scenario.realize(child_rng(seed, first_packet + index))
        truth = rx.spec.mcs.constellation.nearest_indices(rx.tx_frame.data_points)
        total += truth.size
        for name, receiver in receivers.items():
            demodulated = receiver.demodulate(rx)
            coded[name].append(demodulated.coded_bits)
            errors[name] += int(np.count_nonzero(demodulated.decisions != truth))
    successes = {
        name: tuple(
            frame.crc_ok
            for frame in decode_coded_bits_batch_reference(scenario.frame_spec, np.stack(bits))
        )
        for name, bits in coded.items()
    }
    return successes, {name: errors[name] / total for name in receivers}


#: name -> (scenario, n_packets, first_packet).  The 60-byte cases run one
#: packet more than FAST_ENGINE_BATCH, so the batched path splits them; the
#: 400-byte case is the paper's full-profile frame size.  Each SIR leaves
#: both CRC outcomes among CPRecycle's packets.
ORACLE_CASES = {
    "aci-qpsk-60B": (
        aci_scenario("qpsk-1/2", -22.0, payload_length=60), FAST_ENGINE_BATCH + 1, 0
    ),
    "cci-16qam-60B-window": (
        cci_scenario("16qam-1/2", 12.0, payload_length=60), FAST_ENGINE_BATCH + 1, 5
    ),
    "aci-16qam-400B": (aci_scenario("16qam-1/2", -16.0, payload_length=400), 4, 0),
}
ORACLE_SEED = 3


@functools.lru_cache(maxsize=None)
def _oracle(case, first_packet):
    scenario, n_packets, _ = ORACLE_CASES[case]
    receivers = build_receivers(scenario.allocation)
    return oracle_link_run(scenario, receivers, n_packets, ORACLE_SEED, first_packet=first_packet)


class TestLinkEngineEquivalence:
    @pytest.mark.parametrize(
        "scenario",
        [
            aci_scenario("qpsk-1/2", -18.0, payload_length=40),
            cci_scenario("16qam-1/2", 12.0, payload_length=40),
        ],
        ids=["aci-qpsk", "cci-16qam"],
    )
    def test_demodulate_batch_matches_per_packet(self, scenario):
        rxs = scenario.realize_batch(3, seed=21)
        receivers = build_receivers(scenario.allocation)
        for receiver in receivers.values():
            batch = receiver.demodulate_batch(rxs)
            for rx, demodulated in zip(rxs, batch):
                expected = receiver.demodulate(rx)
                assert np.array_equal(demodulated.decisions, expected.decisions)
                assert np.array_equal(demodulated.coded_bits, expected.coded_bits)

    def test_packet_success_rate_engines_agree(self):
        """The batched engine's per-packet outcomes equal the per-packet oracle's."""
        for case, (scenario, n_packets, first_packet) in ORACLE_CASES.items():
            successes, _ = _oracle(case, first_packet)
            batched = packet_success_rate(
                scenario,
                build_receivers(scenario.allocation),
                n_packets,
                seed=ORACLE_SEED,
                first_packet=first_packet,
            )
            assert {name: result.successes for name, result in batched.items()} == successes, case

    def test_symbol_error_rate_engines_agree(self):
        """The batched engine's raw symbol error rates equal the per-packet oracle's."""
        for case, (scenario, n_packets, _) in ORACLE_CASES.items():
            _, error_rates = _oracle(case, 0)
            batched = symbol_error_rate(
                scenario, build_receivers(scenario.allocation), n_packets, seed=ORACLE_SEED
            )
            assert batched == error_rates, case


# --------------------------------------------------------------------------- #
# FEC chain and scrambler                                                     #
# --------------------------------------------------------------------------- #
class TestChainEquivalence:
    def test_vectorised_chain_matches_reference(self):
        scenario = aci_scenario("16qam-1/2", -14.0, payload_length=60)
        spec = scenario.frame_spec
        rxs = scenario.realize_batch(3, seed=8)
        receiver = StandardOfdmReceiver()
        coded = np.stack([receiver.demodulate(rx).coded_bits for rx in rxs])
        fast = decode_coded_bits_batch(spec, coded)
        reference = decode_coded_bits_batch_reference(spec, coded)
        assert len(fast) == len(reference)
        for a, b in zip(fast, reference):
            assert a.psdu == b.psdu
            assert a.crc_ok == b.crc_ok
            assert a.payload == b.payload

    def test_viterbi_fast_matches_reference_formulation(self):
        rng = np.random.default_rng(0)
        coded = rng.integers(0, 2, size=(5, 520), dtype=np.uint8)
        mask = rng.random((5, 520)) > 0.3
        for terminated in (True, False):
            fast = ViterbiDecoder(terminated=terminated).decode_batch(coded, mask)
            reference = ViterbiDecoder(terminated=terminated, reference=True).decode_batch(
                coded, mask
            )
            assert np.array_equal(fast, reference)

    @pytest.mark.parametrize("terminated", [True, False], ids=["terminated", "unterminated"])
    @pytest.mark.parametrize("n_steps", [7, 261])
    @pytest.mark.parametrize("batch", [1, 3, 65])
    @pytest.mark.parametrize("inputs", ["all-erased", "integer-llrs"])
    def test_viterbi_tie_heavy_inputs_match_reference(self, inputs, batch, n_steps, terminated):
        # Exact ties between the two predecessors are where a select that
        # breaks them differently from argmin would diverge.
        rng = np.random.default_rng(batch * 1000 + n_steps)
        fast = ViterbiDecoder(terminated=terminated)
        reference = ViterbiDecoder(terminated=terminated, reference=True)
        if inputs == "all-erased":
            coded = rng.integers(0, 2, size=(batch, 2 * n_steps), dtype=np.uint8)
            erased = np.zeros(coded.shape, dtype=bool)
            expected = reference.decode_batch(coded, erased)
            assert np.array_equal(fast.decode_batch(coded, erased), expected)
        else:
            llrs = rng.integers(-2, 3, size=(batch, 2 * n_steps)).astype(np.float64)
            assert np.array_equal(fast.decode_soft_batch(llrs), reference.decode_soft_batch(llrs))

    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=6),
        n_steps=st.integers(min_value=0, max_value=40),
        erased_fraction=st.floats(min_value=0.0, max_value=1.0),
        terminated=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_viterbi_matches_reference_on_random_shapes(
        self, batch, n_steps, erased_fraction, terminated, seed
    ):
        rng = np.random.default_rng(seed)
        coded = rng.integers(0, 2, size=(batch, 2 * n_steps), dtype=np.uint8)
        known = rng.random(coded.shape) >= erased_fraction
        fast = ViterbiDecoder(terminated=terminated).decode_batch(coded, known)
        reference = ViterbiDecoder(terminated=terminated, reference=True).decode_batch(coded, known)
        assert np.array_equal(fast, reference)

    def test_viterbi_batch_slicing_is_exact(self, monkeypatch):
        # Large batches are swept in memory-bounded slices; frames are
        # independent, so a tiny slice bound must not change a single bit.
        rng = np.random.default_rng(2)
        coded = rng.integers(0, 2, size=(7, 260), dtype=np.uint8)
        whole = ViterbiDecoder().decode_batch(coded)
        monkeypatch.setattr(ViterbiDecoder, "MAX_BRANCH_ELEMENTS", 260 * 64)  # 2 frames
        sliced = ViterbiDecoder().decode_batch(coded)
        assert np.array_equal(whole, sliced)
        assert np.array_equal(sliced, ViterbiDecoder(reference=True).decode_batch(coded))

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_viterbi_branch_table_is_step_major_and_contiguous(self, dtype):
        # Each trellis step reads one (2, 2, 32, batch) block of the table,
        # frames innermost, so the step axis must be outermost in memory,
        # not just in shape.
        rng = np.random.default_rng(3)
        batch, n_steps = 5, 11
        low = 0 if dtype == np.uint8 else -2
        cost_a = rng.integers(low, 3, size=(n_steps, 2, batch)).astype(dtype)
        cost_b = rng.integers(low, 3, size=(n_steps, 2, batch)).astype(dtype)
        # Built into the leading rows of a longer, reused buffer.
        buffer = np.empty((n_steps + 3, 2, 2, 32, batch), dtype=dtype)
        table = _branch_table(cost_a, cost_b, buffer)
        assert table.shape == (n_steps, 2, 2, 32, batch)
        assert table.dtype == dtype and table.flags.c_contiguous
        assert np.shares_memory(table, buffer)
        # Entry [t, p, b, j] is the cost of reaching new state s = 32b + j
        # from its predecessor 2j + p, which emits the coded pair
        # (exp_a[s, p], exp_b[s, p]).
        expected = cost_a[:, _TRELLIS["exp_a"]] + cost_b[:, _TRELLIS["exp_b"]]  # (t, s, p, f)
        expected = expected.transpose(0, 2, 1, 3).reshape(n_steps, 2, 2, 32, batch)
        assert np.array_equal(table, expected)

    def test_viterbi_soft_paths_agree(self):
        rng = np.random.default_rng(1)
        llrs = rng.normal(size=(3, 260))
        fast = ViterbiDecoder().decode_soft_batch(llrs)
        reference = ViterbiDecoder(reference=True).decode_soft_batch(llrs)
        assert np.array_equal(fast, reference)

    def test_merged_fec_call_matches_one_call_per_receiver(self):
        # packet_success_rate decodes every receiver's frames in one call;
        # the split must hand each receiver exactly its own CRC outcomes.
        scenario = aci_scenario("qpsk-1/2", -24.0, payload_length=60)
        receivers = build_receivers(scenario.allocation, ("standard", "naive", "cprecycle"))
        n_packets = FAST_ENGINE_BATCH + 1
        merged = packet_success_rate(scenario, receivers, n_packets, seed=4)
        coded = {name: [] for name in receivers}
        for start in range(0, n_packets, FAST_ENGINE_BATCH):
            rxs = scenario.realize_batch(
                min(FAST_ENGINE_BATCH, n_packets - start), 4, first_index=start
            )
            for name, receiver in receivers.items():
                coded[name].extend(d.coded_bits for d in receiver.demodulate_batch(rxs))
        for name, bits in coded.items():
            frames = decode_coded_bits_batch(scenario.frame_spec, np.stack(bits))
            assert merged[name].successes == tuple(frame.crc_ok for frame in frames), name
        # Distinct outcomes per receiver, so a misplaced split cannot pass.
        assert len({merged[name].successes for name in receivers}) == len(receivers)

    def test_scrambler_sequence_matches_naive_lfsr(self):
        for seed in (0b1011101, 1, 93):
            length = 300
            state = [(seed >> i) & 1 for i in range(7)]
            expected = np.empty(length, dtype=np.uint8)
            for i in range(length):
                feedback = state[6] ^ state[3]
                expected[i] = feedback
                state = [feedback] + state[:6]
            assert np.array_equal(scrambler_sequence(length, seed), expected)


# --------------------------------------------------------------------------- #
# Parallel execution backend                                                  #
# --------------------------------------------------------------------------- #
def _square(value):
    return value * value


class TestParallelBackend:
    def test_serial_and_pool_agree(self):
        items = list(range(6))
        assert parallel_map(_square, items, n_workers=1) == [v * v for v in items]
        assert parallel_map(_square, items, n_workers=2) == [v * v for v in items]

    def test_unpicklable_falls_back_with_warning(self):
        offset = 3
        with pytest.warns(RuntimeWarning):
            # repro-lint: disable=RPR003 -- deliberately unpicklable: this
            # test exercises the serial-fallback path for such callables.
            result = parallel_map(lambda v: v + offset, [1, 2], n_workers=2)
        assert result == [4, 5]

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1
        assert resolve_workers(4) == 4
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ValueError):
            resolve_workers()
        with pytest.raises(ValueError):
            resolve_workers(0)


# --------------------------------------------------------------------------- #
# End to end: clean channel through the batched engine                        #
# --------------------------------------------------------------------------- #
def test_clean_channel_full_success_via_fast_engine():
    from repro.phy.subcarriers import dot11g_allocation

    scenario = Scenario(dot11g_allocation(), mcs_name="qpsk-1/2", payload_length=30, snr_db=30.0)
    receivers = {"standard": StandardOfdmReceiver(), "cprecycle": CPRecycleReceiver()}
    stats = packet_success_rate(scenario, receivers, 4, seed=0)
    assert stats["standard"].success_rate == 1.0
    assert stats["cprecycle"].success_rate == 1.0
