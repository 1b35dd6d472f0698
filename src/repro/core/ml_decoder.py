"""Fixed-sphere maximum-likelihood decoder over the FFT segments (Eq. 5).

For every data subcarrier of every OFDM symbol the decoder receives ``P``
equalised observations (one per FFT segment).  Candidate lattice points are
selected with the fixed sphere around the observation centroid; each candidate
is scored by the joint likelihood of its per-segment deviations under the
subcarrier's trained interference model, and the best-scoring candidate wins.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import CPRecycleConfig
from repro.core.interference_model import InterferenceModel
from repro.core.sphere import centroid, select_sphere_candidates
from repro.phy.constellation import Constellation

__all__ = ["FixedSphereMlDecoder"]


class FixedSphereMlDecoder:
    """Maximum-likelihood symbol decision across FFT segments."""

    def __init__(self, constellation: Constellation, config: CPRecycleConfig | None = None):
        self.constellation = constellation
        self.config = config if config is not None else CPRecycleConfig()

    # ------------------------------------------------------------------ #
    @property
    def sphere_radius(self) -> float:
        """Sphere radius in constellation units."""
        return self.config.sphere_radius_scale * self.constellation.min_distance

    def decode_symbol(self, observations: np.ndarray, model: InterferenceModel) -> np.ndarray:
        """Decode one OFDM symbol.

        Parameters
        ----------
        observations:
            Equalised observations of shape ``(P, n_data_subcarriers)``.
        model:
            Interference model trained on the same subcarrier ordering.

        Returns
        -------
        numpy.ndarray
            Decided lattice indices, one per data subcarrier.
        """
        observations = np.asarray(observations, dtype=complex)
        if observations.ndim != 2:
            raise ValueError("observations must have shape (P, n_data_subcarriers)")
        n_segments, n_data = observations.shape
        if n_data != model.n_subcarriers:
            raise ValueError(
                f"observations cover {n_data} subcarriers but the model was trained on "
                f"{model.n_subcarriers}"
            )
        centers = centroid(observations, axis=0)
        candidates = select_sphere_candidates(
            self.constellation,
            centers,
            radius=self.sphere_radius,
            max_candidates=self.config.max_candidates,
        )
        # Deviations of every observation from every candidate:
        # (n_data, k, P) = (n_data, 1, P) - (n_data, k, 1)
        deviations = observations.T[:, None, :] - candidates.points[:, :, None]
        log_likelihood = model.log_likelihood(deviations)  # (n_data, k)
        log_likelihood = np.where(candidates.valid, log_likelihood, -np.inf)
        best = np.argmax(log_likelihood, axis=1)
        return candidates.indices[np.arange(n_data), best]

    def decode_frame(self, observations: np.ndarray, model: InterferenceModel) -> np.ndarray:
        """Decode all data symbols of a frame.

        ``observations`` has shape ``(P, n_symbols, n_data_subcarriers)``;
        the result has shape ``(n_symbols, n_data_subcarriers)``.

        One sphere selection and one
        :meth:`InterferenceModel.candidate_log_likelihood` call cover every
        symbol.  That kernel reassociates floating-point operations, so its
        log-likelihoods differ from the per-symbol
        :meth:`decode_frame_reference` only by rounding (about 1e-12
        relative); decisions are identical unless two candidates tie to within
        that rounding, which the equivalence suite pins down across
        constellations, scopes and real scenario workloads.
        """
        observations = np.asarray(observations, dtype=complex)
        if observations.ndim != 3:
            raise ValueError("observations must have shape (P, n_symbols, n_data)")
        n_segments, n_symbols, n_data = observations.shape
        if n_data != model.n_subcarriers:
            raise ValueError(
                f"observations cover {n_data} subcarriers but the model was trained on "
                f"{model.n_subcarriers}"
            )
        centers = centroid(observations, axis=0)  # (n_symbols, n_data)
        candidates = select_sphere_candidates(
            self.constellation,
            centers.reshape(-1),
            radius=self.sphere_radius,
            max_candidates=self.config.max_candidates,
        )
        shape = (n_symbols, n_data, candidates.n_candidates)
        log_likelihood = model.candidate_log_likelihood(
            np.transpose(observations, (2, 0, 1)),                 # (n_data, P, S) view
            np.transpose(candidates.points.reshape(shape), (1, 0, 2)),
        )                                                          # (n_data, S, k)
        log_likelihood = np.where(
            candidates.valid.reshape(shape), np.transpose(log_likelihood, (1, 0, 2)), -np.inf
        )
        best = np.argmax(log_likelihood, axis=-1)                  # (S, n_data)
        decided = np.take_along_axis(candidates.indices.reshape(shape), best[..., None], axis=-1)
        return np.ascontiguousarray(decided[..., 0], dtype=np.int64)

    def decode_frame_reference(
        self, observations: np.ndarray, model: InterferenceModel
    ) -> np.ndarray:
        """Per-symbol reference implementation of :meth:`decode_frame`.

        A test oracle, never called by the library: :meth:`decode_frame`
        must match its output bit for bit (see ``tests/test_fast_path.py``).
        """
        observations = np.asarray(observations, dtype=complex)
        if observations.ndim != 3:
            raise ValueError("observations must have shape (P, n_symbols, n_data)")
        n_symbols = observations.shape[1]
        decisions = np.empty((n_symbols, observations.shape[2]), dtype=np.int64)
        for symbol in range(n_symbols):
            decisions[symbol] = self.decode_symbol(observations[:, symbol, :], model)
        return decisions
