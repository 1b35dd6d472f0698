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

__all__ = ["FULL_SCORING_SHARE", "FixedSphereMlDecoder"]

#: In-sphere share of a frame's candidate slots from which
#: :meth:`FixedSphereMlDecoder.decode_frame` scores every slot in one kernel
#: call instead of grouping the columns by their in-sphere count.  Grouping
#: costs gathers and one call per count, about a fifth of a full scoring:
#: over 92 frames captured from the quick suite, paper-link and campaign
#: workloads (P = 16 to 64; 2-vCPU Xeon, numpy 2.4), grouped time over
#: full-k time fitted to 0.21 + share, crossing 1 at a share of 0.79.
#: 16QAM frames (0.5-0.7 in-sphere) decode 17% faster grouped, QPSK frames
#: (above 0.95) would be 22% slower, and 64QAM frames straddle the line.
FULL_SCORING_SHARE = 0.8


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

        One sphere selection covers every symbol.  Its rows are nearest
        first, so the ``m`` in-sphere candidates of a (symbol, subcarrier)
        column are its first ``m`` slots.  Columns are grouped by ``m`` and
        each group is scored, slots ``0..m-1`` only, by one
        :meth:`InterferenceModel.candidate_log_likelihood` call; a column
        with ``m = 1`` takes its nearest point unscored.  When the in-sphere
        share of all slots reaches :data:`FULL_SCORING_SHARE`, one call
        scores every slot of every column and the out-of-sphere scores are
        masked instead.  Either way a column decides by the first maximum of
        its in-sphere scores, and the kernel scores a candidate bitwise
        alike wherever it sits, so the two paths decide identically.  The
        kernel reassociates floating-point operations, so its
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
        k = candidates.n_candidates
        in_sphere = candidates.valid.sum(axis=1)  # m per column, row-major (symbol, subcarrier)
        if in_sphere.sum() >= FULL_SCORING_SHARE * in_sphere.size * k:
            shape = (n_symbols, n_data, k)
            log_likelihood = model.candidate_log_likelihood(
                np.transpose(observations, (2, 0, 1)),                 # (n_data, P, S) view
                np.transpose(candidates.points.reshape(shape), (1, 0, 2)),
            )                                                          # (n_data, S, k)
            log_likelihood = np.where(
                candidates.valid.reshape(shape), np.transpose(log_likelihood, (1, 0, 2)), -np.inf
            )
            best = np.argmax(log_likelihood, axis=-1).reshape(-1)
        else:
            # Columns ordered by m; group m is the slice ends[m-1]:ends[m].
            by_count = np.argsort(in_sphere, kind="stable")
            ends = np.cumsum(np.bincount(in_sphere, minlength=k + 1))
            columns = observations.reshape(n_segments, -1)
            best = np.zeros(in_sphere.size, dtype=np.intp)  # m = 1: the nearest point
            for m in range(2, k + 1):
                group = by_count[ends[m - 1] : ends[m]]
                if group.size:
                    scores = model.candidate_log_likelihood(
                        np.take(columns, group, axis=1).T[:, :, None],  # (n_cols, P, 1)
                        candidates.points[group, None, :m],              # (n_cols, 1, m)
                        subcarriers=group % n_data,
                    )
                    best[group] = np.argmax(scores[:, 0], axis=-1)
        decided = candidates.indices[np.arange(in_sphere.size), best]
        return decided.reshape(n_symbols, n_data).astype(np.int64, copy=False)

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
