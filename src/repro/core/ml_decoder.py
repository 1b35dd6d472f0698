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

        One sphere selection covers every symbol.  Its rows are nearest
        first, so the ``m`` in-sphere candidates of a (symbol, subcarrier)
        column are its first ``m`` slots, and a column decides by the first
        maximum of their :meth:`InterferenceModel.candidate_log_likelihood`
        scores.  Bound and verify finds that maximum while scoring few of
        them:

        1. :meth:`InterferenceModel.candidate_log_likelihood_bound` bounds
           every candidate's score, and the in-sphere candidate with the
           first-highest bound of each column is scored exactly, in frame
           layout (one candidate per column; with ``m = 1`` that is the
           decision).
        2. Every other in-sphere candidate whose bound is not below that
           score is scored exactly, in pair layout (``(pairs, P, 1)``
           observations, one candidate each).  A chunk gathers at most an
           eighth of the KDE's ``max_chunk_elements`` observation values,
           ``pairs * P``, in the frame array's own memory order; the
           kernel's blocks bound its kernel evaluations.  Only ``bound <
           score`` prunes, so a NaN never does.

        A pruned candidate's score is at most its bound, so strictly below
        a score the column holds, and it can be neither the maximum nor a
        tie for it.  The bound holds in floating point: correctly rounded
        operations are monotone, and the bound computes each amplitude term
        ``a`` from the kernel's banks with the kernel's own operations, so
        ``a`` is bitwise the kernel's.  The kernel adds a squared phase
        term ``p >= 0``, so ``fl(a + p) >= a``, and its minimum over the
        training samples is at least the bound's.  Its log-sum-exp term is
        ``log1p(exp(x))`` with ``x <= 0``, at most ``log 2``, or the log of
        ``n`` terms each at most 1, at most ``log n``; ``log n + 1e-12``
        caps either with room for the library's ulps.  The bound raises its
        sum by a relative ``1e-8``, which covers the rounding of both sums
        in their different orders: at least ``10**6`` times the pairwise
        error of a segment sum for P <= 64.  The log-normaliser is
        subtracted from both in the same single operation.  So the
        decisions equal those of scoring every in-sphere candidate, first
        maximum included.

        The kernel reassociates floating-point operations, so its
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
        candidates = select_sphere_candidates(
            self.constellation,
            centroid(observations, axis=0).reshape(-1),
            radius=self.sphere_radius,
            max_candidates=self.config.max_candidates,
        )
        # Columns are row-major (symbol, subcarrier).
        indices, valid, points = candidates.indices, candidates.valid, candidates.points
        n_columns, k = indices.shape
        frame = np.transpose(observations, (2, 0, 1))  # (n_data, P, S) view

        def frame_layout(per_column: np.ndarray) -> np.ndarray:
            # (columns, k) -> (n_data, S, k), the kernel's frame layout.
            return np.swapaxes(per_column.reshape(n_symbols, n_data, per_column.shape[1]), 0, 1)

        bound = model.candidate_log_likelihood_bound(frame, frame_layout(points))
        scores = np.swapaxes(bound, 0, 1).reshape(n_columns, k)  # a view
        scores[~valid] = -np.inf
        columns = np.arange(n_columns)
        best = np.argmax(scores, axis=1)
        exact = model.candidate_log_likelihood(frame, frame_layout(points[columns, best, None]))
        exact = np.swapaxes(exact, 0, 1).reshape(n_columns)  # a view
        verify = ~(scores < exact[:, None])
        verify &= valid
        verify[columns, best] = False
        pairs = np.flatnonzero(verify)  # column * k + slot
        # The bounds' memory now holds the exact scores; pruned slots keep -inf.
        scores.fill(-np.inf)
        scores[columns, best] = exact
        # Each chunk's observation gather stays below an eighth of the
        # kernel's budget; the kernel blocks the evaluations itself.
        chunk = max(1, model.kde.max_chunk_elements // (8 * n_segments))
        for start in range(0, pairs.size, chunk):
            chunk_pairs = pairs[start : start + chunk]
            symbols, subcarriers = np.divmod(chunk_pairs // k, n_data)
            scores.reshape(-1)[chunk_pairs] = model.candidate_log_likelihood(
                observations[:, symbols, subcarriers].T[:, :, None],  # (rows, P, 1)
                points.reshape(-1)[chunk_pairs, None, None],
                subcarriers=subcarriers,
            ).reshape(-1)
        decided = indices[columns, np.argmax(scores, axis=1)]
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
