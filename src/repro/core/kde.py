"""Bivariate Gaussian product kernel density estimation (paper Eq. 4).

CPRecycle models the interference seen on each subcarrier as a non-parametric
density over the *amplitude* and *phase* of the deviation between the
equalised observation and the transmitted lattice point.  A bivariate product
of Gaussian kernels is used because, as the paper argues:

* the sample set is tiny (``P`` segments x ``Np`` preambles), so histograms
  are full of holes while kernel estimates stay smooth;
* amplitude and phase effects of interference are uncorrelated, so a product
  kernel with independently tuned bandwidths (and optional weights) fits the
  structure;
* the interference distribution is unknown, so no parametric family (e.g.
  Gaussian noise) can be assumed.

The phase dimension is circular; kernel distances are computed on the wrapped
difference so that deviations of ``+pi`` and ``-pi`` are recognised as close.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require_non_negative, require_positive

__all__ = ["GaussianProductKde", "silverman_bandwidth", "wrap_phase"]

_LOG_TWO_PI = float(np.log(2.0 * np.pi))


def wrap_phase(phase: np.ndarray | float) -> np.ndarray | float:
    """Wrap angles to the interval (-pi, pi]."""
    wrapped = (np.asarray(phase) + np.pi) % (2.0 * np.pi) - np.pi
    # The remainder lands on -pi exactly for odd multiples of pi; only that
    # end of the interval is open.
    return np.where(wrapped == -np.pi, np.pi, wrapped)[()]


def _wrap_samples(phases: np.ndarray) -> np.ndarray:
    """:func:`wrap_phase` for training samples, skipping the remainder when it
    is not needed: angles from ``np.angle`` already lie in [-pi, pi]."""
    if phases.size and -np.pi <= phases.min() and phases.max() <= np.pi:
        return np.where(phases == -np.pi, np.pi, phases)
    return wrap_phase(phases)


def silverman_bandwidth(
    samples: np.ndarray, floor: float, axis: int | None = None
) -> float | np.ndarray:
    """Silverman's rule-of-thumb bandwidth with a positive floor.

    ``1.06 * std * n^(-1/5)`` — the classic data-driven choice the paper
    refers to.  The floor prevents a degenerate (zero-width) kernel when all
    samples coincide, e.g. on an interference-free subcarrier.

    With ``axis=None`` (default) all samples form one set and a scalar is
    returned.  With an integer ``axis`` the bandwidths of every series along
    that axis are selected in one vectorised pass (e.g. ``axis=1`` on a
    ``(n_series, n_samples)`` bank returns ``n_series`` bandwidths).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cannot select a bandwidth from zero samples")
    if axis is None:
        spread = float(np.std(samples))
        bandwidth = 1.06 * spread * samples.size ** (-0.2)
        return max(bandwidth, floor)
    n_samples = samples.shape[axis]
    if n_samples == 0:
        raise ValueError("cannot select a bandwidth from zero samples")
    if n_samples < 8:
        # Sample-major: one elementwise pass per sample instead of a reduction
        # over short rows.  numpy sums fewer than 8 elements in order, so this
        # is bit-identical to ``np.std``; from 8 on it sums pairwise.
        columns = np.moveaxis(samples, axis, 0)
        mean = sum(columns[1:], columns[0]) / n_samples
        squares = [np.square(column - mean) for column in columns]
        spread = np.sqrt(sum(squares[1:], squares[0]) / n_samples)
    else:
        spread = np.std(samples, axis=axis)
    return np.maximum(1.06 * spread * n_samples ** (-0.2), floor)


class GaussianProductKde:
    """Product-kernel density over (amplitude deviation, phase deviation).

    Parameters
    ----------
    amplitudes, phases:
        Training samples, arrays of identical shape ``(n_samples,)`` (or
        ``(n_series, n_samples)`` for a vectorised bank of estimators — one
        independent density per leading row, as used for the per-subcarrier
        interference model).
    bandwidth_amplitude, bandwidth_phase:
        Kernel bandwidths; ``None`` selects them per series with
        :func:`silverman_bandwidth`.
    amplitude_weight, phase_weight:
        Exponents applied to the amplitude and phase kernels; 1.0 recovers the
        plain product kernel of Eq. 4.
    max_chunk_elements:
        Memory budget for density evaluation, counted in kernel evaluations:
        elements of the ``(n_series, ..., n_samples)`` kernel-distance
        intermediate.  Queries whose intermediate would exceed the budget are
        evaluated in chunks along the series axis (identical results, bounded
        memory).  ``None`` uses :data:`DEFAULT_CHUNK_ELEMENTS`; pass e.g.
        ``2**30`` to effectively disable chunking.
    """

    #: Default evaluation budget: 2**16 kernel evaluations per block, i.e.
    #: 2**15 queries of a two-sample density (256 KiB per float64 pass).
    #: Every pass of the decoder's kernel then stays resident in the per-core
    #: L2 cache; 2**18 measured up to 35% slower per decoded frame.
    DEFAULT_CHUNK_ELEMENTS = 2**16

    def __init__(
        self,
        amplitudes: np.ndarray,
        phases: np.ndarray,
        bandwidth_amplitude: float | None = None,
        bandwidth_phase: float | None = None,
        amplitude_weight: float = 1.0,
        phase_weight: float = 1.0,
        min_bandwidth_amplitude: float = 0.02,
        min_bandwidth_phase: float = 0.05,
        max_chunk_elements: int | None = None,
    ):
        amplitudes = np.atleast_2d(np.asarray(amplitudes, dtype=float))
        phases = np.atleast_2d(np.asarray(phases, dtype=float))
        if amplitudes.shape != phases.shape:
            raise ValueError(
                f"amplitude and phase samples must have the same shape, got "
                f"{amplitudes.shape} vs {phases.shape}"
            )
        if amplitudes.shape[1] < 1:
            raise ValueError("at least one training sample is required")
        self.amplitude_samples = amplitudes
        self.phase_samples = _wrap_samples(phases)
        self.amplitude_weight = require_non_negative(amplitude_weight, "amplitude_weight")
        self.phase_weight = require_non_negative(phase_weight, "phase_weight")
        min_bandwidth_amplitude = require_positive(
            min_bandwidth_amplitude, "min_bandwidth_amplitude"
        )
        min_bandwidth_phase = require_positive(min_bandwidth_phase, "min_bandwidth_phase")
        if max_chunk_elements is not None and max_chunk_elements < 1:
            raise ValueError("max_chunk_elements must be positive when given")
        self.max_chunk_elements = (
            self.DEFAULT_CHUNK_ELEMENTS if max_chunk_elements is None else int(max_chunk_elements)
        )

        n_series = amplitudes.shape[0]
        if bandwidth_amplitude is not None:
            bandwidth = require_positive(bandwidth_amplitude, "bandwidth_amplitude")
            self.bandwidth_amplitude = np.full(n_series, bandwidth)
        else:
            self.bandwidth_amplitude = silverman_bandwidth(
                amplitudes, min_bandwidth_amplitude, axis=1
            )
        if bandwidth_phase is not None:
            bandwidth = require_positive(bandwidth_phase, "bandwidth_phase")
            self.bandwidth_phase = np.full(n_series, bandwidth)
        else:
            self.bandwidth_phase = silverman_bandwidth(
                self.phase_samples, min_bandwidth_phase, axis=1
            )

    # ------------------------------------------------------------------ #
    @property
    def n_series(self) -> int:
        """Number of independent densities in this bank."""
        return self.amplitude_samples.shape[0]

    @property
    def n_samples(self) -> int:
        """Training samples per density."""
        return self.amplitude_samples.shape[1]

    @property
    def log_normaliser(self) -> np.ndarray:
        """Per-series log of the kernel sum's normaliser ``n * 2pi * Ba * Bphi``."""
        return (
            np.log(self.n_samples)
            + _LOG_TWO_PI
            + np.log(self.bandwidth_amplitude)
            + np.log(self.bandwidth_phase)
        )

    def log_density(
        self,
        amplitudes: np.ndarray,
        phases: np.ndarray,
        max_chunk_elements: int | None = None,
    ) -> np.ndarray:
        """Log of the estimated density at the query points.

        ``amplitudes`` / ``phases`` must have shape ``(n_series, ...)``; the
        result has the same shape.  Each leading row is evaluated against its
        own training samples and bandwidths.

        The evaluation materialises an ``(n_series, ..., n_samples)``
        intermediate.  When that would exceed the memory budget
        (``max_chunk_elements``, defaulting to the instance's setting), the
        query is split into chunks of series rows that are evaluated
        sequentially — numerically identical to a single pass because every
        reduction runs over the training-sample axis only.

        This is the reference evaluation; the decoder scores candidates with
        :meth:`repro.core.interference_model.InterferenceModel.candidate_log_likelihood`,
        which the tests hold to it.
        """
        amplitudes = np.asarray(amplitudes, dtype=float)
        phases = np.asarray(phases, dtype=float)
        if amplitudes.shape != phases.shape:
            raise ValueError("amplitude and phase queries must have the same shape")
        if amplitudes.shape[0] != self.n_series:
            raise ValueError(
                f"query leading dimension {amplitudes.shape[0]} does not match the "
                f"number of densities {self.n_series}"
            )
        budget = self.max_chunk_elements if max_chunk_elements is None else max_chunk_elements
        if budget is not None and budget < 1:
            raise ValueError("max_chunk_elements must be positive when given")
        n_queries = int(np.prod(amplitudes.shape[1:], dtype=np.int64)) if amplitudes.ndim > 1 else 1
        total_elements = self.n_series * max(n_queries, 1) * self.n_samples
        if total_elements <= budget:
            return self._log_density_block(amplitudes, phases)

        # Chunk along the series axis: each chunk is a contiguous row slice of
        # the query AND of the per-series sample banks.
        chunk = max(1, budget // (max(n_queries, 1) * self.n_samples))
        out = np.empty(amplitudes.shape)
        for start in range(0, self.n_series, chunk):
            stop = min(start + chunk, self.n_series)
            out[start:stop] = self._log_density_block(
                amplitudes[start:stop], phases[start:stop], start, stop
            )
        return out

    def _log_density_block(
        self, amplitudes: np.ndarray, phases: np.ndarray, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Reference kernel evaluation of the series rows ``start:stop``."""
        rows = slice(start, self.n_series if stop is None else stop)
        n_rows = amplitudes.shape[0]
        extra_dims = amplitudes.ndim - 1
        shape_samples = (n_rows,) + (1,) * extra_dims + (self.n_samples,)
        shape_bandwidth = (n_rows,) + (1,) * (extra_dims + 1)

        amp_samples = self.amplitude_samples[rows].reshape(shape_samples)
        ph_samples = self.phase_samples[rows].reshape(shape_samples)
        ba = self.bandwidth_amplitude[rows].reshape(shape_bandwidth)
        bp = self.bandwidth_phase[rows].reshape(shape_bandwidth)

        amp_term = ((amplitudes[..., None] - amp_samples) / ba) ** 2
        ph_term = (wrap_phase(phases[..., None] - ph_samples) / bp) ** 2
        exponent = -0.5 * (self.amplitude_weight * amp_term + self.phase_weight * ph_term)

        # log-sum-exp over the training-sample axis, numerically stable.
        peak = exponent.max(axis=-1, keepdims=True)
        summed = np.log(np.exp(exponent - peak).sum(axis=-1)) + peak[..., 0]
        return summed - self.log_normaliser[rows].reshape(shape_bandwidth[:-1])

    def density(self, amplitudes: np.ndarray, phases: np.ndarray) -> np.ndarray:
        """Estimated density (linear scale) at the query points."""
        return np.exp(self.log_density(amplitudes, phases))
