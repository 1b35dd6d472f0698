"""Per-subcarrier interference model trained from the preamble segments.

For every data subcarrier, the deviations between the equalised preamble
observations (all ``P`` segments of all ``Np`` training symbols) and the known
transmitted training values are collected, and a bivariate Gaussian product
KDE over their (amplitude, phase) is fitted (paper section 4.1).  Because the
deviations are measured *relative to the transmitted lattice point*, the model
transfers from the robustly-modulated preamble to data symbols of any
modulation order.

Two model scopes are supported (``CPRecycleConfig.model_scope``):

* ``"pooled"`` — one density per subcarrier built from all ``P * Np`` samples,
  the literal construction of the paper's Eq. 4.
* ``"per-segment"`` (default) — one density per (subcarrier, segment) built
  from that segment's ``Np`` samples, the variable-bandwidth refinement the
  paper alludes to with its citation of variable kernel density estimation.
  It was built on the premise that a segment clean in the preamble stays
  clean in the data symbols.  The simulator does not behave that way: the
  interferer's symbol boundary lies inside every FFT window, so which
  segment leaks least depends on the interferer's data on either side of
  it, which is new every symbol.  Over 8 x 400-byte 16QAM-1/2 packets at
  -19 dB ACI with P = 16, the genie per-segment interference power of each
  data symbol and sender subcarrier ranks against the preamble's mean with
  a mean Spearman rho of -0.002 to +0.036 (seeds 1, 3, 7 and 11), and the
  preamble's best segment is the data symbol's best 4.6-7.2% of the time,
  against 1/16 by chance.  ``tests/test_receivers_integration.py`` pins
  this at seed 1.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

from repro.core.config import CPRecycleConfig
from repro.core.kde import GaussianProductKde
from repro.receiver.frontend import FrontEndOutput

__all__ = ["BOUND_SEGMENTS", "InterferenceModel"]

_TWO_PI = 2.0 * np.pi

#: Segments whose amplitude terms :meth:`InterferenceModel.candidate_log_likelihood_bound`
#: evaluates per subcarrier: the ``min(8, P)`` with the narrowest amplitude
#: kernel.  Over 357 ``decode_frame`` inputs captured from the four benchmark
#: workloads at seed 1 (P = 1 to 64; 2-vCPU Xeon, numpy 2.4), the decoder's
#: full-kernel evaluations were 19-23% / 16-18% / 14-16% / 13-14% / 12-13%
#: of scoring every in-sphere candidate at 4 / 6 / 8 / 12 / all segments
#: (network-sim's QPSK frames stay at 25%, one candidate in four, at any
#: count), and all segments doubled the decode time.  The first 8 segments
#: by index gave 30-48%.
BOUND_SEGMENTS = 8

#: Relative slack of that bound: it covers the bound's and the kernel's
#: different summation orders, at least 10**6 times their rounding error for
#: up to 64 segments (pairwise depth 12, about 26 unit roundoffs in all).
_BOUND_SLACK = 1e-8


class InterferenceModel:
    """Bank of per-data-subcarrier deviation densities.

    Parameters
    ----------
    deviations:
        Complex deviations observed on the training symbols, shape
        ``(n_data_subcarriers, n_segments, n_preamble_symbols)``.
    config:
        CPRecycle configuration supplying the model scope, kernel bandwidths
        and weights.
    """

    def __init__(self, deviations: np.ndarray, config: CPRecycleConfig | None = None):
        deviations = np.asarray(deviations, dtype=complex)
        if deviations.ndim == 2:
            # Backwards-compatible input (subcarriers, samples): treat the
            # sample axis as pooled segments with a single training symbol.
            deviations = deviations[:, :, None]
        if deviations.ndim != 3:
            raise ValueError(
                "deviations must have shape (n_subcarriers, n_segments, n_preambles)"
            )
        if deviations.shape[1] < 1 or deviations.shape[2] < 1:
            raise ValueError("the interference model needs at least one deviation sample")
        self.config = config if config is not None else CPRecycleConfig()
        self.deviations = deviations
        self.kde = self._build_kde()
        self._work = np.empty((5, 0))  # kernel work buffers, grown on demand

    # ------------------------------------------------------------------ #
    def _build_kde(self) -> GaussianProductKde:
        n_data, n_segments, n_preambles = self.deviations.shape
        if self.config.model_scope == "pooled":
            samples = self.deviations.reshape(n_data, n_segments * n_preambles)
        else:  # per-segment
            samples = self.deviations.reshape(n_data * n_segments, n_preambles)
        return GaussianProductKde(
            amplitudes=np.abs(samples),
            phases=np.angle(samples),
            bandwidth_amplitude=self.config.bandwidth_amplitude,
            bandwidth_phase=self.config.bandwidth_phase,
            amplitude_weight=self.config.amplitude_weight,
            phase_weight=self.config.phase_weight,
            min_bandwidth_amplitude=self.config.min_bandwidth_amplitude,
            min_bandwidth_phase=self.config.min_bandwidth_phase,
            max_chunk_elements=self.config.kde_chunk_elements,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def deviations_from_front_end(front: FrontEndOutput) -> np.ndarray:
        """Training deviations of a front end, shape ``(n_data, P, Np)``.

        The deviation samples for data subcarrier ``f`` are
        ``X_hat_j,s[f] - X_s[f]`` for every segment ``j`` and training symbol
        ``s`` (paper's ``R_A`` and ``R_phi``), where ``X_s`` are the known
        training values.  Exposed separately from :meth:`from_front_end` so
        that batched link simulations can pool the deviations of many packets
        into one model bank before fitting any kernel density.
        """
        data_bins = front.allocation.data_bin_array()
        known = front.spec.preamble_frequency[:, data_bins]  # (Np, n_data)
        deviations = front.preamble - known[None, :, :]      # (P, Np, n_data)
        # Reorder to (n_data, P, Np).
        return np.transpose(deviations, (2, 0, 1))

    @classmethod
    def from_front_end(
        cls, front: FrontEndOutput, config: CPRecycleConfig | None = None
    ) -> "InterferenceModel":
        """Train the model from a front end's equalised preamble segments."""
        return cls(cls.deviations_from_front_end(front), config)

    # ------------------------------------------------------------------ #
    @property
    def n_subcarriers(self) -> int:
        """Number of data subcarriers modelled."""
        return self.deviations.shape[0]

    @property
    def n_segments(self) -> int:
        """Number of FFT segments the model was trained from."""
        return self.deviations.shape[1]

    @property
    def n_preambles(self) -> int:
        """Number of training symbols per segment."""
        return self.deviations.shape[2]

    @property
    def n_samples(self) -> int:
        """Total deviation samples per subcarrier (``P * Np``)."""
        return self.n_segments * self.n_preambles

    @functools.cached_property
    def _kernel_banks(self) -> tuple[np.ndarray, np.ndarray]:
        """The densities' constants as :func:`_segment_summed_log_density` reads them.

        One ``(2 + 2 * n_samples, segment, subcarrier)`` stack, so that a
        block gathers its subcarriers in one indexing pass: the amplitude
        and turn scales, then the scaled amplitude samples, then the turn
        samples.  A pooled model has one segment row that broadcasts over
        all segments.  Also the segment-summed log-normaliser
        ``(subcarrier,)``.  Built once per model.
        """
        kde, n_data = self.kde, self.n_subcarriers

        def bank(values: np.ndarray) -> np.ndarray:
            # Per-series values in (subcarrier, segment) order, transposed to
            # (..., segment, subcarrier).
            return np.ascontiguousarray(values.reshape(n_data, -1, *values.shape[1:]).T)

        # The kernel term w/2 * (x/b)^2 is (c*x)^2 with c = sqrt(w/2)/b.
        amp_scale = bank(np.sqrt(0.5 * kde.amplitude_weight) / kde.bandwidth_amplitude)
        turn_scale = bank(_TWO_PI * np.sqrt(0.5 * kde.phase_weight) / kde.bandwidth_phase)
        stack = np.concatenate(
            [
                amp_scale[None],
                turn_scale[None],
                bank(kde.amplitude_samples) * amp_scale,
                bank(kde.phase_samples) / _TWO_PI,
            ]
        )
        log_norm = bank(kde.log_normaliser)
        log_norm = log_norm.sum(axis=0) * (self.n_segments // log_norm.shape[0])
        return stack, log_norm

    def log_likelihood(self, deviations: np.ndarray) -> np.ndarray:
        """Joint log-likelihood of candidate deviations across segments.

        ``deviations`` is a complex array of shape ``(n_data, ..., k, P)``
        holding, for every data subcarrier and candidate lattice point, the
        deviation of each segment's observation from that candidate.  Any
        number of batch axes (OFDM symbols, packets) may sit between the
        subcarrier and candidate axes; the classic single-symbol query is the
        three-dimensional ``(n_data, k, P)`` case.  The result drops the
        segment axis — ``(n_data, ..., k)``: the sum over segments of the
        per-segment log densities (the log of the product in Eq. 5).

        This is the reference evaluation (through
        :meth:`GaussianProductKde.log_density`); the decoder's hot loop is
        :meth:`candidate_log_likelihood`.
        """
        deviations = np.asarray(deviations, dtype=complex)
        if deviations.ndim < 3:
            raise ValueError("deviations must have shape (n_data, ..., k, P)")
        n_data, n_segments = deviations.shape[0], deviations.shape[-1]
        if n_data != self.n_subcarriers:
            raise ValueError(
                f"expected a leading axis of {self.n_subcarriers} subcarriers, got {n_data}"
            )
        if n_segments != self.n_segments:
            raise ValueError(
                f"expected {self.n_segments} segments, got {n_segments}"
            )
        if self.config.model_scope == "pooled":
            log_density = self.kde.log_density(np.abs(deviations), np.angle(deviations))
            return log_density.sum(axis=-1)
        # per-segment: series axis is (subcarrier, segment); arrange the
        # segment axis next to the subcarriers and flatten the two into the
        # series axis.
        rearranged = np.moveaxis(deviations, -1, 1)
        flattened = rearranged.reshape(n_data * n_segments, *rearranged.shape[2:])
        log_density = self.kde.log_density(np.abs(flattened), np.angle(flattened))
        return log_density.reshape(n_data, n_segments, *rearranged.shape[2:]).sum(axis=1)

    def candidate_log_likelihood(
        self,
        observations: np.ndarray,
        points: np.ndarray,
        subcarriers: np.ndarray | None = None,
    ) -> np.ndarray:
        """Joint log-likelihood of candidate lattice points, the decoder's hot loop.

        Given per-segment observations ``(n, P, n_symbols)`` and candidate
        points ``(n, n_symbols, k)``, returns the segment-summed
        log-likelihood ``(n, n_symbols, k)`` of every candidate:
        :meth:`log_likelihood` of the deviation tensor, to rounding.  Row
        ``i`` is scored against the densities of subcarrier
        ``subcarriers[i]``; without ``subcarriers``, ``n`` must be the
        model's subcarrier count and row ``i`` is subcarrier ``i``.  Either
        way the call makes ``n * P * n_symbols * k`` kernel evaluations
        (each against every training sample of its density), which is what
        the argument shapes count.  :meth:`candidate_log_likelihood_bound`
        bounds these scores from above at a fraction of the cost.

        The work runs in blocks laid out ``(symbols, candidates, segments,
        rows)``, rows innermost, so every pass is one long unit-stride loop;
        each block gathers its rows' densities with one ``np.take``.  A
        block holds at most the KDE's ``max_chunk_elements`` kernel
        evaluations (block size times samples per density) but never splits
        the segment or candidate axes, and every score is elementwise
        arithmetic on its own row, so a score is bitwise independent of the
        budget, of the other rows and candidates in the call and of where
        its row sits.  Phases are measured in turns and wrapped with
        ``d - rint(d)``, and the log-normaliser is subtracted once after the
        segment sum.
        """
        observations, points = self._check_candidates(observations, points, subcarriers)
        banks, log_norm = self._kernel_banks
        if subcarriers is not None:
            log_norm = log_norm[subcarriers]
        n_rows, n_segments, n_symbols = observations.shape
        n_samples = self.kde.n_samples
        obs = observations.T  # (n_symbols, P, n), read in place block by block
        pts_re, pts_im = _block_points(points)
        out = np.empty((n_symbols, points.shape[-1], n_rows))
        for cols, rows, block in self._blocks(n_rows, n_symbols, (points.shape[-1], n_segments)):
            if rows.start == 0:  # a new run of rows: gather its densities once
                slab = (
                    banks[..., cols]
                    if subcarriers is None
                    else np.take(banks, subcarriers[cols], axis=2)
                )
            np.subtract(obs.real[rows, None, :, cols], pts_re[rows, ..., cols], out=block[0])
            np.subtract(obs.imag[rows, None, :, cols], pts_im[rows, ..., cols], out=block[1])
            out[rows, :, cols] = _segment_summed_log_density(
                block, slab[0], slab[1], slab[2 : 2 + n_samples], slab[2 + n_samples :]
            )
        out -= log_norm
        return out.transpose(2, 0, 1)

    def candidate_log_likelihood_bound(
        self, observations: np.ndarray, points: np.ndarray
    ) -> np.ndarray:
        """An upper bound on :meth:`candidate_log_likelihood` from amplitude terms alone.

        Takes the same ``(n, P, n_symbols)`` observations and ``(n,
        n_symbols, k)`` points, row ``i`` being subcarrier ``i``, and returns
        ``(n, n_symbols, k)`` values, none below the score
        :meth:`candidate_log_likelihood` gives the same candidate (the
        argument is in :meth:`FixedSphereMlDecoder.decode_frame
        <repro.core.ml_decoder.FixedSphereMlDecoder.decode_frame>`).
        Segment ``j`` of subcarrier ``f`` contributes ``log n - min_i
        a_ij`` if it is one of the subcarrier's :data:`BOUND_SEGMENTS`
        segments with the narrowest amplitude kernel (first by index among
        equals; all segments of a pooled model are equal) and ``log n``
        otherwise.  The amplitude terms ``a_ij`` are computed from the
        kernel's own banks by the kernel's own operations, so they are
        bitwise the kernel's.  The sum is raised by a relative ``1e-8`` for
        rounding, and the log-normaliser is subtracted as the kernel
        subtracts it.  Blocks are laid out ``(symbols, candidates, bound
        segments, rows)`` within the KDE's ``max_chunk_elements``, like the
        kernel's.  Bounding every slot of a frame takes about a fifth of the
        time the kernel takes to score its in-sphere candidates (17-20% on
        the paper-link and quick-suite benchmark frames).
        """
        observations, points = self._check_candidates(observations, points)
        n_rows, n_segments, n_symbols = observations.shape
        k = points.shape[-1]
        # The bound segments (q, n) and their amplitude banks (1 + n_samples,
        # q, n): the scale, then the scaled samples.
        banks, log_norm = self._kernel_banks
        amplitude = banks[[0, *range(2, 2 + self.kde.n_samples)]]
        q = min(BOUND_SEGMENTS, n_segments)
        if amplitude.shape[1] == 1:  # pooled
            segments = np.broadcast_to(np.arange(q)[:, None], (q, n_rows))
            amplitude = np.repeat(amplitude, q, axis=1)
        else:
            segments = np.argsort(-amplitude[0], axis=0, kind="stable")[:q].copy()
            amplitude = np.take_along_axis(amplitude, segments[None], axis=1)
        out = np.empty((n_symbols, n_rows, k))  # returned as (n, n_symbols, k)
        for cols, rows, block in self._blocks(n_rows, n_symbols, (k, q)):
            # The block's bound-segment observations (symbols, 1, q, rows) and
            # its points (symbols, k, 1, rows).
            run = observations[cols, :, rows]
            obs = run[np.arange(len(run))[:, None], segments.T[cols]].T[:, None]
            pts_re, pts_im = _block_points(points[cols, rows])
            re, im, amp, term, low = block
            np.subtract(obs.real, pts_re, out=re)
            np.subtract(obs.imag, pts_im, out=im)
            np.square(re, out=amp)
            amp += np.square(im, out=im)
            np.sqrt(amp, out=amp)
            amp *= amplitude[0, :, cols]
            for i, samples in enumerate(amplitude[1:, :, cols]):
                square = np.subtract(amp, samples, out=term if i else low)
                square *= square
                if i:
                    np.minimum(low, square, out=low)
            np.sum(low, axis=2, out=out[rows, cols].transpose(0, 2, 1))
        # log n + 1e-12 caps a segment's log-sum-exp term, P of them the sum.
        ceiling = n_segments * (math.log(self.kde.n_samples) + 1e-12)
        out *= -(1.0 - _BOUND_SLACK)
        out += ceiling * (1.0 + _BOUND_SLACK)
        out -= log_norm[:, None]
        return out.transpose(1, 0, 2)

    def _check_candidates(
        self, observations: np.ndarray, points: np.ndarray, subcarriers: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validated complex ``(n, P, n_symbols)`` observations and ``(n, n_symbols, k)`` points."""
        observations = np.asarray(observations, dtype=complex)
        points = np.asarray(points, dtype=complex)
        if observations.ndim != 3 or points.ndim != 3:
            raise ValueError(
                "observations must have shape (n, P, n_symbols) and points (n, n_symbols, k)"
            )
        n_rows, n_segments, n_symbols = observations.shape
        if points.shape[:2] != (n_rows, n_symbols):
            raise ValueError(
                f"points shape {points.shape} does not match observations "
                f"({n_rows}, P, {n_symbols})"
            )
        n_data = self.n_subcarriers
        if subcarriers is None:
            if n_rows != n_data:
                raise ValueError(f"expected {n_data} subcarriers, got {n_rows}")
        else:
            subcarriers = np.asarray(subcarriers)
            if subcarriers.shape != (n_rows,) or subcarriers.dtype.kind not in "iu":
                raise ValueError(f"subcarriers must be {n_rows} integer indices")
            if n_rows and not 0 <= subcarriers.min() <= subcarriers.max() < n_data:
                raise ValueError(f"subcarriers must lie in [0, {n_data})")
        if n_segments != self.n_segments:
            raise ValueError(f"expected {self.n_segments} segments, got {n_segments}")
        return observations, points

    def _blocks(
        self, n_rows: int, n_symbols: int, inner: tuple[int, int]
    ) -> Iterator[tuple[slice, slice, list[np.ndarray]]]:
        """The ``(symbols, *inner, rows)`` blocks of a call, symbols innermost.

        Yields the row slice, the symbol slice and five block-shaped work
        buffers.  A block holds at most the KDE's ``max_chunk_elements``
        kernel evaluations (block size times samples per density) and never
        splits the ``inner`` axes; rows and symbols are split into parts as
        equal as the budget allows.  The buffers are shared by every block of
        every call on this model: fresh ones would page-fault again each
        time the allocator trims the heap, and the decoder makes several
        calls per frame.
        """
        per_column = max(1, math.prod(inner) * self.kde.n_samples)  # per (symbol, row)
        budget = self.kde.max_chunk_elements
        n_sub = _even_split(n_rows, budget // per_column)
        n_sym = _even_split(n_symbols, budget // (per_column * n_sub))
        block_size = n_sym * math.prod(inner) * n_sub
        if self._work.shape[1] < block_size:
            self._work = np.empty((5, 0))  # release the old buffers before growing
            self._work = np.empty((5, block_size))
        for f0 in range(0, n_rows, n_sub):
            for s0 in range(0, n_symbols, n_sym):
                shape = (min(n_sym, n_symbols - s0), *inner, min(n_sub, n_rows - f0))
                block = [buffer[: math.prod(shape)].reshape(shape) for buffer in self._work]
                yield slice(f0, f0 + n_sub), slice(s0, s0 + n_sym), block


def _even_split(n: int, most: int) -> int:
    """The size of the fewest equal parts, of at most ``most`` each, that cover ``n``."""
    parts = -(-n // max(1, most))
    return max(1, -(-n // max(1, parts)))


def _block_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of ``(n, n_symbols, k)`` points as ``(n_symbols, k, 1, n)``."""
    return (
        np.ascontiguousarray(points.real.transpose(1, 2, 0))[:, :, None],
        np.ascontiguousarray(points.imag.transpose(1, 2, 0))[:, :, None],
    )


def _segment_summed_log_density(
    block: list[np.ndarray],
    amp_scale: np.ndarray,
    turn_scale: np.ndarray,
    amp_samples: np.ndarray,
    turn_samples: np.ndarray,
) -> np.ndarray:
    """Kernel sum of one ``(symbols, candidates, segments, subcarriers)`` block.

    ``block`` holds five contiguous buffers of the block's shape: the first
    two carry the deviations' real and imaginary parts in, and all five are
    overwritten.  The banks are ``(segment, subcarrier)`` scales and
    ``(sample, segment, subcarrier)`` pre-scaled samples.  Returns the
    segment sum of the per-segment kernel log-sums, ``(symbols, candidates,
    subcarriers)``: the log-likelihood before its log-normaliser is
    subtracted.  The result is a view into ``block``.
    """
    re, im, amp, first, low = block
    np.square(re, out=amp)
    turns = np.arctan2(im, re, out=re)
    turns *= 1.0 / _TWO_PI
    amp += np.square(im, out=im)
    np.sqrt(amp, out=amp)
    amp *= amp_scale
    last = len(amp_samples) - 1
    quadratics = []
    for j in range(last + 1):
        # The last sample scores in place in the query buffers; sample 0
        # scores into `first`, with `low` free until the log-sum-exp.
        term = np.subtract(
            amp, amp_samples[j], out=amp if j == last else first if j == 0 else None
        )
        term *= term
        delta = np.subtract(
            turns, turn_samples[j], out=turns if j == last else low if j == 0 else None
        )
        delta -= np.rint(delta, out=im)
        delta *= turn_scale
        delta *= delta
        term += delta
        quadratics.append(term)
    # Log-sum-exp of the negated quadratics over the samples.
    if last == 0:
        np.copyto(low, quadratics[0])
    else:
        np.minimum(quadratics[0], quadratics[1], out=low)
    if last == 1:
        # Two samples: -min + log1p(exp(min - max)).
        total = np.maximum(quadratics[0], quadratics[1], out=quadratics[1])
        np.subtract(low, total, out=total)
        np.exp(total, out=total)
        np.log1p(total, out=total)
    else:
        for term in quadratics[2:]:
            np.minimum(low, term, out=low)
        for term in quadratics:
            np.subtract(low, term, out=term)
            np.exp(term, out=term)
        total = quadratics[0]
        for term in quadratics[1:]:
            total += term
        np.log(total, out=total)
    total -= low
    # Pairwise segment sum in an order fixed by the segment count alone.  The
    # levels alternate between the two free buffers: an in-place add between
    # interleaved views of one buffer would make numpy copy its input first.
    spare = [re.reshape(-1), im.reshape(-1)]
    while total.shape[2] > 1:
        half = total.shape[2] // 2
        shape = (*total.shape[:2], half, total.shape[3])
        summed = spare[0][: math.prod(shape)].reshape(shape)
        np.add(total[:, :, :half], total[:, :, half : 2 * half], out=summed)
        if total.shape[2] % 2:
            summed[:, :, 0] += total[:, :, -1]
        total = summed
        spare.reverse()
    return total[:, :, 0]
