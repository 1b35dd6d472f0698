"""Channel estimation from the known training symbols.

Two estimators are provided:

* :func:`estimate_channel_ls` — the textbook least-squares estimate from the
  training symbols at a single FFT window (what a standard receiver does).
* :func:`estimate_channel_best_segment` — a cyclic-prefix-recycling variant
  used by the multi-segment receivers: the channel is estimated per segment
  and, for every subcarrier, the segment whose estimates agree best across
  the training symbols is kept.  Agreement across training symbols is a
  signal-independent proxy for "little interference hit this segment", so the
  estimator stays usable at strongly negative SIR where the single-window
  estimate is destroyed by interference leaking into the preamble.
"""

from __future__ import annotations

import numpy as np

__all__ = ["estimate_channel_ls", "estimate_channel_best_segment"]


def estimate_channel_ls(received_preamble: np.ndarray, known_preamble: np.ndarray) -> np.ndarray:
    """Least-squares channel estimate averaged over the training symbols.

    Parameters
    ----------
    received_preamble:
        Frequency-domain training symbols as seen by the receiver at the
        reference segment, shape ``(..., n_preamble_symbols, n_bins)``
        (leading axes are packets): the occupied bins only, so the estimate
        never divides by an empty bin.
    known_preamble:
        The transmitted training values on the same bins,
        ``(n_preamble_symbols, n_bins)``.

    Returns
    -------
    numpy.ndarray
        Complex channel estimate, ``(..., n_bins)``.
    """
    received_preamble = np.atleast_2d(received_preamble)
    known_preamble = np.atleast_2d(known_preamble)
    if received_preamble.shape[-2:] != known_preamble.shape:
        raise ValueError(
            f"received and known preambles must have the same shape, got "
            f"{received_preamble.shape} vs {known_preamble.shape}"
        )
    if np.any(known_preamble == 0):
        raise ValueError("known preamble values on occupied bins must be non-zero")
    estimate = (received_preamble / known_preamble).mean(axis=-2)
    # Guard against a dead subcarrier producing a zero estimate and a
    # divide-by-zero downstream.
    estimate[np.abs(estimate) < 1e-12] = 1e-12
    return estimate


def estimate_channel_best_segment(
    preamble_segments: np.ndarray, known_preamble: np.ndarray
) -> np.ndarray:
    """Per-subcarrier best-segment channel estimate.

    Parameters
    ----------
    preamble_segments:
        Phase-corrected (unequalised) training-symbol spectra for every FFT
        segment on the occupied bins, shape ``(..., P, n_preamble_symbols,
        n_bins)`` (leading axes are packets).
    known_preamble:
        Transmitted training values on the same bins, shape
        ``(n_preamble_symbols, n_bins)``.

    For each subcarrier the per-segment estimates ``H_j = mean_s(Y_js / X_s)``
    are ranked by how much the individual training symbols disagree
    (``var_s(Y_js / X_s)``); the most self-consistent segment wins.  With a
    single training symbol this degenerates to the reference-segment
    least-squares estimate.  Returns ``(..., n_bins)``.
    """
    preamble_segments = np.asarray(preamble_segments, dtype=complex)
    if preamble_segments.ndim < 3:
        raise ValueError("preamble_segments must have shape (..., P, Np, n_bins)")
    known_preamble = np.atleast_2d(known_preamble)
    if known_preamble.shape != preamble_segments.shape[-2:]:
        raise ValueError(
            f"known preamble shape {known_preamble.shape} does not match segments "
            f"{preamble_segments.shape[-2:]}"
        )
    if known_preamble.shape[0] < 2:
        return estimate_channel_ls(preamble_segments[..., -1, :, :], known_preamble)
    if np.any(known_preamble == 0):
        raise ValueError("known preamble values on occupied bins must be non-zero")
    per_symbol = preamble_segments / known_preamble                    # (..., P, Np, n_bins)
    means = per_symbol.mean(axis=-2)                                   # (..., P, n_bins)
    per_symbol -= means[..., None, :]
    spread = np.abs(per_symbol).mean(axis=-2)                          # (..., P, n_bins)
    best = np.argmin(spread, axis=-2)                                  # (..., n_bins)
    estimate = np.take_along_axis(means, best[..., None, :], axis=-2)[..., 0, :]
    estimate[np.abs(estimate) < 1e-12] = 1e-12
    return estimate
