"""Sliding FFT segments over the cyclic prefix.

The central observation of the paper (Proposition 3.1): as long as the FFT
window starts inside the ISI-free part of the cyclic prefix, the desired
signal component of the FFT output is identical for every window position up
to a deterministic per-subcarrier phase ramp, while the interference
component changes — often by tens of dB.

This module extracts the ``P`` phase-corrected "segments" of each OFDM symbol
that all receivers in this library operate on.  Segment ``P-1`` (the last) is
the standard receiver's window, which starts right after the cyclic prefix.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.phy.subcarriers import OfdmAllocation

__all__ = [
    "segment_offsets",
    "segment_phase_ramp",
    "segment_windows",
    "scale_spectra",
    "extract_segments",
    "reference_segment_index",
]


def segment_offsets(cp_length: int, n_segments: int) -> np.ndarray:
    """FFT window offsets (relative to the symbol start) for ``n_segments`` segments.

    Following the paper's convention (Eq. 1), segment ``j`` (1-based) starts at
    offset ``C - P + j``; the returned array is 0-indexed, so its last entry is
    always ``cp_length`` — the standard receiver's window.
    """
    if isinstance(n_segments, bool) or not isinstance(n_segments, (int, np.integer)):
        raise TypeError(f"n_segments must be an integer, got {type(n_segments).__name__}")
    if not 1 <= n_segments <= cp_length:
        raise ValueError(
            f"n_segments must be between 1 and the cyclic prefix length ({cp_length}), "
            f"got {n_segments}"
        )
    return cp_length - n_segments + 1 + np.arange(n_segments)


def reference_segment_index(n_segments: int) -> int:
    """Index (into the segment axis) of the standard receiver's window."""
    return n_segments - 1


def segment_phase_ramp(allocation: OfdmAllocation, offset: int) -> np.ndarray:
    """Phase correction for an FFT window starting ``offset`` samples into the symbol.

    Starting ``d = cp_length - offset`` samples before the standard position
    circularly delays the desired signal by ``d`` samples, which multiplies
    subcarrier ``f`` by ``exp(-i 2 pi f d / F)`` (paper Eq. 2).  The returned
    vector is the inverse rotation; multiplying the raw FFT output by it makes
    the desired-signal component identical across segments.
    """
    d = allocation.cp_length - int(offset)
    bins = np.arange(allocation.fft_size)
    return np.exp(2j * np.pi * bins * d / allocation.fft_size)


@functools.lru_cache(maxsize=32)
def phase_ramps(fft_size: int, delays: tuple[int, ...], bins: tuple[int, ...]) -> np.ndarray:
    """``exp(2i pi f d / F)`` for every delay ``d`` and bin ``f``: shape ``(delays, bins)``.

    Every packet of a link simulation shares its geometry, so the ramps are
    cached; the cached array is read-only.  The per-element operation order
    is that of :func:`segment_phase_ramp`.
    """
    ramps = np.exp((2j * np.pi * np.array(bins))[None, :] * np.array(delays)[:, None] / fft_size)
    ramps.flags.writeable = False
    return ramps


def segment_windows(
    buffers: np.ndarray, allocation: OfdmAllocation, n_symbols: int, n_segments: int
) -> np.ndarray:
    """FFT windows of ``(B, n)`` sample buffers as one read-only strided view.

    Buffer ``b``'s first window starts at its index 0, and window ``(j, s)``
    starts ``j + s * symbol_length`` samples later, so the view has shape
    ``(B, n_segments, n_symbols, fft_size)`` and nothing is gathered or
    copied before the FFT.  The caller checks that each buffer holds
    ``(n_symbols - 1) * symbol_length + n_segments - 1 + fft_size``
    samples.
    """
    step = buffers.strides[-1]
    return np.lib.stride_tricks.as_strided(
        buffers,
        shape=(buffers.shape[0], n_segments, n_symbols, allocation.fft_size),
        strides=(buffers.strides[0], step, allocation.symbol_length * step, step),
        writeable=False,
    )


def scale_spectra(spectra: np.ndarray, fft_size: int) -> None:
    """Scale raw FFT output by ``1 / sqrt(fft_size)`` in place (a unitary DFT).

    Multiplies the float64 view by the reciprocal.  numpy's complex division
    multiplies by the reciprocal of the divisor as well, so this gives the
    bits of ``spectra /= np.sqrt(fft_size)`` for every finite nonzero
    component; only the sign of an exactly-zero component can differ.
    ``spectra`` must be ``complex128`` with a contiguous last axis.
    """
    floats = spectra.view(np.float64)
    floats *= 1.0 / np.sqrt(fft_size)


def extract_segments(
    samples: np.ndarray,
    allocation: OfdmAllocation,
    n_symbols: int,
    start: int,
    offsets: np.ndarray | None = None,
    n_segments: int | None = None,
    correct_phase: bool = True,
    bins: np.ndarray | None = None,
) -> np.ndarray:
    """FFT of every requested segment of every OFDM symbol.

    Parameters
    ----------
    samples:
        One packet's received sample buffer, shape ``(n,)``.
    n_symbols:
        Number of consecutive OFDM symbols to demodulate.
    start:
        Buffer index of the first symbol's cyclic prefix.
    offsets / n_segments:
        Either explicit window offsets (consecutive, as
        :func:`segment_offsets` returns them) or a segment count expanded
        through :func:`segment_offsets`.
    correct_phase:
        Apply the per-segment phase ramp of Proposition 3.1 (default).
    bins:
        FFT bins to keep, in the order given; ``None`` keeps all of them.
        The result equals ``[..., bins]`` of the full output bit for bit,
        but scaling and phase correction touch only the kept bins.

    Returns
    -------
    numpy.ndarray
        Complex array of shape ``(n_segments, n_symbols, n_bins)`` (``n_bins``
        is ``fft_size`` unless ``bins`` is given).
    """
    samples = np.ascontiguousarray(samples)
    if samples.ndim != 1:
        raise ValueError("samples must have shape (n,)")
    if offsets is None:
        if n_segments is None:
            raise ValueError("provide either offsets or n_segments")
        offsets = segment_offsets(allocation.cp_length, n_segments)
    offsets = np.asarray(offsets, dtype=int)
    if offsets.size == 0:
        raise ValueError("at least one segment offset is required")
    if offsets.min() < 0 or offsets.max() > allocation.cp_length:
        raise ValueError(
            f"segment offsets must lie in [0, {allocation.cp_length}], got "
            f"[{offsets.min()}, {offsets.max()}]"
        )
    if not np.array_equal(offsets, offsets[0] + np.arange(offsets.size)):
        raise ValueError(f"segment offsets must be consecutive, got {offsets.tolist()}")

    symbol_length, fft_size = allocation.symbol_length, allocation.fft_size
    first = start + int(offsets[0])
    last_needed = first + (n_symbols - 1) * symbol_length + offsets.size - 1 + fft_size
    if first < 0 or last_needed > samples.size:
        raise ValueError(
            f"sample buffer of length {samples.size} cannot hold {n_symbols} symbols "
            f"starting at {start}"
        )
    # All windows are one strided view of the buffer.  The result stays
    # C-ordered (numpy would follow the view's strides): later reductions
    # sum in memory order, so the memory order of an array is part of what
    # it computes.
    windows = segment_windows(samples[first:][None], allocation, n_symbols, offsets.size)[0]
    spectra = np.fft.fft(windows, axis=-1, out=np.empty(windows.shape, dtype=complex))
    if bins is None:
        bins = np.arange(fft_size)
    else:
        bins = np.asarray(bins, dtype=int)
        spectra = np.take(spectra, bins, axis=-1)
    scale_spectra(spectra, fft_size)
    if correct_phase:
        delays = allocation.cp_length - offsets
        spectra *= phase_ramps(fft_size, tuple(delays.tolist()), tuple(bins.tolist()))[:, None, :]
    return spectra
