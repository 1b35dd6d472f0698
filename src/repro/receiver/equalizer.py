"""Frequency-domain zero-forcing equalisation."""

from __future__ import annotations

import numpy as np

__all__ = ["equalize"]


def equalize(spectra: np.ndarray, channel_estimate: np.ndarray) -> np.ndarray:
    """Zero-forcing equalisation: divide each symbol spectrum by the channel.

    ``spectra`` may have any leading shape as long as its last axis is the FFT
    size; the channel estimate is broadcast across the leading axes.
    """
    spectra = np.asarray(spectra)
    channel_estimate = np.asarray(channel_estimate)
    if spectra.shape[-1] != channel_estimate.shape[-1]:
        raise ValueError(
            f"channel estimate length {channel_estimate.shape[-1]} does not match the "
            f"FFT size {spectra.shape[-1]}"
        )
    return spectra / channel_estimate
