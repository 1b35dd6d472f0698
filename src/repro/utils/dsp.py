"""Low-level DSP helpers shared across the library.

The helpers here are deliberately small and free of state: dB/linear
conversions and signal power measurement on numpy arrays of complex
baseband samples.
"""

from __future__ import annotations

import numpy as np

__all__ = ["db_to_linear", "linear_to_db", "signal_power"]


def db_to_linear(value_db: float | np.ndarray) -> float | np.ndarray:
    """Convert a power quantity expressed in dB to a linear power ratio."""
    return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0)


def linear_to_db(value: float | np.ndarray, floor: float = 1e-30) -> float | np.ndarray:
    """Convert a linear power ratio to dB.

    Values below ``floor`` are clamped before taking the logarithm so that
    exact zeros (e.g. an empty subcarrier) map to a very small finite dB value
    instead of ``-inf``.
    """
    value = np.maximum(np.asarray(value, dtype=float), floor)
    return 10.0 * np.log10(value)


def signal_power(samples: np.ndarray) -> float:
    """Mean power (average of |x|^2) of a sample vector.

    Raises :class:`ValueError` for empty input because a mean power of an
    empty signal is undefined and silently returning ``nan`` hides bugs.
    """
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("cannot compute the power of an empty signal")
    return float(np.mean(np.abs(samples) ** 2))
