"""Additive white Gaussian noise generation and SNR calibration."""

from __future__ import annotations

import numpy as np

from repro.utils.dsp import db_to_linear, signal_power
from repro.utils.rng import ensure_rng

__all__ = ["complex_awgn", "standard_complex_noise", "awgn_for_snr", "add_awgn"]


def standard_complex_noise(
    n_samples: int, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Complex noise whose real and imaginary parts are standard normal.

    Its mean power is 2; :func:`complex_awgn` scales it by
    ``sqrt(power / 2)``, and so does a scenario composing a drawn packet
    at its SNR (:meth:`repro.channel.scenario.Scenario.compose`).
    """
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    rng = ensure_rng(rng)
    return rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)


def complex_awgn(
    n_samples: int, power: float, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise with the given mean power."""
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    if power < 0:
        raise ValueError("power must be non-negative")
    return np.sqrt(power / 2.0) * standard_complex_noise(n_samples, rng)


def awgn_for_snr(
    reference: np.ndarray, snr_db: float, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Noise vector sized and scaled so that ``power(reference)/power(noise) = snr_db``."""
    reference = np.asarray(reference)
    noise_power = signal_power(reference) / db_to_linear(snr_db)
    return complex_awgn(reference.size, noise_power, rng)


def add_awgn(
    signal: np.ndarray, snr_db: float, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Return ``signal`` plus AWGN at the requested SNR."""
    return np.asarray(signal) + awgn_for_snr(signal, snr_db, rng)
