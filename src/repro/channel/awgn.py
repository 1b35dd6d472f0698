"""Additive white Gaussian noise generation."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng

__all__ = ["standard_complex_noise"]


def standard_complex_noise(
    n_samples: int, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Complex noise whose real and imaginary parts are standard normal.

    Its mean power is 2.  A scenario composing a drawn packet at its SNR
    scales it by ``sqrt(noise_power / 2)``
    (:meth:`repro.channel.scenario.Scenario.compose`).
    """
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    rng = ensure_rng(rng)
    return rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)
