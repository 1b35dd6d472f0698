"""Utility layer: DSP helpers, bit manipulation, RNG management, validation."""

from repro.utils.bits import bits_to_bytes, bytes_to_bits, random_bits, random_bytes
from repro.utils.dsp import db_to_linear, linear_to_db, signal_power
from repro.utils.rng import child_rng, ensure_rng, spawn_rngs

__all__ = [
    "bits_to_bytes",
    "bytes_to_bits",
    "child_rng",
    "db_to_linear",
    "ensure_rng",
    "linear_to_db",
    "random_bits",
    "random_bytes",
    "signal_power",
    "spawn_rngs",
]
