"""Bit- and byte-level helpers.

All PHY-layer processing in this library works on numpy arrays of bits
(dtype ``uint8``, values 0/1), LSB-first within each byte as specified by
IEEE 802.11 (the PSDU is transmitted least-significant bit of the first
octet first).
"""

from __future__ import annotations

import numpy as np

__all__ = ["bytes_to_bits", "bits_to_bytes", "random_bits", "random_bytes"]


def bytes_to_bits(data: bytes | bytearray | np.ndarray) -> np.ndarray:
    """Expand bytes into a bit array, LSB of each byte first (802.11 order)."""
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.unpackbits(arr, bitorder="little").astype(np.uint8)


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a bit array (LSB-first per byte) back into bytes.

    The bit count must be a multiple of eight; the PHY always pads frames to a
    byte boundary before this is called.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size % 8 != 0:
        raise ValueError(f"bit count {bits.size} is not a multiple of 8")
    return np.packbits(bits, bitorder="little").tobytes()


def random_bits(count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random bit vector of length ``count``."""
    return rng.integers(0, 2, size=count, dtype=np.uint8)


def random_bytes(count: int, rng: np.random.Generator) -> bytes:
    """Uniform random byte string of length ``count``."""
    return rng.integers(0, 256, size=count, dtype=np.uint8).tobytes()
