"""CRC-32 frame check sequence (FCS) as used by IEEE 802.11 / Ethernet.

The standard CRC-32 (polynomial ``0x04C11DB7``, reflected, initial value and
final XOR ``0xFFFFFFFF``), computed by :func:`zlib.crc32`.  The PSDU carried
in every simulated frame ends with this FCS; packet success in the
experiments means the FCS verifies after decoding.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["crc32", "append_crc32", "check_crc32", "CRC32_LENGTH_BYTES"]

CRC32_LENGTH_BYTES = 4


def crc32(data: bytes | bytearray | np.ndarray) -> int:
    """Compute the CRC-32 of ``data`` (same value as ``binascii.crc32``)."""
    return zlib.crc32(bytes(data))


def append_crc32(data: bytes) -> bytes:
    """Return ``data`` with its 4-byte little-endian FCS appended."""
    return bytes(data) + crc32(data).to_bytes(CRC32_LENGTH_BYTES, "little")


def check_crc32(frame: bytes) -> bool:
    """Verify a frame produced by :func:`append_crc32`."""
    if len(frame) < CRC32_LENGTH_BYTES:
        return False
    payload, fcs = frame[:-CRC32_LENGTH_BYTES], frame[-CRC32_LENGTH_BYTES:]
    return crc32(payload).to_bytes(CRC32_LENGTH_BYTES, "little") == fcs
