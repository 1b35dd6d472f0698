"""IEEE 802.11 convolutional encoder and puncturing.

The 802.11 OFDM PHY uses the industry-standard rate-1/2, constraint-length-7
convolutional code with generator polynomials g0 = 133 (octal) and
g1 = 171 (octal).  Higher code rates (2/3 and 3/4) are obtained by puncturing
the rate-1/2 output.  The matching decoder lives in :mod:`repro.phy.viterbi`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CONSTRAINT_LENGTH",
    "GENERATORS_OCTAL",
    "generator_taps",
    "conv_encode",
    "puncture",
    "depuncture",
    "PUNCTURE_PATTERNS",
    "coded_length",
    "puncture_mask",
    "CODE_RATES",
]

CONSTRAINT_LENGTH = 7
GENERATORS_OCTAL = (0o133, 0o171)

#: Puncturing patterns (per pair of rate-1/2 output bits, A then B) from
#: IEEE 802.11-2012 section 18.3.5.6.  ``1`` means the bit is transmitted.
PUNCTURE_PATTERNS: dict[str, np.ndarray] = {
    "1/2": np.array([1, 1], dtype=np.uint8),
    "2/3": np.array([1, 1, 1, 0], dtype=np.uint8),
    "3/4": np.array([1, 1, 1, 0, 0, 1], dtype=np.uint8),
}

CODE_RATES = tuple(PUNCTURE_PATTERNS)


def generator_taps(generator_octal: int, constraint_length: int = CONSTRAINT_LENGTH) -> np.ndarray:
    """Expand an octal generator into a tap vector (current bit first)."""
    taps = [(generator_octal >> shift) & 1 for shift in range(constraint_length - 1, -1, -1)]
    return np.array(taps, dtype=np.uint8)


_TAPS_A = generator_taps(GENERATORS_OCTAL[0])
_TAPS_B = generator_taps(GENERATORS_OCTAL[1])


def conv_encode(bits: np.ndarray, terminate: bool = False) -> np.ndarray:
    """Rate-1/2 convolutional encoding of a bit vector.

    The encoder starts from the all-zero state.  With ``terminate=True`` six
    zero tail bits are appended first so the trellis ends in the zero state
    (802.11 appends the tail bits before calling the encoder, so the default
    here is ``False``).

    The output interleaves the two generator streams: A0, B0, A1, B1, ...
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if terminate:
        bits = np.concatenate([bits, np.zeros(CONSTRAINT_LENGTH - 1, dtype=np.uint8)])
    if bits.size == 0:
        return np.empty(0, dtype=np.uint8)
    # Convolution over GF(2): output_t = XOR of taps applied to bits t..t-6.
    out_a = np.convolve(bits, _TAPS_A)[: bits.size] % 2
    out_b = np.convolve(bits, _TAPS_B)[: bits.size] % 2
    coded = np.empty(2 * bits.size, dtype=np.uint8)
    coded[0::2] = out_a
    coded[1::2] = out_b
    return coded


def puncture_mask(rate: str, length: int) -> np.ndarray:
    """Which of ``length`` rate-1/2 coded bits ``rate`` transmits, as booleans.

    The puncturing pattern repeated to ``length``: what ``np.resize`` gives,
    built by ``np.tile``, which does not concatenate one copy per period.
    """
    pattern = _pattern(rate)
    return np.tile(pattern.astype(bool), -(-length // pattern.size))[:length]


def puncture(coded_bits: np.ndarray, rate: str) -> np.ndarray:
    """Remove bits from a rate-1/2 coded stream to reach a higher rate."""
    coded_bits = np.asarray(coded_bits, dtype=np.uint8)
    return coded_bits[puncture_mask(rate, coded_bits.size)]


def depuncture(punctured_bits: np.ndarray, rate: str, original_length: int) -> tuple[np.ndarray, np.ndarray]:
    """Re-insert erasures for punctured positions.

    Returns ``(bits, known_mask)`` where ``bits`` has length
    ``original_length`` with zeros in the punctured positions and
    ``known_mask`` marks which positions carry real information.  The Viterbi
    decoder ignores branch metrics at unknown positions.
    """
    mask = puncture_mask(rate, original_length)
    expected = int(mask.sum())
    punctured_bits = np.asarray(punctured_bits, dtype=np.uint8)
    if punctured_bits.size != expected:
        raise ValueError(
            f"expected {expected} punctured bits for length {original_length} at rate {rate}, "
            f"got {punctured_bits.size}"
        )
    full = np.zeros(original_length, dtype=np.uint8)
    full[mask] = punctured_bits
    return full, mask


def coded_length(n_data_bits: int, rate: str) -> int:
    """Number of transmitted coded bits for ``n_data_bits`` input bits."""
    return int(puncture_mask(rate, 2 * n_data_bits).sum())


def _pattern(rate: str) -> np.ndarray:
    if rate not in PUNCTURE_PATTERNS:
        raise ValueError(f"unsupported code rate {rate!r}; valid: {sorted(PUNCTURE_PATTERNS)}")
    return PUNCTURE_PATTERNS[rate]
