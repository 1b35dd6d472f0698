"""Preamble (training symbol) generation.

Every frame starts with ``n_preamble_symbols`` training OFDM symbols whose
frequency-domain content is known to the receiver.  They serve two
purposes, exactly as in the paper:

* channel estimation, and
* training of the CPRecycle per-subcarrier interference model (the paper uses
  the 802.11 long training field, and notes that more preambles improve the
  model; the count is configurable here).

For the standard 802.11g allocation the genuine L-LTF BPSK sequence is used.
Generic wideband allocations use a deterministic pseudo-random BPSK sequence
derived from ``preamble_seed`` — any sequence known to both ends works, and a
seeded sequence keeps experiments reproducible.

One deliberate simplification relative to IEEE 802.11: each training symbol
carries its own cyclic prefix instead of the standard's single double-length
guard interval for the two LTF repetitions.  This does not change what the
algorithms see (each training symbol still offers the full set of ISI-free
FFT segments) and matches the paper's generic configurable baseband.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dot11_ltf_sequence", "preamble_frequency_symbols"]

from repro.phy.subcarriers import OfdmAllocation

# L-LTF values on subcarriers -26..+26 (index 0 below is subcarrier -26).
_LTF_MINUS26_TO_26 = np.array(
    [
        1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1,
        0,
        1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1,
    ],
    dtype=float,
)


def dot11_ltf_sequence(fft_size: int = 64) -> np.ndarray:
    """Frequency-domain L-LTF sequence on a 64-bin grid (FFT bin order)."""
    if fft_size != 64:
        raise ValueError("the 802.11 L-LTF is defined on a 64-bin grid")
    grid = np.zeros(fft_size, dtype=complex)
    for offset, value in zip(range(-26, 27), _LTF_MINUS26_TO_26):
        grid[offset % fft_size] = value
    return grid


def preamble_frequency_symbols(
    allocation: OfdmAllocation,
    n_symbols: int,
    seed: int = 7,
    use_dot11_ltf: bool | None = None,
) -> np.ndarray:
    """Known frequency-domain training symbols for an allocation.

    Returns an array of shape ``(n_symbols, fft_size)``.  For the standard
    64-bin 802.11 allocation the genuine L-LTF sequence is used for every
    training symbol (the default); other allocations use seeded BPSK values on
    the occupied bins.
    """
    if n_symbols < 1:
        raise ValueError("a frame needs at least one preamble symbol")
    if use_dot11_ltf is None:
        use_dot11_ltf = allocation.fft_size == 64 and allocation.name.startswith("802.11")
    if use_dot11_ltf:
        base = dot11_ltf_sequence(allocation.fft_size)
        return np.tile(base, (n_symbols, 1))
    rng = np.random.default_rng(seed)
    occupied = allocation.occupied_bin_array()
    symbols = np.zeros((n_symbols, allocation.fft_size), dtype=complex)
    values = 1.0 - 2.0 * rng.integers(0, 2, size=(n_symbols, occupied.size))
    symbols[:, occupied] = values
    return symbols
