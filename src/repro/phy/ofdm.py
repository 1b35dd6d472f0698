"""Core OFDM modulation primitives.

The transmitter maps frequency-domain symbols onto the common grid with a
*unitary* inverse FFT (scaling by ``sqrt(fft_size)``) and prepends the cyclic
prefix; the receiver applies the matching forward FFT.  Using the unitary
convention keeps signal power identical in both domains, which makes SNR/SIR
calibration in the time domain equivalent to the per-subcarrier view.
"""

from __future__ import annotations

import numpy as np

from repro.phy.subcarriers import OfdmAllocation

__all__ = [
    "ofdm_modulate",
    "ofdm_demodulate",
    "assemble_frequency_symbols",
    "add_cyclic_prefix",
    "remove_cyclic_prefix",
    "symbol_start_indices",
    "apply_edge_window",
]


def assemble_frequency_symbols(
    allocation: OfdmAllocation,
    data_symbols: np.ndarray,
    pilot_symbols: np.ndarray | None = None,
) -> np.ndarray:
    """Place data and pilot values onto the full FFT grid.

    Parameters
    ----------
    data_symbols:
        Array of shape ``(n_symbols, n_data_subcarriers)``.
    pilot_symbols:
        Optional array of shape ``(n_symbols, n_pilot_subcarriers)``.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(n_symbols, fft_size)`` with zeros on unused bins.
    """
    data_symbols = np.atleast_2d(np.asarray(data_symbols, dtype=complex))
    n_symbols = data_symbols.shape[0]
    if data_symbols.shape[1] != allocation.n_data_subcarriers:
        raise ValueError(
            f"expected {allocation.n_data_subcarriers} data values per symbol, "
            f"got {data_symbols.shape[1]}"
        )
    grid = np.zeros((n_symbols, allocation.fft_size), dtype=complex)
    grid[:, allocation.data_bin_array()] = data_symbols
    if allocation.n_pilot_subcarriers:
        if pilot_symbols is None:
            raise ValueError("allocation has pilots but no pilot_symbols were provided")
        pilot_symbols = np.atleast_2d(np.asarray(pilot_symbols, dtype=complex))
        if pilot_symbols.shape != (n_symbols, allocation.n_pilot_subcarriers):
            raise ValueError(
                f"pilot_symbols must have shape ({n_symbols}, "
                f"{allocation.n_pilot_subcarriers}), got {pilot_symbols.shape}"
            )
        grid[:, allocation.pilot_bin_array()] = pilot_symbols
    return grid


def add_cyclic_prefix(time_symbols: np.ndarray, cp_length: int) -> np.ndarray:
    """Prepend the last ``cp_length`` samples of each symbol as its prefix."""
    time_symbols = np.atleast_2d(time_symbols)
    if cp_length == 0:
        return time_symbols.copy()
    return np.concatenate([time_symbols[:, -cp_length:], time_symbols], axis=1)


def remove_cyclic_prefix(symbols_with_cp: np.ndarray, cp_length: int) -> np.ndarray:
    """Drop the cyclic prefix of each symbol (the standard receiver's view)."""
    symbols_with_cp = np.atleast_2d(symbols_with_cp)
    return symbols_with_cp[:, cp_length:].copy()


def ofdm_modulate(allocation: OfdmAllocation, frequency_symbols: np.ndarray) -> np.ndarray:
    """Convert frequency-domain symbols into a time-domain waveform.

    ``frequency_symbols`` has shape ``(n_symbols, fft_size)``.  The output is
    the concatenation of all symbols, each with its cyclic prefix.
    """
    frequency_symbols = np.atleast_2d(np.asarray(frequency_symbols, dtype=complex))
    if frequency_symbols.shape[1] != allocation.fft_size:
        raise ValueError(
            f"frequency symbols must have {allocation.fft_size} bins, "
            f"got {frequency_symbols.shape[1]}"
        )
    time_symbols = np.fft.ifft(frequency_symbols, axis=1) * np.sqrt(allocation.fft_size)
    with_cp = add_cyclic_prefix(time_symbols, allocation.cp_length)
    return with_cp.reshape(-1)


def apply_edge_window(
    symbol_stream: np.ndarray, allocation: OfdmAllocation, window_length: int
) -> np.ndarray:
    """Raised-cosine edge windowing of a stream of CP-OFDM symbols.

    Real transmit chains smooth the transition between consecutive OFDM
    symbols (windowing / pulse shaping) to reduce out-of-band emissions; a
    rectangular symbol edge is what makes an unsynchronised interferer splash
    energy far outside its own subcarriers.  This helper reproduces the
    common overlap-and-add scheme: each symbol is extended by a
    ``window_length``-sample cyclic suffix, both edges are tapered with a
    raised-cosine ramp and adjacent symbols are overlap-added.  The output has
    the same length and symbol timing as the input.

    ``window_length = 0`` returns the stream unchanged (rectangular edges).
    """
    symbol_stream = np.asarray(symbol_stream, dtype=complex)
    window_length = int(window_length)
    if window_length == 0:
        return symbol_stream.copy()
    if window_length < 0:
        raise ValueError("window_length must be non-negative")
    if window_length > allocation.cp_length:
        raise ValueError(
            f"window_length ({window_length}) cannot exceed the cyclic prefix length "
            f"({allocation.cp_length})"
        )
    length = allocation.symbol_length
    if symbol_stream.size % length != 0:
        raise ValueError(
            f"stream length {symbol_stream.size} is not a whole number of OFDM symbols"
        )
    symbols = symbol_stream.reshape(-1, length)
    ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(window_length) + 0.5) / window_length))
    cp = allocation.cp_length
    # Overlap-add on a zeroed output, every symbol at once.  Each symbol's
    # cyclic suffix (the symbol continuing periodically past its end),
    # tapered down, lands on the next symbol's head before that head,
    # tapered up, is added; the last suffix falls past the stream's end.
    out = np.zeros_like(symbols)
    out[1:, :window_length] += symbols[:-1, cp : cp + window_length] * ramp[::-1]
    out[:, :window_length] += symbols[:, :window_length] * ramp
    out[:, window_length:] += symbols[:, window_length:]
    return out.reshape(-1)


def symbol_start_indices(allocation: OfdmAllocation, n_symbols: int, offset: int = 0) -> np.ndarray:
    """Sample index of the start (CP included) of each OFDM symbol."""
    return offset + np.arange(n_symbols) * allocation.symbol_length


def ofdm_demodulate(
    samples: np.ndarray,
    allocation: OfdmAllocation,
    n_symbols: int,
    start: int = 0,
    fft_window_offset: int | None = None,
) -> np.ndarray:
    """Demodulate ``n_symbols`` OFDM symbols from a sample stream.

    Parameters
    ----------
    start:
        Sample index of the first symbol's cyclic prefix.
    fft_window_offset:
        Offset of the FFT window start relative to the symbol start.  The
        default (``cp_length``) is the standard receiver behaviour of
        discarding the entire cyclic prefix.  Values between the channel
        delay spread and ``cp_length`` select one of the "FFT segments"
        exploited by CPRecycle; the caller is responsible for correcting the
        resulting phase ramp (:func:`repro.receiver.segments.segment_phase_ramp`).

    Returns
    -------
    numpy.ndarray
        Frequency-domain symbols of shape ``(n_symbols, fft_size)``.
    """
    samples = np.asarray(samples)
    offset = allocation.cp_length if fft_window_offset is None else int(fft_window_offset)
    if not 0 <= offset <= allocation.cp_length:
        raise ValueError(
            f"fft_window_offset must be in [0, {allocation.cp_length}], got {offset}"
        )
    starts = symbol_start_indices(allocation, n_symbols, start) + offset
    last_needed = starts[-1] + allocation.fft_size
    if starts[0] < 0 or last_needed > samples.size:
        raise ValueError(
            f"sample stream of length {samples.size} does not contain {n_symbols} symbols "
            f"starting at {start}"
        )
    windows = samples[starts[:, None] + np.arange(allocation.fft_size)[None, :]]
    return np.fft.fft(windows, axis=1) / np.sqrt(allocation.fft_size)
