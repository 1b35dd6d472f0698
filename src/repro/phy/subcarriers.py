"""Subcarrier allocations on a common OFDM grid.

Two families of allocations are used throughout the reproduction:

* the standard IEEE 802.11a/g 64-point grid (48 data + 4 pilot subcarriers at
  312.5 kHz spacing, 16-sample / 0.8 us cyclic prefix), used for the
  co-channel interference experiments, and
* *wideband* grids (e.g. 160 or 256 subcarriers at the same spacing) on which
  a sender and one or more adjacent-channel interferers are allocated
  contiguous blocks separated by a configurable guard band — exactly the
  generic configurable OFDM baseband the paper uses for its controlled
  adjacent-channel-interference experiments (sender on subcarriers 1..64,
  interferer on 68..132 in Fig. 4).

An allocation describes *one transmitter's* view of the grid: which absolute
FFT bins carry its data and pilots.  Several transmitters can share the same
grid size with disjoint allocations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import (
    require_non_negative_int,
    require_positive,
    require_positive_int,
    require_unique_indices,
)

__all__ = [
    "OfdmAllocation",
    "DOT11G_SUBCARRIER_SPACING_HZ",
    "dot11g_allocation",
    "wideband_allocation",
    "adjacent_block_allocation",
]

#: Subcarrier spacing shared by all 802.11 OFDM PHYs (and by the generic
#: wideband grids in this library): 20 MHz / 64 = 312.5 kHz.
DOT11G_SUBCARRIER_SPACING_HZ = 312.5e3


@dataclass(frozen=True)
class OfdmAllocation:
    """Subcarrier allocation of one OFDM transmitter on a common grid.

    Attributes
    ----------
    fft_size:
        Size of the common grid FFT (number of subcarriers spanned by the
        simulated band).
    cp_length:
        Cyclic prefix length in samples at the grid's sample rate.
    data_bins / pilot_bins:
        Absolute FFT bin indices (0 .. fft_size-1) carrying data and pilots.
        Bins above ``fft_size // 2`` represent negative frequencies, exactly
        as produced by :func:`numpy.fft.fft`.
    subcarrier_spacing_hz:
        Spacing between adjacent bins; sample rate is
        ``fft_size * subcarrier_spacing_hz``.
    name:
        Human readable label used in experiment reports.
    """

    fft_size: int
    cp_length: int
    data_bins: tuple[int, ...]
    pilot_bins: tuple[int, ...] = ()
    subcarrier_spacing_hz: float = DOT11G_SUBCARRIER_SPACING_HZ
    name: str = "custom"

    def __post_init__(self) -> None:
        require_positive_int(self.fft_size, "fft_size")
        require_non_negative_int(self.cp_length, "cp_length")
        require_positive(self.subcarrier_spacing_hz, "subcarrier_spacing_hz")
        if self.cp_length >= self.fft_size:
            raise ValueError("cp_length must be smaller than fft_size")
        data = require_unique_indices(self.data_bins, "data_bins", self.fft_size)
        pilots = require_unique_indices(self.pilot_bins, "pilot_bins", self.fft_size)
        if not set(data.tolist()).isdisjoint(pilots.tolist()):
            raise ValueError("data_bins and pilot_bins must be disjoint")
        if data.size == 0:
            raise ValueError("an allocation needs at least one data subcarrier")

    # ------------------------------------------------------------------ #
    @property
    def n_data_subcarriers(self) -> int:
        """Number of data subcarriers."""
        return len(self.data_bins)

    @property
    def n_pilot_subcarriers(self) -> int:
        """Number of pilot subcarriers."""
        return len(self.pilot_bins)

    @property
    def occupied_bins(self) -> tuple[int, ...]:
        """All bins used by this transmitter (data + pilots), sorted."""
        return tuple(sorted((*self.data_bins, *self.pilot_bins)))

    @property
    def symbol_length(self) -> int:
        """Samples per OFDM symbol including the cyclic prefix."""
        return self.fft_size + self.cp_length

    @property
    def sample_rate_hz(self) -> float:
        """Sample rate of the common grid."""
        return self.fft_size * self.subcarrier_spacing_hz

    @property
    def symbol_duration_s(self) -> float:
        """Duration of one OFDM symbol including the cyclic prefix."""
        return self.symbol_length / self.sample_rate_hz

    @property
    def cp_duration_s(self) -> float:
        """Duration of the cyclic prefix."""
        return self.cp_length / self.sample_rate_hz

    @property
    def occupied_bandwidth_hz(self) -> float:
        """Bandwidth spanned by the occupied subcarriers."""
        return len(self.occupied_bins) * self.subcarrier_spacing_hz

    def data_bin_array(self) -> np.ndarray:
        """Data bins as an integer numpy array."""
        return np.asarray(self.data_bins, dtype=int)

    def pilot_bin_array(self) -> np.ndarray:
        """Pilot bins as an integer numpy array."""
        return np.asarray(self.pilot_bins, dtype=int)

    def occupied_bin_array(self) -> np.ndarray:
        """Occupied bins (data + pilots) as an integer numpy array."""
        return np.asarray(self.occupied_bins, dtype=int)


def dot11g_allocation(name: str = "802.11g") -> OfdmAllocation:
    """The standard IEEE 802.11a/g 20 MHz allocation.

    64-point FFT, subcarriers -26..-1 and +1..+26 occupied, pilots at
    -21, -7, +7, +21, DC and the outer 11 bins null, 16-sample cyclic prefix.
    """
    pilots_signed = (-21, -7, 7, 21)
    occupied_signed = [k for k in range(-26, 27) if k != 0]
    data_signed = [k for k in occupied_signed if k not in pilots_signed]
    to_bin = lambda k: k % 64  # noqa: E731 - tiny local helper
    return OfdmAllocation(
        fft_size=64,
        cp_length=16,
        data_bins=tuple(to_bin(k) for k in data_signed),
        pilot_bins=tuple(to_bin(k) for k in pilots_signed),
        name=name,
    )


def adjacent_block_allocation(
    fft_size: int,
    cp_length: int,
    start_bin: int,
    n_subcarriers: int = 64,
    n_pilots: int = 4,
    name: str = "block",
    subcarrier_spacing_hz: float = DOT11G_SUBCARRIER_SPACING_HZ,
) -> OfdmAllocation:
    """A contiguous block of ``n_subcarriers`` bins starting at ``start_bin``.

    ``n_pilots`` pilots are spread evenly across the block; the remaining bins
    carry data.  This is the building block for the paper's generic wideband
    experiments where sender and interferer occupy adjacent blocks.
    """
    require_positive_int(n_subcarriers, "n_subcarriers")
    require_non_negative_int(n_pilots, "n_pilots")
    require_non_negative_int(start_bin, "start_bin")
    if n_pilots >= n_subcarriers:
        raise ValueError("n_pilots must be smaller than n_subcarriers")
    if start_bin + n_subcarriers > fft_size:
        raise ValueError(
            f"block [{start_bin}, {start_bin + n_subcarriers}) does not fit in a "
            f"{fft_size}-bin grid"
        )
    bins = np.arange(start_bin, start_bin + n_subcarriers)
    pilot_positions = np.round(np.linspace(0, n_subcarriers - 1, n_pilots + 2)[1:-1]).astype(int)
    pilot_bins = bins[pilot_positions]
    # The block minus its pilots, in order (a boolean mask, not np.setdiff1d,
    # whose np.unique imports numpy.ma on first use).
    is_data = np.ones(n_subcarriers, dtype=bool)
    is_data[pilot_positions] = False
    data_bins = bins[is_data]
    return OfdmAllocation(
        fft_size=fft_size,
        cp_length=cp_length,
        data_bins=tuple(int(b) for b in data_bins),
        pilot_bins=tuple(int(b) for b in pilot_bins),
        subcarrier_spacing_hz=subcarrier_spacing_hz,
        name=name,
    )


def wideband_allocation(
    fft_size: int = 160,
    cp_fraction: float = 0.25,
    start_bin: int = 1,
    n_subcarriers: int = 64,
    n_pilots: int = 4,
    name: str = "wideband-sender",
) -> OfdmAllocation:
    """Sender allocation on a wideband grid, matching the paper's Fig. 4 setup.

    The cyclic prefix is sized as a fraction of the FFT length (the 802.11
    long guard interval is 25 % of the useful symbol), so its *duration* stays
    0.8 us regardless of the grid width.
    """
    cp_length = int(round(fft_size * cp_fraction))
    return adjacent_block_allocation(
        fft_size=fft_size,
        cp_length=cp_length,
        start_bin=start_bin,
        n_subcarriers=n_subcarriers,
        n_pilots=n_pilots,
        name=name,
    )
