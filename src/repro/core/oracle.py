"""The Oracle segment-selection receiver (paper section 3.2).

The Oracle assumes perfect knowledge of the interference waveform: for every
data subcarrier (and symbol) it measures the interference power in each FFT
segment and decodes from the segment where that power is lowest.  It is not
realisable — a real receiver cannot observe the interference in isolation —
but it upper-bounds what segment selection can achieve and is the yardstick
the paper compares CPRecycle and the naive decoder against (Figs. 4 and 5).
"""

from __future__ import annotations

import numpy as np

from repro.channel.scenario import ReceivedWaveform
from repro.receiver.base import OfdmReceiverBase
from repro.receiver.frontend import FrontEnd, FrontEndOutput
from repro.receiver.segments import extract_segments

__all__ = ["OracleSegmentReceiver", "interference_power_per_segment"]


def interference_power_per_segment(
    rx: ReceivedWaveform,
    front: FrontEndOutput,
    include_noise: bool = False,
    data_start: bool = True,
) -> np.ndarray:
    """Genie interference power per (segment, symbol, subcarrier).

    The interference-only component of the received buffer is passed through
    exactly the same segment extraction as the composite (without
    equalisation — the channel scaling is common to all segments of a
    subcarrier, so it does not change which segment has the least
    interference).
    """
    component = rx.interference_plus_noise() if include_noise else rx.interference
    start = rx.data_start if data_start else rx.frame_start
    n_symbols = rx.spec.n_data_symbols if data_start else rx.spec.n_preamble_symbols
    spectra = extract_segments(
        component,
        rx.allocation,
        n_symbols=n_symbols,
        start=start,
        offsets=front.segment_offsets,
    )
    return np.abs(spectra) ** 2


class OracleSegmentReceiver(OfdmReceiverBase):
    """Per-subcarrier minimum-interference segment selection with genie knowledge."""

    name = "oracle"

    def __init__(self, front_end: FrontEnd | None = None, n_segments: int | None = None,
                 max_segments: int = 16, include_noise: bool = False):
        if front_end is None:
            front_end = FrontEnd(n_segments=n_segments, max_segments=max_segments)
        super().__init__(front_end)
        self.include_noise = include_noise

    def decide(self, front: FrontEndOutput, rx: ReceivedWaveform) -> np.ndarray:
        constellation = front.spec.mcs.constellation
        data_bins = front.allocation.data_bin_array()
        power = interference_power_per_segment(rx, front, include_noise=self.include_noise)
        power = power[:, :, data_bins]                       # (P, n_symbols, n_data)
        best_segment = np.argmin(power, axis=0)              # (n_symbols, n_data)
        chosen = np.take_along_axis(front.data, best_segment[None, :, :], axis=0)[0]
        return constellation.nearest_indices(chosen)
