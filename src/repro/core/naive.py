"""The naive multi-segment decoder (paper Eq. 3, the authors' earlier ShiftFFT).

For each subcarrier the decoder picks the lattice point with the smallest
*average Euclidean distance* to the ``P`` per-segment observations.  The paper
uses it to motivate CPRecycle: it works at mild interference but collapses at
-20/-30 dB SIR because the arithmetic mean is destroyed by outlier segments,
it assumes observations sit exactly on lattice points, and it ignores phase
structure (section 3.3).
"""

from __future__ import annotations

import numpy as np

from repro.channel.scenario import ReceivedWaveform
from repro.phy.constellation import Constellation
from repro.receiver.base import OfdmReceiverBase
from repro.receiver.frontend import FrontEnd, FrontEndOutput

__all__ = ["naive_decide_symbols", "NaiveSegmentReceiver"]


def naive_decide_symbols(observations: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Minimum-average-distance decisions (Eq. 3).

    ``observations`` has shape ``(P, n_symbols, n_data)`` (or ``(P, n_data)``
    for a single symbol); the result drops the segment axis.
    """
    observations = np.asarray(observations, dtype=complex)
    single_symbol = observations.ndim == 2
    if single_symbol:
        observations = observations[:, None, :]
    if observations.ndim != 3:
        raise ValueError("observations must have shape (P, n_symbols, n_data)")
    # (n_symbols, n_data, order): average over segments of |obs - lattice|.
    distances = np.abs(observations[..., None] - constellation.points)
    average = distances.mean(axis=0)
    decisions = np.argmin(average, axis=-1)
    return decisions[0] if single_symbol else decisions


class NaiveSegmentReceiver(OfdmReceiverBase):
    """Receiver built around the naive average-distance metric."""

    name = "naive"

    def __init__(self, front_end: FrontEnd | None = None, n_segments: int | None = None,
                 max_segments: int = 16):
        if front_end is None:
            front_end = FrontEnd(n_segments=n_segments, max_segments=max_segments)
        super().__init__(front_end)

    def decide(self, front: FrontEndOutput, rx: ReceivedWaveform) -> np.ndarray:
        constellation = front.spec.mcs.constellation
        return naive_decide_symbols(front.data, constellation)
