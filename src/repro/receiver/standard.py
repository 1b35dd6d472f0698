"""The standard OFDM receiver: discard the cyclic prefix, nearest-point demap.

This is the paper's baseline ("Without CPRecycle"): the FFT window starts
right after the cyclic prefix (the last segment) and each data subcarrier is
demapped independently to the nearest constellation point.  The decision is
elementwise, so a link batch is decided in one pass over its front-end
batch.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.channel.scenario import ReceivedWaveform
from repro.receiver.base import OfdmReceiverBase
from repro.receiver.frontend import FrontEnd, FrontEndBatch, FrontEndOutput
from repro.receiver.segments import reference_segment_index

__all__ = ["StandardOfdmReceiver"]


class StandardOfdmReceiver(OfdmReceiverBase):
    """Conventional single-FFT-window receiver."""

    name = "standard"

    def __init__(self, front_end: FrontEnd | None = None):
        # The standard receiver only ever needs the reference window, so the
        # default front end extracts a single segment to avoid wasted FFTs.
        if front_end is None:
            front_end = FrontEnd(n_segments=1)
        super().__init__(front_end)

    def decide(self, front: FrontEndOutput, rx: ReceivedWaveform) -> np.ndarray:
        constellation = front.spec.mcs.constellation
        reference = front.reference_data()
        return constellation.nearest_indices(reference)

    def decide_batch(
        self, batch: FrontEndBatch, fronts: Sequence[FrontEndOutput], rxs: Sequence[ReceivedWaveform]
    ) -> np.ndarray:
        """Nearest-point decisions of the whole batch in one pass (they are elementwise)."""
        reference = batch.data[:, :, reference_segment_index(batch.data.shape[2])]
        return batch.spec.mcs.constellation.nearest_indices(reference.transpose(0, 2, 1))
