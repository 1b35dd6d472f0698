"""The CPRecycle receiver (paper Algorithm 1).

Pipeline per frame:

1. The shared front end extracts the ``P`` ISI-free FFT segments of every
   OFDM symbol, corrects the per-segment phase ramp and equalises them.
2. The per-subcarrier interference model is trained from the deviations of
   the equalised training symbols from their known values (section 4.1).
3. Every data subcarrier of every data symbol is decoded with the
   fixed-sphere maximum-likelihood detector: candidate lattice points inside
   a sphere around the centroid of the ``P`` observations are scored by the
   product of per-segment KDE likelihoods (section 4.2).
4. The decided lattice points feed the standard FEC chain shared with every
   other receiver.

The receiver is entirely local: it needs no changes at the transmitter, no
genie knowledge, and with ``n_segments=1`` it degrades exactly to the
standard OFDM receiver.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import obs
from repro.channel.scenario import ReceivedWaveform
from repro.core.config import CPRecycleConfig
from repro.core.interference_model import InterferenceModel
from repro.core.ml_decoder import FixedSphereMlDecoder
from repro.receiver.base import Demodulated, OfdmReceiverBase, demodulated_batch
from repro.receiver.frontend import FrontEnd, FrontEndOutput, front_end_batches

__all__ = ["CPRecycleReceiver"]


class CPRecycleReceiver(OfdmReceiverBase):
    """Cyclic-prefix-recycling OFDM receiver."""

    name = "cprecycle"

    def __init__(
        self,
        config: CPRecycleConfig | None = None,
        front_end: FrontEnd | None = None,
    ):
        self.config = config if config is not None else CPRecycleConfig()
        if front_end is None:
            front_end = FrontEnd(
                n_segments=self.config.n_segments,
                max_segments=self.config.max_segments,
            )
        super().__init__(front_end)
        self._last_model: InterferenceModel | None = None

    # ------------------------------------------------------------------ #
    def build_model(self, front: FrontEndOutput) -> InterferenceModel:
        """Train the per-subcarrier interference model from the preamble."""
        return InterferenceModel.from_front_end(front, self.config)

    @property
    def last_model(self) -> InterferenceModel | None:
        """Interference model trained for the most recently decoded frame.

        Populated by the per-packet ``decide`` path; batched demodulation
        pools many packets into one model bank, so ``demodulate_batch``
        resets this to ``None`` rather than exposing a model that does not
        correspond to any single frame.
        """
        return self._last_model

    def decide(self, front: FrontEndOutput, rx: ReceivedWaveform) -> np.ndarray:
        model = self.build_model(front)
        self._last_model = model
        decoder = FixedSphereMlDecoder(front.spec.mcs.constellation, self.config)
        return decoder.decode_frame(front.data, model)

    # ------------------------------------------------------------------ #
    def demodulate_batch(self, rxs: Sequence[ReceivedWaveform]) -> list[Demodulated]:
        """Packet-batched demodulation: one KDE fit and one ML sweep per front-end batch.

        The packets of a :class:`~repro.receiver.frontend.FrontEndBatch`
        share their frame format and segment count, and their observations
        sit side by side on the subcarrier axis of one view of the batch's
        data (:meth:`~repro.receiver.frontend.FrontEndBatch.observations`,
        no copy), which is decoded as one oversized frame: the
        per-subcarrier densities of a packet are independent of every other
        subcarrier, so stacking the subcarrier axes of ``B`` packets yields
        exactly the same per-row candidate selection, bandwidths and
        likelihoods as ``B`` separate decodes — verified bit for bit by the
        fast-path equivalence tests.
        """
        rxs = list(rxs)
        if len(rxs) <= 1:
            return [self.demodulate(rx) for rx in rxs]
        # The pooled model below spans every packet of a batch; no single
        # per-frame model exists, so do not leave a stale one behind.
        self._last_model = None
        with obs.span("engine.frontend", n_packets=len(rxs)):
            fronts = self.front_end.process_batch(rxs)

        results: list[Demodulated] = [None] * len(rxs)  # type: ignore[list-item]
        for indices, batch in front_end_batches(fronts):
            members = [fronts[i] for i in indices]
            with obs.span("engine.kde_ml", n_packets=len(indices)):
                stacked_deviations = np.concatenate(
                    [InterferenceModel.deviations_from_front_end(f) for f in members], axis=0
                )
                model = InterferenceModel(stacked_deviations, self.config)
                decoder = FixedSphereMlDecoder(batch.spec.mcs.constellation, self.config)
                decisions = decoder.decode_frame(batch.observations(), model)
            n_symbols, n_data = decisions.shape[0], batch.data.shape[1]
            per_packet = decisions.reshape(n_symbols, len(indices), n_data).transpose(1, 0, 2)
            for index, demodulated in zip(
                indices, demodulated_batch(members, np.ascontiguousarray(per_packet))
            ):
                results[index] = demodulated
        return results
