"""Receiver base class and result containers.

Every receiver strategy in this library follows the same two-stage structure:

* ``decide`` — map the front end's per-segment equalised observations to one
  constellation decision per data subcarrier and OFDM symbol.  This is the
  stage the paper's receivers differ in.
* ``receive`` — run ``decide`` and push the resulting hard coded bits through
  the shared FEC decode chain, returning a verified PSDU.

The link engine decodes packets in batches: it calls ``demodulate_batch``
on a batch of packets and then runs the FEC stage across the whole batch.
``demodulate_batch`` runs the front end once over the batch, decides each
:class:`~repro.receiver.frontend.FrontEndBatch` through ``decide_batch``
(per packet unless a strategy vectorises it) and maps the decisions of a
whole front-end batch to coded bits in one pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.channel.scenario import ReceivedWaveform
from repro.receiver.decode_chain import DecodedFrame, decode_coded_bits
from repro.receiver.frontend import FrontEnd, FrontEndBatch, FrontEndOutput, front_end_batches

__all__ = ["OfdmReceiverBase", "Demodulated", "ReceiverOutput", "demodulated_batch"]


@dataclass(frozen=True)
class Demodulated:
    """Decisions of one packet before forward-error-correction decoding."""

    decisions: np.ndarray = field(repr=False)
    coded_bits: np.ndarray = field(repr=False)
    front_end: FrontEndOutput = field(repr=False)

    @property
    def n_data_symbols(self) -> int:
        """Number of data OFDM symbols in the packet."""
        return int(self.decisions.shape[0])


@dataclass(frozen=True)
class ReceiverOutput:
    """Full decode result of one packet."""

    frame: DecodedFrame
    demodulated: Demodulated = field(repr=False)

    @property
    def success(self) -> bool:
        """True when the frame check sequence verified."""
        return self.frame.crc_ok

    @property
    def payload(self) -> bytes | None:
        """Decoded payload (``None`` when the CRC failed)."""
        return self.frame.payload


class OfdmReceiverBase:
    """Common scaffolding for all receiver strategies."""

    #: Human-readable name used in experiment reports.
    name: str = "receiver"

    def __init__(self, front_end: FrontEnd | None = None):
        self.front_end = front_end if front_end is not None else FrontEnd()

    # ------------------------------------------------------------------ #
    # Strategy interface                                                  #
    # ------------------------------------------------------------------ #
    def decide(self, front: FrontEndOutput, rx: ReceivedWaveform) -> np.ndarray:
        """Return decided lattice indices of shape ``(n_data_symbols, n_data)``.

        Subclasses implement this; ``rx`` gives access to genie information
        for oracle baselines and is ignored by standards-compliant receivers.
        """
        raise NotImplementedError

    def decide_batch(
        self, batch: FrontEndBatch, fronts: Sequence[FrontEndOutput], rxs: Sequence[ReceivedWaveform]
    ) -> np.ndarray:
        """Decisions of every packet of a front-end batch, ``(B, n_data_symbols, n_data)``.

        ``fronts`` and ``rxs`` are the batch's packets in batch order.  The
        base implementation calls :meth:`decide` packet by packet; a
        strategy whose decision is elementwise may decide the whole batch
        at once, bit-identically.
        """
        return np.stack([self.decide(front, rx) for front, rx in zip(fronts, rxs)])

    # ------------------------------------------------------------------ #
    # Shared pipeline                                                     #
    # ------------------------------------------------------------------ #
    def demodulate(self, rx: ReceivedWaveform) -> Demodulated:
        """Front end plus symbol decisions (no FEC decoding)."""
        front = self.front_end.process(rx)
        decisions = self.decide(front, rx)
        constellation = rx.spec.mcs.constellation
        coded_bits = constellation.indices_to_bits(decisions.reshape(-1))
        return Demodulated(decisions=decisions, coded_bits=coded_bits, front_end=front)

    def demodulate_batch(self, rxs: Sequence[ReceivedWaveform]) -> list[Demodulated]:
        """Demodulate a batch of packets, preserving order.

        The front end runs once over the batch, and each front-end batch is
        decided by :meth:`decide_batch` and mapped to coded bits in one
        pass, so every receiver supports the batched link-engine entry
        point; receivers with a vectorisable decision stage (CPRecycle)
        override this to run KDE training and the ML decision across the
        whole batch.  Any override must stay bit-identical to the sequential
        loop.
        """
        rxs = list(rxs)
        fronts = self.front_end.process_batch(rxs)
        results: list[Demodulated] = [None] * len(rxs)  # type: ignore[list-item]
        for indices, batch in front_end_batches(fronts):
            members = [fronts[i] for i in indices]
            decisions = self.decide_batch(batch, members, [rxs[i] for i in indices])
            for index, demodulated in zip(indices, demodulated_batch(members, decisions)):
                results[index] = demodulated
        return results

    def receive(self, rx: ReceivedWaveform) -> ReceiverOutput:
        """Decode one packet end to end."""
        demodulated = self.demodulate(rx)
        frame = decode_coded_bits(rx.spec, demodulated.coded_bits)
        return ReceiverOutput(frame=frame, demodulated=demodulated)


def demodulated_batch(
    fronts: Sequence[FrontEndOutput], decisions: np.ndarray
) -> list[Demodulated]:
    """The :class:`Demodulated` packets of a front-end batch's ``(B, S, n_data)`` decisions.

    The lattice indices of every packet are mapped to coded bits in one
    pass; packet ``b``'s bits are row ``b`` of the result, exactly what
    mapping its own decisions gives.
    """
    constellation = fronts[0].spec.mcs.constellation
    bits = constellation.indices_to_bits(decisions.reshape(-1)).reshape(len(fronts), -1)
    return [
        Demodulated(decisions=packet_decisions, coded_bits=packet_bits, front_end=front)
        for front, packet_decisions, packet_bits in zip(fronts, decisions, bits)
    ]
