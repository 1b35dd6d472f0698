"""Receiver front end shared by every decoding strategy.

The front end turns received sample buffers into equalised frequency-domain
observations of each frame's data subcarriers:

1. frame timing, taken from the scenario (genie sync: the paper evaluates
   decoding, not acquisition),
2. the number of usable FFT segments ``P``, from the genie count of ISI-free
   cyclic prefix samples unless fixed,
3. per-segment FFT of the training and data symbols, keeping only the
   occupied bins, with the phase ramp of Proposition 3.1 corrected,
4. channel estimation from the training symbols' occupied bins,
5. zero-forcing equalisation.

All downstream receivers — standard, naive, oracle and CPRecycle — consume
the resulting :class:`FrontEndOutput`, so their comparison isolates the
symbol-decision stage, exactly as in the paper.  Each of them reads only the
data subcarriers (the decisions of Eqs. 3 and 5, the KDE training
deviations), so those are the only bins the front end scales, phase-corrects
and equalises.

The unit of work is a batch of packets: packets that share a frame format
and a segment count form a :class:`FrontEndBatch`, whose stages each run as
one numpy pass over the whole batch (the FFT and the channel estimate in
chunks of whole packets, which bound the memory they hold).  Every packet's
:class:`FrontEndOutput` holds views into its batch's arrays.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.channel.scenario import ReceivedWaveform
from repro.phy.frame import FrameSpec
from repro.phy.subcarriers import OfdmAllocation
from repro.receiver.channel_est import estimate_channel_best_segment, estimate_channel_ls
from repro.receiver.equalizer import equalize
from repro.receiver.segments import (
    extract_segments,
    phase_ramps,
    reference_segment_index,
    scale_spectra,
    segment_offsets,
    segment_windows,
)
from repro.utils.validation import require_positive_int

__all__ = ["FrontEnd", "FrontEndBatch", "FrontEndOutput", "front_end_batches"]


@dataclass(frozen=True)
class FrontEndOutput:
    """Equalised per-segment observations of one frame's data subcarriers.

    The last axis of every array runs over the data subcarriers in the order
    of ``allocation.data_bins``.

    Attributes
    ----------
    preamble:
        Equalised training symbols, shape ``(P, n_preamble_symbols, n_data)``.
    data:
        Equalised data symbols, shape ``(P, n_data_symbols, n_data)``.
    channel_estimate:
        Channel estimate used for equalisation, shape ``(n_data,)``.
    segment_offsets:
        FFT window offsets of the ``P`` segments (last entry is the standard
        receiver's window).
    frame_start:
        Buffer index used as the frame start.
    batch:
        The :class:`FrontEndBatch` whose arrays ``preamble``, ``data`` and
        ``channel_estimate`` view (``None`` for
        :meth:`FrontEnd.process_reference` outputs).
    """

    spec: FrameSpec
    preamble: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)
    channel_estimate: np.ndarray = field(repr=False)
    segment_offsets: np.ndarray
    frame_start: int
    batch: "FrontEndBatch | None" = field(default=None, repr=False, compare=False)

    @property
    def allocation(self) -> OfdmAllocation:
        """Subcarrier allocation of the frame."""
        return self.spec.allocation

    @property
    def n_segments(self) -> int:
        """Number of FFT segments ``P``."""
        return int(self.segment_offsets.size)

    @property
    def reference_index(self) -> int:
        """Segment index of the standard receiver's FFT window."""
        return reference_segment_index(self.n_segments)

    def reference_data(self) -> np.ndarray:
        """Standard-receiver view of the data symbols, ``(n_symbols, n_data)``."""
        return self.data[self.reference_index]


@dataclass(frozen=True)
class FrontEndBatch:
    """Packets of one frame format and segment count, front-ended together.

    Each array holds every packet of the batch, packets outermost, in the
    memory order the per-packet views of :class:`FrontEndOutput` need:
    packet ``b``'s ``data`` is ``data[b].transpose(1, 2, 0)``, shape ``(P,
    n_data_symbols, n_data)`` with the subcarriers outermost in memory, as
    the full-grid pipeline lays out its data bins.

    Attributes
    ----------
    data:
        Equalised data symbols, ``(B, n_data, P, n_data_symbols)``.
    preamble:
        Equalised training symbols, ``(B, n_data, P, n_preamble_symbols)``.
    channel_estimate:
        Channel estimates on the data subcarriers, ``(B, n_data)``.
    frame_starts:
        Buffer index used as each packet's frame start.
    """

    spec: FrameSpec
    data: np.ndarray = field(repr=False)
    preamble: np.ndarray = field(repr=False)
    channel_estimate: np.ndarray = field(repr=False)
    segment_offsets: np.ndarray
    frame_starts: tuple[int, ...]

    def observations(self) -> np.ndarray:
        """Every packet's data side by side on the subcarrier axis, ``(P, S, B * n_data)``.

        A view, equal in bits and strides to concatenating the packets'
        ``data`` along their last axis.
        """
        return self.data.reshape(-1, *self.data.shape[2:]).transpose(1, 2, 0)

    def outputs(self) -> list[FrontEndOutput]:
        """One :class:`FrontEndOutput` per packet, viewing this batch's arrays."""
        return [
            FrontEndOutput(
                spec=self.spec,
                preamble=preamble.transpose(1, 2, 0),
                data=data.transpose(1, 2, 0),
                channel_estimate=channel,
                segment_offsets=self.segment_offsets,
                frame_start=frame_start,
                batch=self,
            )
            for preamble, data, channel, frame_start in zip(
                self.preamble, self.data, self.channel_estimate, self.frame_starts
            )
        ]


def front_end_batches(
    fronts: Sequence[FrontEndOutput],
) -> list[tuple[list[int], FrontEndBatch]]:
    """The batches behind the outputs of one :meth:`FrontEnd.process_batch` call.

    Returns each batch once, in order of first appearance, with the
    positions of its packets in ``fronts`` (in batch order).
    """
    groups: dict[int, tuple[list[int], FrontEndBatch]] = {}
    for index, front in enumerate(fronts):
        if front.batch is None:
            raise ValueError("front end outputs must come from FrontEnd.process_batch")
        groups.setdefault(id(front.batch), ([], front.batch))[0].append(index)
    return list(groups.values())


class FrontEnd:
    """Configurable shared receiver front end.

    The frame start is the scenario's (the paper evaluates decoding, not
    sync), and so is the count of ISI-free cyclic prefix samples, which
    follows from the known channel.

    Parameters
    ----------
    n_segments:
        Number of FFT segments to extract.  ``None`` uses every ISI-free
        cyclic prefix sample, capped at ``max_segments``.
    max_segments:
        Upper bound on ``P`` — the paper's knob for trading computation
        against interference-mitigation capability (Fig. 14).
    channel_estimator:
        ``"ls-reference"`` — least squares from the training symbols at the
        standard FFT window (what a conventional receiver does, and the only
        option when a single segment is extracted).
        ``"best-segment"`` (default) — per-subcarrier selection of the most
        self-consistent segment across the training symbols, a
        cyclic-prefix-recycling estimator that stays usable under strong
        interference.  Requires at least two training symbols and more than
        one extracted segment; otherwise it silently falls back to
        ``"ls-reference"``.
    """

    _CHANNEL_ESTIMATORS = ("ls-reference", "best-segment")

    def __init__(
        self,
        n_segments: int | None = None,
        max_segments: int = 16,
        channel_estimator: str = "best-segment",
    ):
        if n_segments is not None:
            require_positive_int(n_segments, "n_segments")
        require_positive_int(max_segments, "max_segments")
        if channel_estimator not in self._CHANNEL_ESTIMATORS:
            raise ValueError(
                f"channel_estimator must be one of {self._CHANNEL_ESTIMATORS}, "
                f"got {channel_estimator!r}"
            )
        self.n_segments = n_segments
        self.max_segments = max_segments
        self.channel_estimator = channel_estimator

    #: (Packet, segment) rows per FFT chunk.  A chunk transforms whole
    #: packets, at most this many segments of them (a packet with more
    #: segments is split into equal segment ranges), so no spectrum buffer is
    #: larger than one P = 40 packet's, and ``process_batch`` on P = 40
    #: packets peaks below a per-packet loop.
    FFT_CHUNK_SEGMENTS = 32

    # ------------------------------------------------------------------ #
    def process(self, rx: ReceivedWaveform) -> FrontEndOutput:
        """Run the front end on one received waveform: a batch of one.

        See :meth:`process_batch`.
        """
        return self._process([rx])[0]

    def process_batch(self, rxs: Sequence[ReceivedWaveform]) -> list[FrontEndOutput]:
        """Run the front end over a batch of packets, preserving order.

        Packets that share a frame format and a segment count form one
        :class:`FrontEndBatch`: their windows are transformed in chunks of
        whole packets (see :attr:`FFT_CHUNK_SEGMENTS`), the channel is
        estimated once per chunk from the training symbols' occupied bins,
        and scaling, the phase ramp and equalisation of the data bins run
        once over the batch.  Every array of every output equals the data
        bins of :meth:`process_reference` bit for bit and in memory order.
        """
        return self._process(list(rxs))

    def _process(self, rxs: list[ReceivedWaveform]) -> list[FrontEndOutput]:
        # process() does not go through process_batch(), so that a one-packet
        # call is never timed as a batch by whoever wraps process_batch.
        windows = [self._windows(rx) for rx in rxs]
        # Packets of one realisation batch share their frame spec object.
        groups: dict[tuple[int, int], list[int]] = {}
        for index, (rx, (_, n_segments)) in enumerate(zip(rxs, windows)):
            groups.setdefault((id(rx.spec), n_segments), []).append(index)
        fronts: list[FrontEndOutput] = [None] * len(rxs)  # type: ignore[list-item]
        for indices in groups.values():
            batch = self._batch(
                [rxs[i] for i in indices], [windows[i][0] for i in indices], windows[indices[0]][1]
            )
            for index, front in zip(indices, batch.outputs()):
                fronts[index] = front
        return fronts

    def _batch(
        self, rxs: list[ReceivedWaveform], frame_starts: list[int], n_segments: int
    ) -> FrontEndBatch:
        """The front end of packets sharing one frame spec and segment count.

        Chunk by chunk, the FFT output's kept bins go straight to their
        place: the training symbols' occupied bins to the chunk's channel
        estimate, and the data bins of every symbol into the batch's ``(B,
        n_data, P, symbols)`` arrays.  Scaling, the Eq. 2 ramp and
        equalisation of those arrays then run once over the batch: they are
        elementwise, so the batch's layout gives the bits of the per-packet
        order.
        """
        spec = rxs[0].spec
        allocation = spec.allocation
        fft_size = allocation.fft_size
        occupied = allocation.occupied_bin_array()
        data_bins = allocation.data_bin_array()
        offsets = segment_offsets(allocation.cp_length, n_segments)
        delays = tuple((allocation.cp_length - offsets).tolist())
        n_preamble, n_symbols = spec.n_preamble_symbols, spec.n_data_symbols
        n_all, n_packets = n_preamble + n_symbols, len(rxs)

        # The data symbols follow the training symbols back to back, so one
        # span of samples per packet covers every window of the frame.
        span = (n_all - 1) * allocation.symbol_length + n_segments - 1 + fft_size
        firsts = [start + int(offsets[0]) for start in frame_starts]
        for rx, first in zip(rxs, firsts):
            if first < 0 or first + span > rx.composite.size:
                raise ValueError(
                    f"sample buffer of length {rx.composite.size} cannot hold the frame's "
                    f"{n_all} symbols starting at {first - int(offsets[0])}"
                )
        preamble_eq = np.empty((n_packets, data_bins.size, n_segments, n_preamble), dtype=complex)
        data = np.empty((n_packets, data_bins.size, n_segments, n_symbols), dtype=complex)
        kept = ((slice(0, n_preamble), preamble_eq), (slice(n_preamble, None), data))
        channel = np.empty((n_packets, occupied.size), dtype=complex)
        known = spec.preamble_frequency[:, occupied]
        occupied_ramps = phase_ramps(fft_size, delays, tuple(occupied.tolist()))[:, None, :]
        n_parts = -(-n_segments // self.FFT_CHUNK_SEGMENTS)
        part_size = -(-n_segments // n_parts)
        per_chunk = min(max(1, self.FFT_CHUNK_SEGMENTS // n_segments), n_packets)
        for start in range(0, n_packets, per_chunk):
            chunk = slice(start, start + per_chunk)
            samples = np.stack(
                [rx.composite[first : first + span] for rx, first in zip(rxs[chunk], firsts[chunk])]
            )
            windows = segment_windows(samples, allocation, n_all, n_segments)
            preamble = np.empty((len(samples), n_segments, n_preamble, occupied.size), dtype=complex)
            work = np.empty(len(samples) * part_size * n_all * fft_size, dtype=complex)
            for rows in (slice(j, j + part_size) for j in range(0, n_segments, part_size)):
                part = windows[:, rows]
                spectra = np.fft.fft(part, axis=-1, out=work[: part.size].reshape(part.shape))
                preamble[:, rows] = spectra[:, :, :n_preamble, occupied]
                for symbols, array in kept:
                    array[chunk, :, rows] = spectra[:, :, symbols, data_bins].transpose(0, 3, 1, 2)
            # Freed before the estimate, which reads every segment of the chunk.
            del work, spectra
            scale_spectra(preamble, fft_size)
            preamble *= occupied_ramps
            channel[chunk] = self._estimate_channel(preamble, known)

        # Occupied bins are sorted, so searchsorted finds each bin's position.
        data_channel = channel[:, np.searchsorted(occupied, data_bins)]
        data_ramps = phase_ramps(fft_size, delays, tuple(data_bins.tolist())).T[:, :, None]
        for _, array in kept:
            scale_spectra(array, fft_size)
            array *= data_ramps
            array /= data_channel[:, :, None, None]

        return FrontEndBatch(
            spec=spec,
            data=data,
            preamble=preamble_eq,
            channel_estimate=data_channel,
            segment_offsets=offsets,
            frame_starts=tuple(frame_starts),
        )

    def process_reference(self, rx: ReceivedWaveform) -> FrontEndOutput:
        """Full-grid front end, the test oracle of :meth:`process`.

        Scales, phase-corrects and equalises every FFT bin.  The returned
        arrays span all ``fft_size`` bins (the channel estimate is 1 on empty
        bins); their data bins equal :meth:`process` bit for bit.
        """
        spec = rx.spec
        allocation = spec.allocation
        occupied = allocation.occupied_bin_array()
        frame_start, n_segments = self._windows(rx)
        offsets = segment_offsets(allocation.cp_length, n_segments)

        preamble_segments = extract_segments(
            rx.composite, allocation, spec.n_preamble_symbols, frame_start, offsets=offsets
        )
        data_segments = extract_segments(
            rx.composite, allocation, spec.n_data_symbols, frame_start + spec.data_start,
            offsets=offsets,
        )
        channel = np.ones(allocation.fft_size, dtype=complex)
        channel[occupied] = self._estimate_channel(
            preamble_segments[:, :, occupied], spec.preamble_frequency[:, occupied]
        )
        preamble_eq = equalize(preamble_segments, channel)
        data_eq = equalize(data_segments, channel)
        return FrontEndOutput(
            spec=spec,
            preamble=preamble_eq,
            data=data_eq,
            channel_estimate=channel,
            segment_offsets=offsets,
            frame_start=frame_start,
        )

    # ------------------------------------------------------------------ #
    def _windows(self, rx: ReceivedWaveform) -> tuple[int, int]:
        """Frame start and the number ``P`` of FFT segments."""
        requested = rx.isi_free_cp_samples if self.n_segments is None else self.n_segments
        return rx.frame_start, max(min(requested, self.max_segments, rx.allocation.cp_length), 1)

    def _estimate_channel(self, preamble: np.ndarray, known: np.ndarray) -> np.ndarray:
        """Channel estimate from ``(..., P, Np, n_bins)`` training spectra and known values."""
        n_segments, n_preamble = preamble.shape[-3:-1]
        if self.channel_estimator == "best-segment" and n_segments > 1 and n_preamble > 1:
            return estimate_channel_best_segment(preamble, known)
        return estimate_channel_ls(preamble[..., reference_segment_index(n_segments), :, :], known)

