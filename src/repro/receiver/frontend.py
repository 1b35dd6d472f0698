"""Receiver front end shared by every decoding strategy.

The front end turns a received sample buffer into equalised frequency-domain
observations of the frame's data subcarriers:

1. frame timing (genie by default, real synchronisation optionally),
2. determination of the number of usable FFT segments ``P``,
3. per-segment FFT of the training and data symbols, keeping only the
   occupied bins, with the phase ramp of Proposition 3.1 corrected,
4. channel estimation from the training symbols' occupied bins,
5. zero-forcing equalisation and optional pilot-based common-phase tracking.

All downstream receivers — standard, naive, oracle and CPRecycle — consume
the resulting :class:`FrontEndOutput`, so their comparison isolates the
symbol-decision stage, exactly as in the paper.  Each of them reads only the
data subcarriers (the decisions of Eqs. 3 and 5, the KDE training
deviations), so those are the only bins the front end scales, phase-corrects
and equalises.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.channel.scenario import ReceivedWaveform
from repro.phy.frame import FrameSpec
from repro.phy.ofdm import symbol_start_indices
from repro.phy.subcarriers import OfdmAllocation
from repro.receiver.channel_est import estimate_channel_best_segment, estimate_channel_ls
from repro.receiver.equalizer import apply_common_phase, equalize, estimate_common_phase
from repro.receiver.isi_free import detect_isi_free_samples
from repro.receiver.segments import extract_segments, reference_segment_index, segment_offsets
from repro.receiver.sync import synchronize
from repro.utils.validation import require_positive_int

__all__ = ["FrontEnd", "FrontEndOutput"]


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
    """

    spec: FrameSpec
    preamble: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)
    channel_estimate: np.ndarray = field(repr=False)
    segment_offsets: np.ndarray
    frame_start: int

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


class FrontEnd:
    """Configurable shared receiver front end.

    Parameters
    ----------
    n_segments:
        Number of FFT segments to extract.  ``None`` uses every ISI-free
        cyclic prefix sample (genie knowledge of the channel delay spread, or
        the correlation detector when ``use_genie_isi_free`` is False), capped
        at ``max_segments``.
    max_segments:
        Upper bound on ``P`` — the paper's knob for trading computation
        against interference-mitigation capability (Fig. 14).
    use_genie_sync:
        Take the frame start index from the scenario instead of running
        acquisition.  Default True (the paper evaluates decoding, not sync).
    use_genie_isi_free:
        Take the ISI-free sample count from the known channel instead of the
        correlation-based detector.
    pilot_phase_tracking:
        Estimate and remove a per-symbol common phase error from the pilots.
        Off by default; enable when simulating CFO or phase noise.
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
        use_genie_sync: bool = True,
        use_genie_isi_free: bool = True,
        pilot_phase_tracking: bool = False,
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
        self.use_genie_sync = use_genie_sync
        self.use_genie_isi_free = use_genie_isi_free
        self.pilot_phase_tracking = pilot_phase_tracking
        self.channel_estimator = channel_estimator

    # ------------------------------------------------------------------ #
    def process(self, rx: ReceivedWaveform) -> FrontEndOutput:
        """Run the front end on one received waveform.

        The FFT output keeps only the occupied bins; the channel is estimated
        on them, and only the data bins are equalised and returned.  Every
        array equals the data bins of :meth:`process_reference` bit for bit
        and in memory order.
        """
        spec = rx.spec
        allocation = spec.allocation
        occupied = allocation.occupied_bin_array()
        frame_start, offsets = self._windows(rx)

        # The data symbols follow the training symbols back to back, so one
        # extraction covers the frame.
        n_preamble = spec.n_preamble_symbols
        spectra = extract_segments(
            rx.composite, allocation, n_preamble + spec.n_data_symbols,
            frame_start + spec.preamble_start, offsets=offsets, bins=occupied,
        )
        preamble, data = spectra[:, :n_preamble], spectra[:, n_preamble:]
        channel = self._estimate_channel(preamble, spec.preamble_frequency[:, occupied])
        # Occupied bins are sorted, so searchsorted finds each bin's position.
        data_at = np.searchsorted(occupied, allocation.data_bin_array())
        data_channel = channel[data_at]
        # Indexing and in-place arithmetic give every array the memory order
        # the full-grid pipeline gives its data bins (see extract_segments).
        data_eq = data[:, :, data_at]
        data_eq /= data_channel
        preamble_eq = preamble[:, :, data_at]
        preamble_eq /= data_channel

        if self.pilot_phase_tracking and allocation.n_pilot_subcarriers:
            pilot_at = np.searchsorted(occupied, allocation.pilot_bin_array())
            pilots = data[reference_segment_index(offsets.size)][:, pilot_at] / channel[pilot_at]
            phase = estimate_common_phase(pilots, np.arange(pilot_at.size), spec.data_pilot_values)
            data_eq *= np.exp(-1j * phase)[None, :, None]

        return FrontEndOutput(
            spec=spec,
            preamble=preamble_eq,
            data=data_eq,
            channel_estimate=data_channel,
            segment_offsets=offsets,
            frame_start=frame_start,
        )

    def process_batch(self, rxs: Sequence[ReceivedWaveform]) -> list[FrontEndOutput]:
        """Run :meth:`process` over a batch of packets, preserving order."""
        return [self.process(rx) for rx in rxs]

    def process_reference(self, rx: ReceivedWaveform) -> FrontEndOutput:
        """Full-grid front end, the test oracle of :meth:`process`.

        Scales, phase-corrects and equalises every FFT bin.  The returned
        arrays span all ``fft_size`` bins (the channel estimate is 1 on empty
        bins); their data bins equal :meth:`process` bit for bit.
        """
        spec = rx.spec
        allocation = spec.allocation
        occupied = allocation.occupied_bin_array()
        frame_start, offsets = self._windows(rx)

        preamble_segments = extract_segments(
            rx.composite, allocation, spec.n_preamble_symbols, frame_start + spec.preamble_start,
            offsets=offsets,
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

        if self.pilot_phase_tracking and allocation.n_pilot_subcarriers:
            reference_data = data_eq[reference_segment_index(offsets.size)]
            phase = estimate_common_phase(
                reference_data, allocation.pilot_bin_array(), spec.data_pilot_values
            )
            data_eq = np.stack([apply_common_phase(seg, phase) for seg in data_eq])

        return FrontEndOutput(
            spec=spec,
            preamble=preamble_eq,
            data=data_eq,
            channel_estimate=channel,
            segment_offsets=offsets,
            frame_start=frame_start,
        )

    # ------------------------------------------------------------------ #
    def _windows(self, rx: ReceivedWaveform) -> tuple[int, np.ndarray]:
        """Frame start and the FFT window offsets of the ``P`` segments."""
        allocation = rx.allocation
        if self.use_genie_sync:
            frame_start = rx.frame_start
        else:
            frame_start = synchronize(rx.composite, rx.spec).frame_start
        if self.n_segments is not None:
            requested = self.n_segments
        elif self.use_genie_isi_free:
            requested = rx.isi_free_cp_samples
        else:
            data_start = frame_start + rx.spec.data_start
            starts = symbol_start_indices(allocation, rx.spec.n_data_symbols, data_start)
            requested = detect_isi_free_samples(rx.composite, allocation, starts)
        n_segments = max(min(requested, self.max_segments, allocation.cp_length), 1)
        return frame_start, segment_offsets(allocation.cp_length, n_segments)

    def _estimate_channel(self, preamble: np.ndarray, known: np.ndarray) -> np.ndarray:
        """Channel estimate from ``(P, Np, n_bins)`` training spectra and known values."""
        n_segments, n_preamble = preamble.shape[:2]
        if self.channel_estimator == "best-segment" and n_segments > 1 and n_preamble > 1:
            return estimate_channel_best_segment(preamble, known)
        return estimate_channel_ls(preamble[reference_segment_index(n_segments)], known)

