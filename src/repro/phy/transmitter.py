"""OFDM transmitter: frames for the sender, symbol streams for interferers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.phy.frame import FrameSpec, encode_data_field, prepare_data_bits
from repro.phy.mcs import get_mcs
from repro.phy.ofdm import apply_edge_window, assemble_frequency_symbols, ofdm_modulate
from repro.phy.pilots import pilot_values
from repro.phy.subcarriers import OfdmAllocation
from repro.utils.bits import random_bits, random_bytes
from repro.utils.rng import ensure_rng

__all__ = ["TxFrame", "OfdmTransmitter"]


@dataclass(frozen=True)
class TxFrame:
    """A transmitted frame: the waveform plus everything needed to verify it.

    Attributes
    ----------
    waveform:
        Complex baseband samples at the allocation's sample rate.
    spec:
        The frame format (shared with receivers).
    payload:
        MAC payload carried by the frame.
    psdu:
        Payload plus CRC-32, i.e. the bytes a receiver must reproduce.
    data_points:
        Transmitted constellation points per data symbol and data subcarrier,
        shape ``(n_data_symbols, n_data_subcarriers)``.  Used only for
        debugging and error-vector measurements, never by receivers.
    """

    waveform: np.ndarray = field(repr=False)
    spec: FrameSpec
    payload: bytes = field(repr=False)
    psdu: bytes = field(repr=False)
    data_points: np.ndarray = field(repr=False)

    @property
    def n_samples(self) -> int:
        """Frame length in samples."""
        return self.waveform.size


class OfdmTransmitter:
    """Builds standard-compliant frames (and interference streams) for one allocation.

    Parameters mirror :class:`repro.phy.frame.FrameSpec`.  Apart from its
    configuration the transmitter keeps only one :class:`FrameSpec` per
    payload length, so every frame of that length shares the spec's cached
    training and pilot values; one instance can build any number of frames.
    """

    def __init__(
        self,
        allocation: OfdmAllocation,
        mcs_name: str = "qpsk-1/2",
        n_preamble_symbols: int = 2,
        scrambler_seed: int | None = None,
        preamble_seed: int = 7,
        edge_window_length: int = 0,
    ):
        self.allocation = allocation
        self.mcs_name = mcs_name
        self.n_preamble_symbols = n_preamble_symbols
        self.scrambler_seed = scrambler_seed
        self.preamble_seed = preamble_seed
        if edge_window_length < 0:
            raise ValueError("edge_window_length must be non-negative")
        self.edge_window_length = edge_window_length
        self._specs: dict[int, FrameSpec] = {}

    # ------------------------------------------------------------------ #
    def frame_spec(self, payload_length: int) -> FrameSpec:
        """The :class:`FrameSpec` describing a frame with the given payload size."""
        spec = self._specs.get(payload_length)
        if spec is None:
            kwargs = {}
            if self.scrambler_seed is not None:
                kwargs["scrambler_seed"] = self.scrambler_seed
            spec = FrameSpec(
                allocation=self.allocation,
                mcs_name=self.mcs_name,
                payload_length=payload_length,
                n_preamble_symbols=self.n_preamble_symbols,
                preamble_seed=self.preamble_seed,
                **kwargs,
            )
            self._specs[payload_length] = spec
        return spec

    def build_frame(self, payload: bytes) -> TxFrame:
        """Encode and modulate a frame carrying ``payload``."""
        spec = self.frame_spec(len(payload))
        psdu = spec.build_psdu(payload)
        data_bits = prepare_data_bits(spec, psdu)
        coded_bits = encode_data_field(spec, data_bits)

        constellation = spec.mcs.constellation
        points = constellation.map(coded_bits).reshape(
            spec.n_data_symbols, self.allocation.n_data_subcarriers
        )
        data_grid = assemble_frequency_symbols(
            self.allocation, points, spec.data_pilot_values
        )

        preamble_grid = spec.preamble_frequency
        frame_grid = np.concatenate([preamble_grid, data_grid], axis=0)
        waveform = ofdm_modulate(self.allocation, frame_grid)
        return TxFrame(
            waveform=waveform, spec=spec, payload=payload, psdu=psdu, data_points=points
        )

    def random_frame(self, payload_length: int, rng: int | np.random.Generator | None = None) -> TxFrame:
        """Build a frame with a uniformly random payload of ``payload_length`` bytes."""
        rng = ensure_rng(rng)
        return self.build_frame(random_bytes(payload_length, rng))

    # ------------------------------------------------------------------ #
    def symbol_stream(
        self,
        n_symbols: int,
        rng: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """A stream of OFDM symbols carrying random data (no framing).

        Interference sources use this: a neighbouring transmitter that keeps
        sending back-to-back OFDM symbols with its own cyclic prefix.  The
        data on each subcarrier is drawn uniformly from the transmitter's
        constellation.  When ``edge_window_length`` is non-zero the symbol
        transitions are smoothed with a raised-cosine window, modelling the
        spectral shaping of real transmit chains.
        """
        if n_symbols < 1:
            raise ValueError("n_symbols must be at least 1")
        rng = ensure_rng(rng)
        constellation = get_mcs(self.mcs_name).constellation
        n_data = self.allocation.n_data_subcarriers
        bits = random_bits(n_symbols * n_data * constellation.bits_per_symbol, rng)
        points = constellation.map(bits).reshape(n_symbols, n_data)
        pilots = None
        if self.allocation.n_pilot_subcarriers:
            pilots = pilot_values(n_symbols, self.allocation.n_pilot_subcarriers)
        grid = assemble_frequency_symbols(self.allocation, points, pilots)
        stream = ofdm_modulate(self.allocation, grid)
        if self.edge_window_length:
            stream = apply_edge_window(stream, self.allocation, self.edge_window_length)
        return stream
