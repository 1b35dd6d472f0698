"""Scenario composition: sender + channel + interferers + noise.

A :class:`Scenario` describes one link-level experiment point (allocation,
MCS, SNR, interferer set).  Each call to :meth:`Scenario.realize` draws a new
packet, channel, interference and noise realisation and returns a
:class:`ReceivedWaveform` containing both the composite samples a real
receiver would see and the individual components (genie information used by
the Oracle baseline and by the interference-analysis figures).

A realisation is ``compose(draw(rng))``.  :meth:`Scenario.draw` makes every
random draw of a packet (frame, channel taps, the interferers' raw streams,
the noise before scaling); none of them depends on the SNR or on an
interferer's SIR.  :meth:`Scenario.compose` scales those draws to the
scenario's levels.  Scenarios with equal :attr:`Scenario.draw_key` differ at
most in SNR and SIRs, so they can share one :class:`PacketDraw` per packet
(the ``draws`` argument of :meth:`Scenario.realize_batch`) and still get
exactly what their own :meth:`~Scenario.realize` would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.channel.awgn import standard_complex_noise
from repro.channel.interference import (
    InterfererDraw,
    InterfererSpec,
    RealizedInterference,
    draw_interference,
    scale_interference,
)
from repro.channel.multipath import ChannelModel, FlatChannel, apply_channel
from repro.phy.frame import FrameSpec
from repro.phy.subcarriers import OfdmAllocation
from repro.phy.transmitter import OfdmTransmitter, TxFrame
from repro.utils.dsp import db_to_linear, signal_power
from repro.utils.rng import child_rng, ensure_rng

__all__ = ["PacketDraw", "Scenario", "ReceivedWaveform"]


@dataclass(frozen=True)
class ReceivedWaveform:
    """Everything the channel hands to a receiver for one packet.

    ``composite`` is what a real receiver observes.  The remaining fields are
    genie information: they are consumed only by oracle baselines, by the
    interference-analysis experiments (Fig. 4) and by tests.
    """

    composite: np.ndarray = field(repr=False)
    signal: np.ndarray = field(repr=False)
    interference: np.ndarray = field(repr=False)
    noise: np.ndarray = field(repr=False)
    frame_start: int
    tx_frame: TxFrame
    channel_taps: np.ndarray = field(repr=False)
    interferers: tuple[RealizedInterference, ...] = ()

    # ------------------------------------------------------------------ #
    @property
    def spec(self) -> FrameSpec:
        """Frame format of the desired transmission."""
        return self.tx_frame.spec

    @property
    def allocation(self) -> OfdmAllocation:
        """Subcarrier allocation of the desired transmission."""
        return self.spec.allocation

    @property
    def data_start(self) -> int:
        """Buffer index of the first data symbol."""
        return self.frame_start + self.spec.data_start

    @property
    def channel_delay_samples(self) -> int:
        """Excess delay of the desired channel in samples (taps - 1)."""
        return int(self.channel_taps.size) - 1

    @property
    def isi_free_cp_samples(self) -> int:
        """Genie count of ISI-free cyclic prefix samples (the paper's P)."""
        return max(self.allocation.cp_length - self.channel_delay_samples, 1)

    def _frame_slice(self) -> slice:
        return slice(self.frame_start, self.frame_start + self.spec.n_samples)

    @property
    def snr_db(self) -> float:
        """Realised signal-to-noise ratio over the frame extent."""
        window = self._frame_slice()
        return 10.0 * np.log10(
            signal_power(self.signal[window]) / signal_power(self.noise[window])
        )

    @property
    def sir_db(self) -> float:
        """Realised signal-to-total-interference ratio over the frame extent."""
        window = self._frame_slice()
        interference_power = signal_power(self.interference[window])
        if interference_power == 0:
            return float("inf")
        return 10.0 * np.log10(signal_power(self.signal[window]) / interference_power)

    def interference_plus_noise(self) -> np.ndarray:
        """The composite minus the desired signal (for oracle analyses)."""
        return self.interference + self.noise


@dataclass(frozen=True)
class PacketDraw:
    """The random draws of one packet, before any SNR or SIR scaling.

    ``signal`` is the faded frame in its zero-padded receive buffer and
    ``reference_power`` the faded frame's mean power, against which
    :meth:`Scenario.compose` sets the noise and interference levels.
    ``noise`` is :func:`repro.channel.awgn.standard_complex_noise`.  The
    arrays are read-only, because sibling scenarios share them.
    """

    tx_frame: TxFrame
    channel_taps: np.ndarray = field(repr=False)
    signal: np.ndarray = field(repr=False)
    frame_start: int
    reference_power: float
    interferers: tuple[InterfererDraw, ...]
    noise: np.ndarray = field(repr=False)


class Scenario:
    """A repeatable link-level scenario.

    Parameters
    ----------
    allocation:
        Sender subcarrier allocation.
    mcs_name:
        Sender modulation and coding scheme.
    payload_length:
        MAC payload size in bytes (the paper uses 400-byte packets).
    snr_db:
        Signal-to-noise ratio at the receiver.
    interferers:
        Zero or more :class:`InterfererSpec`.
    channel:
        Propagation channel of the desired link.
    n_preamble_symbols:
        Number of training symbols (the paper's ``Np``).
    pad_symbols:
        Idle symbol durations inserted before and after the frame, so that
        interference covers the whole frame.
    """

    def __init__(
        self,
        allocation: OfdmAllocation,
        mcs_name: str = "qpsk-1/2",
        payload_length: int = 100,
        snr_db: float = 30.0,
        interferers: tuple[InterfererSpec, ...] | list[InterfererSpec] = (),
        channel: ChannelModel | None = None,
        n_preamble_symbols: int = 2,
        pad_symbols: int = 2,
    ):
        self.allocation = allocation
        self.mcs_name = mcs_name
        self.payload_length = payload_length
        self.snr_db = snr_db
        self.interferers = tuple(interferers)
        self.channel = channel if channel is not None else FlatChannel()
        self.n_preamble_symbols = n_preamble_symbols
        self.pad_symbols = pad_symbols
        self._transmitter = OfdmTransmitter(
            allocation, mcs_name=mcs_name, n_preamble_symbols=n_preamble_symbols
        )

    # ------------------------------------------------------------------ #
    @property
    def frame_spec(self) -> FrameSpec:
        """Frame format produced by this scenario."""
        return self._transmitter.frame_spec(self.payload_length)

    @property
    def draw_key(self) -> tuple[Any, ...]:
        """Everything :meth:`draw` depends on.

        Two scenarios with equal keys draw identical packets from equal RNG
        streams; they differ at most in ``snr_db`` and in their
        interferers' ``sir_db``.
        """
        return (
            self.allocation,
            self.mcs_name,
            self.payload_length,
            self.channel,
            self.n_preamble_symbols,
            self.pad_symbols,
            tuple(replace(spec, sir_db=0.0) for spec in self.interferers),
        )

    def realize_batch(
        self,
        n_packets: int,
        seed: int = 0,
        first_index: int = 0,
        draws: dict[int, PacketDraw] | None = None,
    ) -> list[ReceivedWaveform]:
        """Draw ``n_packets`` independent realisations with per-packet RNGs.

        Packet ``i`` uses the child stream ``child_rng(seed, first_index + i)``
        — the same derivation the link engine has always used per packet, so a
        batch realisation is sample-for-sample identical to ``n_packets``
        sequential :meth:`realize` calls, and any packet can be re-drawn in
        isolation.  ``first_index`` lets workers realise disjoint slices of
        one experiment's packet sequence.

        ``draws`` shares packets between sibling scenarios: it maps a global
        packet index to its :class:`PacketDraw`, and missing packets are
        drawn and added to it.  Every scenario passing the same mapping must
        have this one's :attr:`draw_key` and ``seed``; each then composes
        the shared draws at its own levels.
        """
        if n_packets < 1:
            raise ValueError("n_packets must be at least 1")
        if first_index < 0:
            raise ValueError("first_index must be non-negative")
        shared = {} if draws is None else draws
        received = []
        for index in range(first_index, first_index + n_packets):
            draw = shared.get(index)
            if draw is None:
                draw = shared[index] = self.draw(child_rng(seed, index))
            received.append(self.compose(draw))
        return received

    def realize(self, rng: int | np.random.Generator | None = None) -> ReceivedWaveform:
        """Draw one packet, channel, interference and noise realisation."""
        return self.compose(self.draw(rng))

    def draw(self, rng: int | np.random.Generator | None = None) -> PacketDraw:
        """Make one packet's random draws, in the order :meth:`realize` has always made them."""
        rng = ensure_rng(rng)
        frame = self._transmitter.random_frame(self.payload_length, rng)

        taps = self.channel.sample_taps(rng)
        faded = apply_channel(frame.waveform, taps)

        pad = self.pad_symbols * self.allocation.symbol_length
        n_samples = pad + faded.size + pad
        frame_start = pad

        signal = np.zeros(n_samples, dtype=complex)
        signal[frame_start : frame_start + faded.size] = faded
        interferers = tuple(
            draw_interference(spec, n_samples=n_samples, frame_start=frame_start, rng=rng)
            for spec in self.interferers
        )
        noise = standard_complex_noise(n_samples, rng)
        for array in (frame.waveform, frame.data_points, taps, signal, noise):
            array.flags.writeable = False
        return PacketDraw(
            tx_frame=frame,
            channel_taps=taps,
            signal=signal,
            frame_start=frame_start,
            reference_power=signal_power(faded),
            interferers=interferers,
            noise=noise,
        )

    def compose(self, draw: PacketDraw) -> ReceivedWaveform:
        """Scale one packet's draws to this scenario's SNR and interferer SIRs."""
        if len(draw.interferers) != len(self.interferers):
            raise ValueError(
                f"the draw holds {len(draw.interferers)} interferer(s), "
                f"the scenario {len(self.interferers)}"
            )
        realized: list[RealizedInterference] = []
        interference = np.zeros(draw.signal.size, dtype=complex)
        for spec, drawn in zip(self.interferers, draw.interferers):
            component = scale_interference(spec, drawn, draw.reference_power)
            interference += component.component
            realized.append(component)

        noise_power = draw.reference_power / db_to_linear(self.snr_db)
        noise = np.sqrt(noise_power / 2.0) * draw.noise

        composite = draw.signal + interference + noise
        return ReceivedWaveform(
            composite=composite,
            signal=draw.signal,
            interference=interference,
            noise=noise,
            frame_start=draw.frame_start,
            tx_frame=draw.tx_frame,
            channel_taps=draw.channel_taps,
            interferers=tuple(realized),
        )
