"""Interference source modelling.

An interferer is another OFDM transmitter that keeps sending back-to-back
symbols while the sender's frame is on the air.  Two configurations cover the
paper's evaluation scenarios:

* **Adjacent-channel interference (ACI)** — the interferer occupies a block of
  subcarriers next to the sender's block (optionally separated by a guard
  band) on the same wideband grid, and its symbol clock is offset by more
  than the cyclic prefix.  Because its symbol boundaries fall inside the
  receiver's FFT window, its energy leaks across the whole band; how much
  leaks into each of the sender's subcarriers depends strongly on which FFT
  segment the receiver uses — the effect CPRecycle exploits.
* **Co-channel interference (CCI)** — the interferer occupies the *same*
  subcarriers as the sender (a hidden terminal or a femtocell in the paper's
  discussion), again with an arbitrary symbol-clock offset.

The interferer's transmit power is calibrated from a target SIR measured at
the receiver against the post-channel desired-signal power.  A realisation
is two steps: :func:`draw_interference` makes every random draw (timing
offset, symbol stream, channel taps), none of which depends on the SIR, and
:func:`scale_interference` scales the drawn component to the SIR.  Scenarios
that differ only in their SIRs therefore share one draw per packet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.multipath import ChannelModel, FlatChannel, apply_channel
from repro.phy.subcarriers import OfdmAllocation, adjacent_block_allocation
from repro.phy.transmitter import OfdmTransmitter
from repro.utils.dsp import db_to_linear, signal_power
from repro.utils.rng import ensure_rng

__all__ = [
    "InterfererDraw",
    "InterfererSpec",
    "RealizedInterference",
    "adjacent_channel_interferer",
    "co_channel_interferer",
    "draw_interference",
    "scale_interference",
]


@dataclass(frozen=True)
class InterfererSpec:
    """Configuration of one interfering transmitter.

    Attributes
    ----------
    allocation:
        The interferer's subcarrier allocation on the common grid.  It must
        share the grid size and sample rate of the sender's allocation.
    sir_db:
        Signal-to-interference ratio at the receiver contributed by this
        interferer alone: desired-signal power divided by this interferer's
        power, in dB.  Negative values mean the interference is stronger than
        the signal (the paper sweeps down to -40 dB).
    mcs_name:
        Modulation/coding the interferer uses for its own traffic (affects
        only the statistics of the interfering constellation).
    timing_offset:
        Offset, in samples, of the interferer's symbol boundaries relative to
        the sender's.  ``None`` draws a uniform offset larger than the cyclic
        prefix, reproducing the paper's "temporal offset greater than the CP"
        setup.  An offset of 0 makes the interferer symbol-aligned (and hence
        orthogonal for ACI) — useful as an ablation.
    channel:
        Propagation channel between the interferer and the receiver.
    edge_window_length:
        Raised-cosine taper length (samples) applied to the interferer's
        symbol transitions.  0 models a raw rectangular-edged baseband (worst
        case splatter); a few samples model the spectral shaping present in
        real transmit chains.
    label:
        Name used in reports.
    """

    allocation: OfdmAllocation
    sir_db: float
    mcs_name: str = "qpsk-1/2"
    timing_offset: int | None = None
    channel: ChannelModel = field(default_factory=FlatChannel)
    edge_window_length: int = 0
    label: str = "interferer"


@dataclass(frozen=True)
class RealizedInterference:
    """One realisation of an interferer over a receive buffer."""

    spec: InterfererSpec
    component: np.ndarray = field(repr=False)
    timing_offset: int
    channel_taps: np.ndarray = field(repr=False)

    @property
    def power(self) -> float:
        """Mean power of the interference component."""
        return signal_power(self.component)


@dataclass(frozen=True)
class InterfererDraw:
    """The random draws of one interferer over a receive buffer, before scaling.

    ``stream`` is the component at the interferer's transmit level and
    ``power`` its mean power; :func:`scale_interference` scales it to an
    SIR.  The arrays are read-only, because every scenario that differs
    only in SIRs shares them.
    """

    stream: np.ndarray = field(repr=False)
    power: float
    timing_offset: int
    channel_taps: np.ndarray = field(repr=False)


# --------------------------------------------------------------------------- #
# Convenience constructors for the two paper scenarios                        #
# --------------------------------------------------------------------------- #
def adjacent_channel_interferer(
    sender: OfdmAllocation,
    sir_db: float,
    guard_subcarriers: int = 4,
    n_subcarriers: int = 64,
    side: str = "upper",
    mcs_name: str = "qpsk-1/2",
    timing_offset: int | None = None,
    channel: ChannelModel | None = None,
    edge_window_length: int = 0,
    label: str | None = None,
) -> InterfererSpec:
    """An interferer on the adjacent block of subcarriers.

    ``side`` selects whether the block sits above ("upper") or below ("lower")
    the sender's allocation; ``guard_subcarriers`` empty bins separate the two
    blocks (the paper's guard band, swept in Fig. 5 and Fig. 10).
    """
    if guard_subcarriers < 0:
        raise ValueError("guard_subcarriers must be non-negative")
    occupied = sender.occupied_bin_array()
    if side == "upper":
        start = int(occupied.max()) + 1 + guard_subcarriers
    elif side == "lower":
        start = int(occupied.min()) - guard_subcarriers - n_subcarriers
        if start < 0:
            raise ValueError(
                "the lower adjacent block does not fit below the sender's allocation; "
                "use a wider grid or a smaller guard band"
            )
    else:
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    allocation = adjacent_block_allocation(
        fft_size=sender.fft_size,
        cp_length=sender.cp_length,
        start_bin=start,
        n_subcarriers=n_subcarriers,
        n_pilots=0,
        name=f"aci-{side}",
        subcarrier_spacing_hz=sender.subcarrier_spacing_hz,
    )
    return InterfererSpec(
        allocation=allocation,
        sir_db=sir_db,
        mcs_name=mcs_name,
        timing_offset=timing_offset,
        channel=channel if channel is not None else FlatChannel(),
        edge_window_length=edge_window_length,
        label=label or f"aci-{side}",
    )


def co_channel_interferer(
    sender: OfdmAllocation,
    sir_db: float,
    mcs_name: str = "qpsk-1/2",
    timing_offset: int | None = None,
    channel: ChannelModel | None = None,
    edge_window_length: int = 0,
    label: str = "cci",
) -> InterfererSpec:
    """An interferer occupying the same subcarriers as the sender."""
    return InterfererSpec(
        allocation=sender,
        sir_db=sir_db,
        mcs_name=mcs_name,
        timing_offset=timing_offset,
        channel=channel if channel is not None else FlatChannel(),
        edge_window_length=edge_window_length,
        label=label,
    )


# --------------------------------------------------------------------------- #
# Realisation                                                                 #
# --------------------------------------------------------------------------- #
def draw_interference(
    spec: InterfererSpec,
    n_samples: int,
    frame_start: int,
    rng: int | np.random.Generator | None = None,
) -> InterfererDraw:
    """Make the random draws of one interferer over a receive buffer.

    ``n_samples`` is the length of the receive buffer the interference must
    cover, and ``frame_start`` the buffer index of the sender's frame start:
    the timing offset is defined relative to the sender's symbol
    boundaries.  None of the draws depends on the SIR;
    :func:`scale_interference` scales the drawn component to it.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    rng = ensure_rng(rng)
    allocation = spec.allocation
    symbol_length = allocation.symbol_length

    offset = spec.timing_offset
    if offset is None:
        # "Temporal offset greater than the duration of the cyclic prefix."
        offset = int(rng.integers(allocation.cp_length + 1, allocation.fft_size))
    offset = int(offset) % symbol_length

    transmitter = OfdmTransmitter(
        allocation, mcs_name=spec.mcs_name, edge_window_length=spec.edge_window_length
    )
    n_symbols = int(np.ceil(n_samples / symbol_length)) + 3
    stream = transmitter.symbol_stream(n_symbols, rng)

    taps = spec.channel.sample_taps(rng)
    stream = apply_channel(stream, taps)

    # Slice the continuous stream so that its symbol boundaries land at buffer
    # indices congruent to (frame_start + offset) modulo the symbol length.
    start_in_stream = (symbol_length - (frame_start + offset) % symbol_length) % symbol_length
    component = stream[start_in_stream : start_in_stream + n_samples]
    if component.size < n_samples:  # pragma: no cover - defensive, stream is oversized
        component = np.pad(component, (0, n_samples - component.size))
    component.flags.writeable = False
    taps.flags.writeable = False
    return InterfererDraw(
        stream=component,
        power=signal_power(component),
        timing_offset=offset,
        channel_taps=taps,
    )


def scale_interference(
    spec: InterfererSpec, draw: InterfererDraw, reference_power: float
) -> RealizedInterference:
    """Scale a drawn interferer so that its SIR against ``reference_power`` is ``spec.sir_db``."""
    if reference_power <= 0:
        raise ValueError("reference_power must be positive")
    target_power = reference_power / db_to_linear(spec.sir_db)
    return RealizedInterference(
        spec=spec,
        component=draw.stream * np.sqrt(target_power / draw.power),
        timing_offset=draw.timing_offset,
        channel_taps=draw.channel_taps,
    )
