"""Packet-level link simulation.

``packet_success_rate`` runs the same sequence of channel/interference
realisations through several receivers and reports each receiver's packet
success rate — the paper's primary metric.

Every packet of a sweep point is realised up front in batches of
:data:`FAST_ENGINE_BATCH` (:meth:`Scenario.realize_batch`), each receiver
demodulates a whole batch through its ``demodulate_batch`` entry point
(CPRecycle pools KDE training and the ML decision across packets and
symbols), and the forward-error-correction stage runs as one vectorised
Viterbi sweep over every receiver's frames.  ``tests/test_fast_path.py``
checks this path against a per-packet, per-symbol oracle: both consume
identical per-packet child RNG streams and reach bit-identical decisions.

``packet_success_rate`` also takes a group of *sibling* scenarios, ones
that differ only in SNR and interferer SIRs (equal
:attr:`Scenario.draw_key`), each with its own receivers.  Packet ``i``
derives from the same child stream in every sibling, so the group draws
each packet once (:meth:`Scenario.draw`), composes it for one sibling at a
time and decodes every sibling's frames in one FEC call.  Each sibling's
:class:`LinkResult` equals the one it gets alone.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import overload

import numpy as np

from repro import obs
from repro.channel.scenario import PacketDraw, Scenario
from repro.receiver.base import OfdmReceiverBase
from repro.receiver.decode_chain import decode_coded_bits_batch

__all__ = [
    "LinkResult",
    "PacketStats",
    "packet_success_rate",
    "psr",
    "symbol_error_rate",
]

#: Packets realised and demodulated together.  Bounds the working set
#: (waveforms, stacked FFT tensors, equalised spectra) at paper-scale packet
#: counts while keeping batches large enough for the pooled KDE/ML decode to
#: amortise; batch boundaries do not change a single sample because every
#: packet derives from its own child RNG stream.
FAST_ENGINE_BATCH = 16


def psr(n_success: int, n_packets: int) -> float:
    """Packet success rate as a fraction, validating the counts.

    A zero packet count has no defined rate and raises (an all-fail run is
    ``0.0``, an all-success run is ``1.0`` — both valid); impossible count
    pairs (negative, or more successes than packets) raise as well instead
    of producing a silently out-of-range rate.
    """
    if n_packets == 0:
        raise ValueError("no packets were simulated")
    if n_packets < 0:
        raise ValueError(f"n_packets must be >= 0, got {n_packets}")
    if not 0 <= n_success <= n_packets:
        raise ValueError(
            f"n_success must be between 0 and n_packets={n_packets}, got {n_success}"
        )
    return n_success / n_packets


@dataclass(frozen=True)
class LinkResult:
    """Packet-decoding statistics of one receiver over one scenario point.

    ``successes`` records the per-packet CRC outcome in packet order; the
    oracle tests compare it packet by packet so that compensating errors
    (one path failing packet A, the other packet B) cannot hide behind
    equal aggregate counts.

    ``first_packet`` is the global index of the first simulated packet —
    packet ``i`` of this result derives every random draw from the child RNG
    stream of global packet ``first_packet + i``, so two results covering
    adjacent index ranges :meth:`merge` losslessly into exactly the result
    one long run over the union would have produced.  The adaptive campaign
    scheduler (:mod:`repro.campaigns`) relies on this to grow a point's
    packet budget in rounds without ever re-simulating a packet.
    """

    receiver: str
    n_packets: int
    n_success: int
    successes: tuple[bool, ...] = ()
    first_packet: int = 0

    def __post_init__(self) -> None:
        if self.n_packets < 0:
            raise ValueError(f"n_packets must be >= 0, got {self.n_packets}")
        if not 0 <= self.n_success <= self.n_packets:
            raise ValueError(
                f"n_success must be between 0 and n_packets={self.n_packets}, "
                f"got {self.n_success}"
            )
        if self.successes and (
            len(self.successes) != self.n_packets
            or sum(self.successes) != self.n_success
        ):
            raise ValueError(
                f"per-packet successes ({len(self.successes)} entries, "
                f"{sum(self.successes)} true) disagree with the counts "
                f"({self.n_success}/{self.n_packets})"
            )

    @property
    def success_rate(self) -> float:
        """Fraction of packets whose CRC verified."""
        return psr(self.n_success, self.n_packets)

    @property
    def success_percent(self) -> float:
        """Packet success rate in percent (the paper's y-axis)."""
        return 100.0 * self.success_rate

    def merge(self, other: "LinkResult") -> "LinkResult":
        """Combine two results over adjacent packet ranges losslessly.

        The ranges must be contiguous (no gap, no overlap) so that the merge
        is exactly the result of one long run over the union — the counts
        sum, and the per-packet outcomes concatenate in global packet order.
        When either side carries only counts (empty ``successes``), the
        merged result is counts-only.
        """
        if self.receiver != other.receiver:
            raise ValueError(
                f"cannot merge results of different receivers "
                f"({self.receiver!r} vs {other.receiver!r})"
            )
        first, second = sorted((self, other), key=lambda result: result.first_packet)
        if first.first_packet + first.n_packets != second.first_packet:
            raise ValueError(
                f"link results cover non-contiguous packet ranges "
                f"[{first.first_packet}, {first.first_packet + first.n_packets}) and "
                f"[{second.first_packet}, {second.first_packet + second.n_packets})"
            )
        successes: tuple[bool, ...] = ()
        if (first.successes or not first.n_packets) and (
            second.successes or not second.n_packets
        ):
            successes = first.successes + second.successes
        return LinkResult(
            receiver=self.receiver,
            n_packets=first.n_packets + second.n_packets,
            n_success=first.n_success + second.n_success,
            successes=successes,
            first_packet=first.first_packet,
        )

    def __add__(self, other: "LinkResult") -> "LinkResult":
        return self.merge(other)


#: Backwards-compatible alias: the result type predates round-merging.
PacketStats = LinkResult


@overload
def packet_success_rate(
    scenario: Scenario,
    receivers: Mapping[str, OfdmReceiverBase],
    n_packets: int,
    seed: int = 0,
    first_packet: int = 0,
) -> dict[str, LinkResult]: ...


@overload
def packet_success_rate(
    scenario: Sequence[Scenario],
    receivers: Sequence[Mapping[str, OfdmReceiverBase]],
    n_packets: int,
    seed: int = 0,
    first_packet: int = 0,
) -> list[dict[str, LinkResult]]: ...


def packet_success_rate(scenario, receivers, n_packets, seed=0, first_packet=0):
    """Packet success rate of each receiver over ``n_packets`` realisations.

    Every receiver decodes exactly the same received waveforms, so the
    comparison isolates the receiver algorithm from the channel draw.

    Packet ``i`` derives all randomness from the child RNG stream of global
    packet index ``first_packet + i``, so splitting a long run into
    consecutive ``first_packet`` windows and merging the
    :class:`LinkResult`s reproduces the long run bit for bit — the counts
    depend only on which packet indices were simulated, never on how they
    were chunked into calls.

    Given a sequence of sibling scenarios (equal :attr:`Scenario.draw_key`)
    and one receiver mapping per scenario, returns one result mapping per
    scenario, each equal to what the scenario gets alone: every packet is
    drawn once and composed for each sibling in turn, and all siblings'
    frames share one FEC call.
    """
    single = isinstance(scenario, Scenario)
    scenarios: list[Scenario] = [scenario] if single else list(scenario)
    receiver_sets: list[Mapping[str, OfdmReceiverBase]] = (
        [receivers] if single else list(receivers)
    )
    if n_packets < 1:
        raise ValueError("n_packets must be at least 1")
    if first_packet < 0:
        raise ValueError(f"first_packet must be >= 0, got {first_packet}")
    if not scenarios or len(scenarios) != len(receiver_sets):
        raise ValueError(
            f"need one receiver mapping per scenario, got {len(receiver_sets)} "
            f"for {len(scenarios)} scenario(s)"
        )
    if not all(receiver_sets):
        raise ValueError("at least one receiver is required")
    key = scenarios[0].draw_key
    if any(member.draw_key != key for member in scenarios[1:]):
        raise ValueError(
            "grouped scenarios must differ only in SNR and interferer SIRs (equal draw_key)"
        )
    spec = scenarios[0].frame_spec
    coded: list[dict[str, list[np.ndarray]]] = [
        {name: [] for name in member} for member in receiver_sets
    ]
    for start in range(0, n_packets, FAST_ENGINE_BATCH):
        count = min(FAST_ENGINE_BATCH, n_packets - start)
        # A lone scenario keeps no draws past its own realisation.
        draws: dict[int, PacketDraw] | None = {} if len(scenarios) > 1 else None
        for member, member_receivers, member_bits in zip(scenarios, receiver_sets, coded):
            with obs.span("engine.realize", n_packets=count):
                rxs = member.realize_batch(
                    count, seed, first_index=first_packet + start, draws=draws
                )
            for name, receiver in member_receivers.items():
                with obs.span("engine.demodulate", receiver=name, n_packets=count):
                    member_bits[name].extend(d.coded_bits for d in receiver.demodulate_batch(rxs))
            # Free this scenario's waveforms before the next one is composed.
            del rxs

    # Every frame shares the frame spec: decode them all in one FEC call and
    # split the CRC outcomes back per scenario and receiver.
    streams = [bits for member_bits in coded for bits in member_bits.values()]
    with obs.span("engine.fec", receivers=len(streams), n_packets=n_packets):
        frames = decode_coded_bits_batch(spec, np.concatenate([np.stack(bits) for bits in streams]))
    results: list[dict[str, LinkResult]] = []
    offset = 0
    for member_bits in coded:
        stats: dict[str, LinkResult] = {}
        for name in member_bits:
            outcomes = frames[offset : offset + n_packets]
            offset += n_packets
            successes = tuple(bool(frame.crc_ok) for frame in outcomes)
            stats[name] = LinkResult(
                receiver=name,
                n_packets=n_packets,
                n_success=sum(successes),
                successes=successes,
                first_packet=first_packet,
            )
        results.append(stats)
    return results[0] if single else results


def symbol_error_rate(
    scenario: Scenario,
    receivers: Mapping[str, OfdmReceiverBase],
    n_packets: int,
    seed: int = 0,
) -> dict[str, float]:
    """Raw (pre-FEC) symbol error rate of each receiver — a diagnostic metric.

    Each waveform is realised once and every receiver demodulates the same
    batch, so adding a receiver never re-draws the channel and the
    per-packet work is shared across the comparison.
    """
    if n_packets < 1:
        raise ValueError("n_packets must be at least 1")
    errors = {name: 0 for name in receivers}
    total = 0
    for start in range(0, n_packets, FAST_ENGINE_BATCH):
        count = min(FAST_ENGINE_BATCH, n_packets - start)
        rxs = scenario.realize_batch(count, seed, first_index=start)
        true_indices = [
            rx.spec.mcs.constellation.nearest_indices(rx.tx_frame.data_points) for rx in rxs
        ]
        total += sum(indices.size for indices in true_indices)
        for name, receiver in receivers.items():
            for demodulated, truth in zip(receiver.demodulate_batch(rxs), true_indices):
                errors[name] += int(np.count_nonzero(demodulated.decisions != truth))
    return {name: errors[name] / total for name in receivers}
