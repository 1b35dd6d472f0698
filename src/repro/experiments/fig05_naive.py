"""Figure 5 — why a naive multi-segment decoder is not enough.

Packet success rate versus guard band for the standard receiver, the Oracle
(genie segment selection) and the naive average-distance decoder (Eq. 3),
with a single adjacent-channel interferer, QPSK 3/4, at SIR -10/-20/-30 dB.
The paper's point: at -10 dB the naive decoder matches the Oracle, but at
-20/-30 dB it collapses because outlier segments destroy the arithmetic mean.

Each panel is one declarative :class:`~repro.api.ExperimentSpec`: the three
receivers are registry-resolved :class:`~repro.api.ReceiverSpec` entries
with a 16-segment budget, and each guard-band value is one sweep point on
the shared execution layer, so ``--workers`` and the persistent point
cache apply.  The builtin ``fig5`` experiment is the -20 dB panel; run any
panel with ``run_experiment_spec(build_spec(sir_db=-30.0), profile,
n_workers=...)``.
"""

from __future__ import annotations

from repro.api import (
    ExperimentSpec,
    InterfererSpec,
    ReceiverSpec,
    ScenarioSpec,
    SweepAxis,
    SweepSpec,
)

__all__ = ["build_spec", "GUARD_BAND_SUBCARRIERS"]

#: Guard-band sweep in subcarriers (0 to 20 MHz at 312.5 kHz spacing).
GUARD_BAND_SUBCARRIERS: tuple[int, ...] = (0, 8, 16, 32, 64)

MCS_NAME = "qpsk-3/4"
N_SEGMENTS = 16


def build_spec(
    sir_db: float = -20.0,
    guard_band_subcarriers: tuple[int, ...] = GUARD_BAND_SUBCARRIERS,
) -> ExperimentSpec:
    """One panel of Figure 5 (a single SIR value) as a spec."""
    return ExperimentSpec(
        name="fig5",
        figure="Figure 5",
        title=f"Packet success rate vs guard band (naive decoder), SIR {sir_db:g} dB, {MCS_NAME}",
        scenario=ScenarioSpec(
            mcs_name=MCS_NAME,
            sir_db=sir_db,
            interferers=(InterfererSpec(kind="aci", edge_window_length=0),),
        ),
        receivers=(
            ReceiverSpec("standard", n_segments=N_SEGMENTS, display="Standard OFDM Receiver"),
            ReceiverSpec("oracle", n_segments=N_SEGMENTS, display="Oracle Scheme"),
            ReceiverSpec("naive", n_segments=N_SEGMENTS, display="Naive Decoder"),
        ),
        sweep=SweepSpec(
            axes=(SweepAxis("guard_subcarriers", values=tuple(guard_band_subcarriers)),)
        ),
        series_label="{receiver}",
        x_label="Guard band (MHz)",
        x_transform="guard_mhz",
        notes=("single adjacent-channel interferer with rectangular symbol edges",),
    )
