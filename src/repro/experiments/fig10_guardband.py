"""Figure 10 — guard band needed next to a legacy OFDM transmitter.

Packet success rate versus guard-band width for 16-QAM at SIR -10/-20/-30 dB,
with and without CPRecycle.  The paper's spectrum-efficiency argument: with
CPRecycle a cognitive user can be packed much closer to a strong incumbent
for the same packet success rate.

The figure is one declarative :class:`~repro.api.ExperimentSpec`, run as
``run_experiment_spec(build_spec(...), profile, n_workers=...)``: the
(SIR x guard-band) grid is two sweep axes, the guard axis doubles as the
x-axis (rendered in MHz via ``x_transform``), and every grid cell runs as an
independent sweep point through the shared execution layer, so
``--workers`` and the persistent point cache apply exactly as in the
SIR-sweep figures.
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

#: Guard-band sweep in subcarriers (0 to 30 MHz at 312.5 kHz spacing).
GUARD_BAND_SUBCARRIERS: tuple[int, ...] = (0, 16, 32, 64, 96)

MCS_NAME = "16qam-1/2"


def build_spec(
    sir_values_db: tuple[float, ...] = (-10.0, -20.0, -30.0),
    guard_band_subcarriers: tuple[int, ...] = GUARD_BAND_SUBCARRIERS,
) -> ExperimentSpec:
    """The canonical Figure 10 spec (optionally with a custom grid)."""
    return ExperimentSpec(
        name="fig10",
        figure="Figure 10",
        title=f"PSR vs guard band with an adjacent legacy transmitter ({MCS_NAME})",
        scenario=ScenarioSpec(mcs_name=MCS_NAME, interferers=(InterfererSpec(kind="aci"),)),
        receivers=(ReceiverSpec("standard"), ReceiverSpec("cprecycle")),
        sweep=SweepSpec(
            axes=(
                SweepAxis("sir_db", values=tuple(sir_values_db)),
                SweepAxis("guard_subcarriers", values=tuple(guard_band_subcarriers)),
            )
        ),
        series_label="SIR {sir_db:g} dB, {receiver}",
        x_label="Guard band (MHz)",
        x_transform="guard_mhz",
    )
