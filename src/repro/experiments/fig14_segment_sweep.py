"""Figure 14 — effect of the number of FFT segments (computational knob).

Packet success rate of the CPRecycle receiver as the number of FFT segments
is swept from one (equivalent to the standard receiver) to the full cyclic
prefix, for ACI at SIR -10/-20/-30 dB with 16-QAM.  The paper's findings:
benefits saturate once roughly 60 % of the cyclic prefix is used, and at mild
interference 20 % is already enough — so CPRecycle degrades gracefully on
computation-limited devices and in high-delay-spread environments.

The figure is one declarative :class:`~repro.api.ExperimentSpec`, run as
``run_experiment_spec(build_spec(...), profile, n_workers=...)``: the
``segment_fraction`` sweep axis resolves each fraction into the receiver's
segment budget (``max(1, round(fraction * cp_length))``) and the x-axis is
rendered as a percentage of the cyclic prefix via ``x_transform``.  Every
(SIR x fraction) grid cell is an independent sweep point on the shared
execution layer, so ``--workers`` and the persistent point cache apply
exactly as in the SIR-sweep figures.
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

__all__ = ["build_spec"]

MCS_NAME = "16qam-1/2"
#: Fractions of the cyclic prefix used as FFT segments.
SEGMENT_FRACTIONS: tuple[float, ...] = (0.025, 0.2, 0.4, 0.6, 0.8, 1.0)


def build_spec(
    sir_values_db: tuple[float, ...] = (-10.0, -20.0, -30.0),
    segment_fractions: tuple[float, ...] = SEGMENT_FRACTIONS,
) -> ExperimentSpec:
    """The canonical Figure 14 spec (optionally with a custom grid)."""
    return ExperimentSpec(
        name="fig14",
        figure="Figure 14",
        title=f"PSR vs number of FFT segments ({MCS_NAME}, single ACI interferer)",
        scenario=ScenarioSpec(mcs_name=MCS_NAME, interferers=(InterfererSpec(kind="aci"),)),
        receivers=(ReceiverSpec("cprecycle"),),
        sweep=SweepSpec(
            axes=(
                SweepAxis("sir_db", values=tuple(sir_values_db)),
                SweepAxis("segment_fraction", values=tuple(segment_fractions)),
            )
        ),
        series_label="SIR {sir_db:g} dB",
        x_label="Number of FFT Segments (% of CP)",
        x_transform="segment_percent_of_cp",
        notes=("one FFT segment is equivalent to the standard OFDM receiver",),
    )
