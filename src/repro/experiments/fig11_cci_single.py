"""Figure 11 — packet success rate vs SIR, single co-channel interferer.

Standard 802.11g allocation, interferer on the same subcarriers with carrier
sensing disabled.  Co-channel interference is harsher than ACI (it is in-band
and hits every subcarrier), the tolerated SIR range is narrower, and
CPRecycle's gain is smaller but still material.

The figure is one declarative :class:`~repro.api.ExperimentSpec`, run as
``run_experiment_spec(build_spec(...), profile, n_workers=...)``.
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
from repro.experiments.config import PAPER_MCS_SET

__all__ = ["build_spec"]


def build_spec(
    mcs_names: tuple[str, ...] = PAPER_MCS_SET,
    sir_range_db: tuple[float, float] = (-5.0, 25.0),
) -> ExperimentSpec:
    """The canonical Figure 11 spec (optionally with a custom MCS/SIR grid)."""
    return ExperimentSpec(
        name="fig11",
        figure="Figure 11",
        title="PSR vs SIR, single co-channel interferer (802.11g)",
        scenario=ScenarioSpec(interferers=(InterfererSpec(kind="cci"),)),
        receivers=(ReceiverSpec("standard"), ReceiverSpec("cprecycle")),
        sweep=SweepSpec(
            axes=(
                SweepAxis("mcs_name", values=tuple(mcs_names)),
                SweepAxis("sir_db", span=sir_range_db),
            )
        ),
        series_label="{mcs} {receiver}",
        notes=(
            "interferer occupies the same 802.11g subcarriers, clear channel assessment off",
        ),
    )
