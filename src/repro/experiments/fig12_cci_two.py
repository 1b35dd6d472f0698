"""Figure 12 — packet success rate vs SIR with two co-channel interferers.

Both interferers share the sender's channel and split the interference power
(the spec layer's shared-SIR rule); the number of affected subcarriers does
not grow (unlike the two-interferer ACI case), so the curves change little
relative to Figure 11 — which is exactly the paper's observation.

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
    """The canonical Figure 12 spec (optionally with a custom MCS/SIR grid)."""
    return ExperimentSpec(
        name="fig12",
        figure="Figure 12",
        title="PSR vs SIR, two co-channel interferers (802.11g)",
        scenario=ScenarioSpec(
            interferers=(InterfererSpec(kind="cci"), InterfererSpec(kind="cci"))
        ),
        receivers=(ReceiverSpec("standard"), ReceiverSpec("cprecycle")),
        sweep=SweepSpec(
            axes=(
                SweepAxis("mcs_name", values=tuple(mcs_names)),
                SweepAxis("sir_db", span=sir_range_db),
            )
        ),
        series_label="{mcs} {receiver}",
        notes=("two equal-power co-channel interferers; SIR counts their combined power",),
    )
