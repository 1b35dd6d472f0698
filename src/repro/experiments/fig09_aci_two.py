"""Figure 9 — packet success rate vs SIR with two adjacent-channel interferers.

The sender is flanked by interferers on both sides (the dense-WLAN overlap
scenario); twice as many subcarriers are affected, yet CPRecycle's
per-subcarrier interference model keeps most of its gain.  Both interferers
share the scenario's total SIR (the spec layer splits the power 3 dB each),
exactly as the paper counts combined interference power.

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
    sir_range_db: tuple[float, float] = (-32.0, -8.0),
) -> ExperimentSpec:
    """The canonical Figure 9 spec (optionally with a custom MCS/SIR grid)."""
    return ExperimentSpec(
        name="fig9",
        figure="Figure 9",
        title="PSR vs SIR, two adjacent-channel interferers",
        scenario=ScenarioSpec(
            interferers=(
                InterfererSpec(kind="aci", side="upper"),
                InterfererSpec(kind="aci", side="lower"),
            )
        ),
        receivers=(ReceiverSpec("standard"), ReceiverSpec("cprecycle")),
        sweep=SweepSpec(
            axes=(
                SweepAxis("mcs_name", values=tuple(mcs_names)),
                SweepAxis("sir_db", span=sir_range_db),
            )
        ),
        series_label="{mcs} {receiver}",
        notes=("interferers on both sides of the sender; SIR counts their combined power",),
    )
