"""Figure 8 — packet success rate vs SIR, single adjacent-channel interferer.

Three MCS modes (QPSK 1/2, 16-QAM 1/2, 64-QAM 2/3), each decoded with and
without CPRecycle.  The paper's headline ACI result: CPRecycle moves every
curve's cliff to substantially lower SIR, enabling communication in regimes
where the standard receiver loses every packet.

The figure is one declarative :class:`~repro.api.ExperimentSpec`, run as
``run_experiment_spec(build_spec(...), profile, n_workers=...)`` — dump it
with ``cprecycle-experiments fig8 --dump-spec`` as a starting point for
custom scenarios.
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
    """The canonical Figure 8 spec (optionally with a custom MCS/SIR grid)."""
    return ExperimentSpec(
        name="fig8",
        figure="Figure 8",
        title="PSR vs SIR, single adjacent-channel interferer",
        scenario=ScenarioSpec(interferers=(InterfererSpec(kind="aci"),)),
        receivers=(ReceiverSpec("standard"), ReceiverSpec("cprecycle")),
        sweep=SweepSpec(
            axes=(
                SweepAxis("mcs_name", values=tuple(mcs_names)),
                SweepAxis("sir_db", span=sir_range_db),
            )
        ),
        series_label="{mcs} {receiver}",
        notes=("interferer on the adjacent subcarrier block, 4-subcarrier guard band",),
    )
