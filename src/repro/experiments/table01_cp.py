"""Table 1 — cyclic prefix provisioning across 802.11 standards.

The table is static standards data (:func:`repro.standards.dot11.table1_rows`);
the accompanying analysis quantifies the over-provisioning argument of
section 2.2: how many cyclic prefix samples are left untouched by a typical
indoor delay spread, i.e. how many FFT segments CPRecycle has to work with on
each channel width.  Each standard's row is one (trivially cheap) task on the
shared sweep-execution layer, so the analysis honours the same ``--workers``
and caching knobs as every other experiment.  The analysis is the builtin
``table1`` experiment: ``run_experiment_spec(build_spec(), profile,
n_workers=...)`` runs it through the registered ``table1-isi-free``
analysis, which is :func:`run_isi_free_analysis` itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import ExperimentSpec, register_analysis
from repro.experiments.config import ExperimentProfile
from repro.experiments.results import FigureResult
from repro.experiments.sweeps import execute_points
from repro.standards.dot11 import DOT11_CP_TABLE, CyclicPrefixSpec, isi_free_samples

__all__ = ["build_spec", "run_isi_free_analysis"]


@dataclass(frozen=True)
class _SpecTask:
    """ISI-free analysis of one standard/bandwidth row (picklable sweep task)."""

    spec: CyclicPrefixSpec
    delay_spread_us: float


def _isi_free_point(task: _SpecTask) -> dict[str, float]:
    spec = task.spec
    return {
        "total": float(spec.cp_size),
        "free": float(isi_free_samples(spec, task.delay_spread_us)),
    }


def build_spec() -> ExperimentSpec:
    """The canonical Table 1 spec (the ISI-free over-provisioning analysis)."""
    return ExperimentSpec(
        name="table1",
        figure="Table 1 (analysis)",
        title="ISI-free cyclic prefix samples across 802.11 standards",
        kind="analysis",
        analysis="table1-isi-free",
        params={"delay_spread_us": 0.1},
    )


@register_analysis("table1-isi-free")
def run_isi_free_analysis(
    profile: ExperimentProfile | None = None,
    delay_spread_us: float = 0.1,
    n_workers: int | None = None,
) -> FigureResult:
    """ISI-free cyclic prefix samples per standard for a given delay spread.

    Reproduces the observation that the number of usable FFT segments grows
    with channel width because the delay spread does not.  ``profile`` is
    unused (the table is static standards data); it is the first argument
    every registered analysis takes.
    """
    tasks = [_SpecTask(spec=spec, delay_spread_us=delay_spread_us) for spec in DOT11_CP_TABLE]
    outcomes = execute_points(_isi_free_point, tasks, n_workers=n_workers)
    labels = [f"{spec.standard} {spec.bandwidth_mhz:g}MHz" for spec in DOT11_CP_TABLE]
    return FigureResult(
        figure="Table 1 (analysis)",
        title=f"ISI-free cyclic prefix samples for a {delay_spread_us:g} us delay spread",
        x_label="Standard / bandwidth",
        x_values=labels,
        y_label="Cyclic prefix samples",
        series={
            "CP samples": [outcome["total"] for outcome in outcomes],
            "ISI-free samples (P)": [outcome["free"] for outcome in outcomes],
        },
    )
