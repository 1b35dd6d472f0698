"""Figure 6 — the kernel density interference model.

(a) Effect of the kernel bandwidth on a density estimated from a small sample
    set (over-smoothing vs gaps), reproducing the illustration the paper uses
    to motivate data-driven bandwidth selection.
(b) CDF of the amplitude deviations observed on the data symbols versus the
    CDF predicted by the preamble-trained kernel density model, for ACI at
    SIR -10/-20/-30 dB — showing that the model trained on the preamble
    transfers to the data symbols.

Each SIR value of panel (b) is an independent analysis task dispatched
through the shared sweep-execution layer, so ``--workers`` and the persistent
point cache apply.  Panel (b) is the builtin ``fig6`` experiment:
``run_experiment_spec(build_spec(), profile, n_workers=...)`` runs it through
the registered ``fig6-deviation-cdf`` analysis, which is
:func:`run_deviation_cdf` itself.  Panel (a) is a library function.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.api import ExperimentSpec, register_analysis
from repro.core.config import CPRecycleConfig
from repro.core.interference_model import InterferenceModel
from repro.experiments.config import ExperimentProfile, aci_scenario, default_profile
from repro.experiments.results import FigureResult
from repro.experiments.sweeps import execute_points
from repro.receiver.frontend import FrontEnd
from repro.utils.rng import child_rng

__all__ = ["build_spec", "run_bandwidth_illustration", "run_deviation_cdf"]

_erfc = np.frompyfunc(math.erfc, 1, 1)


def _normal_pdf(x: np.ndarray) -> np.ndarray:
    """Standard normal density, evaluated term for term as ``scipy.stats.norm.pdf`` does."""
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, ``0.5 * erfc(-x / sqrt(2))`` elementwise.

    numpy has no erf, so ``math.erfc`` runs per element; erfc of the negated
    argument keeps full relative precision in the lower tail.
    """
    z = -np.asarray(x, dtype=float) / math.sqrt(2)
    return 0.5 * np.asarray(_erfc(z), dtype=float)


def run_bandwidth_illustration(
    bandwidths: tuple[float, ...] = (1.0, 2.0, 3.0), n_grid: int = 41
) -> FigureResult:
    """Figure 6a: one sample set, three kernel bandwidths."""
    samples = np.array([-6.0, -4.5, -4.0, -1.0, 0.0, 0.5, 1.0, 2.0, 6.0, 7.0, 7.5, 11.0])
    grid = np.linspace(-10.0, 15.0, n_grid)
    series: dict[str, list[float]] = {}
    for bandwidth in bandwidths:
        kernels = _normal_pdf((grid[:, None] - samples[None, :]) / bandwidth)
        density = kernels.mean(axis=1) / bandwidth
        series[f"Bandwidth={bandwidth:g}"] = list(density)
    return FigureResult(
        figure="Figure 6a",
        title="Kernel density estimation with varying bandwidth",
        x_label="Sample value",
        x_values=[round(float(value), 3) for value in grid],
        y_label="Estimated density",
        series=series,
        notes=[f"sample data: {samples.tolist()}"],
    )


@dataclass(frozen=True)
class _DeviationTask:
    """One SIR point of the deviation-CDF analysis (picklable sweep task)."""

    sir_db: float
    payload_length: int
    seed: int
    quantiles: tuple[float, ...]


def _model_cdf(grid: np.ndarray, train_amplitudes: np.ndarray, bandwidths: np.ndarray) -> np.ndarray:
    """Model CDF of the amplitude marginal at ``grid``: the mean of the
    Gaussian kernel CDFs of every training amplitude ``(subcarrier,
    sample)``, each subcarrier with its own bandwidth.

    A grid point's value does not depend on the other grid points passed, so
    rows computed one at a time equal the rows of the full-grid call.
    """
    cdf = _normal_cdf((grid[:, None, None] - train_amplitudes[None]) / bandwidths[None, :, None])
    return cdf.mean(axis=(1, 2))


def _interp_on_demand(quantile: float, cdf_row: Callable[[int], float], grid: np.ndarray) -> float:
    """``np.interp(quantile, cdf, grid)`` for a nondecreasing ``cdf`` whose
    rows ``cdf_row(i)`` are computed on demand.

    Bisection finds the bracket ``j = searchsorted(cdf, quantile, 'right') -
    1`` from about ``log2(len(grid))`` rows; ``np.interp`` on the bracketing
    pair then runs the formula the full call runs on that pair, so the
    result is bit-identical.  Below the first row and at or above the last,
    ``np.interp`` returns the grid's end points, as here.
    """
    last = len(grid) - 1
    if quantile < cdf_row(0):
        return float(grid[0])
    if quantile >= cdf_row(last):
        return float(grid[last])
    low, high = 0, last  # cdf_row(low) <= quantile < cdf_row(high)
    while high - low > 1:
        middle = (low + high) // 2
        if cdf_row(middle) <= quantile:
            low = middle
        else:
            high = middle
    return float(np.interp(quantile, [cdf_row(low), cdf_row(high)], grid[low : high + 1]))


def _deviation_amplitudes(task: _DeviationTask) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One SIR point's data-symbol deviation amplitudes, the model CDF's
    512-point grid, and the preamble-trained model's training amplitudes
    ``(subcarrier, sample)`` and per-subcarrier amplitude bandwidths."""
    config = CPRecycleConfig(model_scope="pooled", max_segments=16)
    scenario = aci_scenario(
        "qpsk-1/2", sir_db=task.sir_db, payload_length=task.payload_length, edge_window_length=0
    )
    rx = scenario.realize(child_rng(task.seed, 6, int(abs(task.sir_db))))
    front = FrontEnd(n_segments=16).process(rx)
    model = InterferenceModel.from_front_end(front, config)

    deviations = front.data - rx.tx_frame.data_points[None, :, :]
    sample_amplitudes = np.abs(deviations).reshape(-1)
    grid = np.linspace(0.0, float(sample_amplitudes.max()) * 1.2 + 1e-6, 512)
    train_amplitudes = np.abs(model.deviations.reshape(model.n_subcarriers, -1))
    bandwidths = model.kde.bandwidth_amplitude.reshape(model.n_subcarriers, -1).mean(axis=1)
    return sample_amplitudes, grid, train_amplitudes, bandwidths


def _deviation_point(task: _DeviationTask) -> dict[str, list[float]]:
    """Measured and model-predicted deviation amplitudes (dB) at the CDF levels.

    Module-level so it pickles into pool workers; all randomness derives from
    ``task.seed``.  The model CDF is evaluated only at the grid rows the
    quantiles' bisections visit, not on the whole grid.
    """
    sample_amplitudes, grid, train_amplitudes, bandwidths = _deviation_amplitudes(task)

    @functools.cache
    def cdf_row(index: int) -> float:
        return float(_model_cdf(grid[index : index + 1], train_amplitudes, bandwidths)[0])

    measured = [float(np.quantile(sample_amplitudes, q)) for q in task.quantiles]
    predicted = [_interp_on_demand(q, cdf_row, grid) for q in task.quantiles]
    return {
        "samples": [20.0 * float(np.log10(max(v, 1e-6))) for v in measured],
        "model": [20.0 * float(np.log10(max(v, 1e-6))) for v in predicted],
    }


@register_analysis("fig6-deviation-cdf")
def run_deviation_cdf(
    profile: ExperimentProfile | None = None,
    sir_values_db: tuple[float, ...] = (-10.0, -20.0, -30.0),
    quantiles: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9),
    n_workers: int | None = None,
) -> FigureResult:
    """Figure 6b: data-symbol deviation amplitudes vs the preamble-trained model.

    For each SIR the experiment reports the amplitude (in dB) at a set of CDF
    levels, once measured on the data symbols (genie knowledge of the
    transmitted points) and once predicted by the kernel density model trained
    only on the preamble.
    """
    profile = profile or default_profile()
    tasks = [
        _DeviationTask(
            sir_db=sir_db,
            payload_length=profile.payload_length,
            seed=profile.seed,
            quantiles=tuple(quantiles),
        )
        for sir_db in sir_values_db
    ]
    outcomes = execute_points(_deviation_point, tasks, n_workers=n_workers)
    series: dict[str, list[float]] = {}
    for task, outcome in zip(tasks, outcomes):
        series[f"Samples SIR {task.sir_db:g} dB"] = list(outcome["samples"])
        series[f"Model SIR {task.sir_db:g} dB"] = list(outcome["model"])
    return FigureResult(
        figure="Figure 6b",
        title="Amplitude-deviation CDF: data-symbol samples vs preamble-trained KDE",
        x_label="CDF level",
        x_values=list(quantiles),
        y_label="Deviation amplitude (dB)",
        series=series,
    )


def build_spec() -> ExperimentSpec:
    """The canonical Figure 6 spec (the representative deviation CDF)."""
    return ExperimentSpec(
        name="fig6",
        figure="Figure 6b",
        title="Amplitude-deviation CDF: data-symbol samples vs preamble-trained KDE",
        kind="analysis",
        analysis="fig6-deviation-cdf",
        params={
            "sir_values_db": [-10.0, -20.0, -30.0],
            "quantiles": [0.1, 0.25, 0.5, 0.75, 0.9],
        },
    )
