"""Figure 13 — network-level benefit: fewer interfering neighbours per AP.

The paper surveys a five-floor office building with 40 access points and
counts, for every AP, how many other APs are heard above the interference
threshold.  Because CPRecycle tolerates roughly 15 dB more co-channel
interference (Fig. 11), the effective threshold rises by that amount and the
CDF of neighbour counts shifts sharply left.  We reproduce the analysis on a
synthetic deployment with the same size and an indoor path-loss model (see
DESIGN.md for the substitution), in two modes:

* **threshold** (the default, ``fig13``) — the paper's shortcut: an AP is a
  neighbour when its RSS exceeds a detection threshold, and CPRecycle's
  benefit enters as a fixed :data:`CPRECYCLE_TOLERANCE_GAIN_DB` shift of
  that threshold.  Fast (no link simulation) and faithful to the paper's
  own methodology.
* **simulated** (``fig13 --mode simulated`` / ``fig13-simulated``) — the
  closed-loop variant: every AP pair becomes a per-link co-channel
  :class:`~repro.api.ScenarioSpec` (dominant-interferer SIR derived from
  the pairwise RSS matrix, shared SNR) simulated through the sweep layer
  (:mod:`repro.network.links`), and a neighbour is a link whose *simulated*
  packet success rate falls below a cutoff — no hard-coded gain anywhere.
  The deployment itself is declarative (:class:`~repro.api.DeploymentSpec`:
  building, regular-grid or uniform-random topologies), and notes report a
  greedy-colouring channel-capacity estimate from the PSR-weighted conflict
  graph.

Either mode runs as ``run_experiment_spec(build_spec(mode), profile,
n_workers=...)``.  Each Monte-Carlo realization (and, in simulated mode,
each unique per-link scenario) is one task on the shared sweep-execution
layer, so ``--workers`` fans work across the process pool and the
persistent point cache applies.
Placement jitter and shadowing consume independent child RNG streams per
(seed, realization) pair — an earlier revision derived them from
``seed + realization``, which aliased realization ``r`` of seed ``s`` with
realization ``r - 1`` of seed ``s + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import DeploymentSpec, ExperimentSpec, register_analysis
from repro.experiments.config import ExperimentProfile, default_profile
from repro.experiments.results import FigureResult
from repro.experiments.sweeps import execute_points
from repro.network.building import OfficeBuilding
from repro.network.links import (
    DEFAULT_CUTOFF_PERCENT,
    DEFAULT_SIGNAL_DBM,
    SimulatedNeighborAnalysis,
    _require_cutoff,
    channel_capacity_estimate,
    effective_neighbor_counts,
    psr_conflict_graph,
    simulate_link_matrices,
)
from repro.network.neighbors import DEFAULT_THRESHOLD_DBM, NeighborAnalysis, count_interfering_neighbors
from repro.utils.rng import child_rng

__all__ = [
    "build_spec",
    "run_analyses",
    "run_simulated_analyses",
    "realization_rngs",
    "CPRECYCLE_TOLERANCE_GAIN_DB",
]

#: Additional co-channel interference (dB) CPRecycle tolerates without extra
#: packet loss — the paper derives 15 dB from Fig. 11.  Only the threshold
#: mode consumes this constant; the simulated mode measures the benefit from
#: per-link packet success rates instead.
CPRECYCLE_TOLERANCE_GAIN_DB = 15.0

#: Display labels shared by both modes.
_RECEIVER_LABELS = {"standard": "Standard Receiver", "cprecycle": "CPRecycle"}


def realization_rngs(
    seed: int, realization: int
) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent (placement-jitter, shadowing) generators for one realization.

    Streams are keyed on ``(seed, 13, realization, component)`` so that
    distinct profile seeds never share a realization stream — deriving them
    from ``seed + realization`` would make realization ``r`` of seed ``s``
    bit-identical to realization ``r - 1`` of seed ``s + 1``.
    """
    return (
        child_rng(seed, 13, realization, 0),
        child_rng(seed, 13, realization, 1),
    )


def _resolve_deployment(deployment) -> object:
    """Accept a deployment as spec, payload dict or ready-built object."""
    if deployment is None:
        return OfficeBuilding()
    if isinstance(deployment, dict):
        return DeploymentSpec.from_dict(deployment).build()
    if isinstance(deployment, DeploymentSpec):
        return deployment.build()
    if hasattr(deployment, "deploy") and hasattr(deployment, "pairwise_rss_dbm"):
        return deployment
    raise TypeError(
        "deployment must be a DeploymentSpec, its dict payload or a built "
        f"Deployment, got {type(deployment).__name__}"
    )


def _require_realizations(n_realizations: int) -> None:
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")


# --------------------------------------------------------------------------- #
# Threshold mode (the paper's methodology)                                    #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _RealizationTask:
    """One Monte-Carlo deployment realization (picklable sweep task)."""

    building: object
    seed: int
    realization: int
    threshold_dbm: float
    tolerance_gain_db: float


def _count_realization(task: _RealizationTask) -> dict[str, list[int]]:
    """Interfering-neighbour counts of one realization, per receiver.

    Module-level so it pickles into pool workers; placement and shadowing
    derive from independent child streams of the realization's seed.
    """
    deploy_rng, shadowing_rng = realization_rngs(task.seed, task.realization)
    access_points = task.building.deploy(deploy_rng)
    rss = task.building.pairwise_rss_dbm(access_points, shadowing_rng)
    return {
        "standard": [int(c) for c in count_interfering_neighbors(rss, task.threshold_dbm)],
        "cprecycle": [
            int(c)
            for c in count_interfering_neighbors(
                rss, task.threshold_dbm + task.tolerance_gain_db
            )
        ],
    }


def run_analyses(
    profile: ExperimentProfile | None = None,
    building: object | None = None,
    threshold_dbm: float = DEFAULT_THRESHOLD_DBM,
    tolerance_gain_db: float = CPRECYCLE_TOLERANCE_GAIN_DB,
    n_realizations: int = 10,
    n_workers: int | None = None,
) -> dict[str, NeighborAnalysis]:
    """Neighbour-count analysis for the standard and CPRecycle receivers."""
    _require_realizations(n_realizations)
    profile = profile or default_profile()
    building = _resolve_deployment(building)
    tasks = [
        _RealizationTask(
            building=building,
            seed=profile.seed,
            realization=realization,
            threshold_dbm=threshold_dbm,
            tolerance_gain_db=tolerance_gain_db,
        )
        for realization in range(n_realizations)
    ]
    outcomes = execute_points(_count_realization, tasks, n_workers=n_workers)
    standard_counts = [np.asarray(outcome["standard"]) for outcome in outcomes]
    cprecycle_counts = [np.asarray(outcome["cprecycle"]) for outcome in outcomes]
    return {
        "standard": NeighborAnalysis(
            label=_RECEIVER_LABELS["standard"],
            threshold_dbm=threshold_dbm,
            counts=np.concatenate(standard_counts),
        ),
        "cprecycle": NeighborAnalysis(
            label=_RECEIVER_LABELS["cprecycle"],
            threshold_dbm=threshold_dbm + tolerance_gain_db,
            counts=np.concatenate(cprecycle_counts),
        ),
    }


def _cdf_series(analyses: dict) -> tuple[list[int], dict[str, list[float]]]:
    """Shared CDF assembly: support and per-receiver CDF values."""
    max_count = int(max(analysis.counts.max() for analysis in analyses.values()))
    support = list(range(max_count + 1))
    series = {}
    for analysis in analyses.values():
        cdf = [(analysis.counts <= value).mean() for value in support]
        series[analysis.label] = [float(value) for value in cdf]
    return support, series


@register_analysis("fig13-neighbor-cdf")
def _neighbor_cdf_analysis(
    profile: ExperimentProfile,
    n_workers: int | None = None,
    threshold_dbm: float = DEFAULT_THRESHOLD_DBM,
    tolerance_gain_db: float = CPRECYCLE_TOLERANCE_GAIN_DB,
    n_realizations: int = 10,
    deployment: dict | None = None,
) -> FigureResult:
    """Registered analysis runner behind the threshold-mode Figure 13 spec."""
    analyses = run_analyses(
        profile,
        building=deployment,
        threshold_dbm=threshold_dbm,
        tolerance_gain_db=tolerance_gain_db,
        n_realizations=n_realizations,
        n_workers=n_workers,
    )
    support, series = _cdf_series(analyses)
    return FigureResult(
        figure="Figure 13",
        title="CDF of interfering neighbours per access point (synthetic office deployment)",
        x_label="Number of Interfering Neighbors",
        x_values=support,
        y_label="CDF",
        series=series,
        notes=[
            f"CPRecycle threshold raised by {tolerance_gain_db:g} dB (from Fig. 11)",
            f"80th percentile neighbours: standard={analyses['standard'].percentile80:.0f}, "
            f"cprecycle={analyses['cprecycle'].percentile80:.0f}",
        ],
    )


# --------------------------------------------------------------------------- #
# Simulated mode (per-link scenarios through the sweep layer)                 #
# --------------------------------------------------------------------------- #
def run_simulated_analyses(
    profile: ExperimentProfile | None = None,
    deployment: DeploymentSpec | dict | None = None,
    *,
    mcs_name: str = "qpsk-1/2",
    signal_dbm: float = DEFAULT_SIGNAL_DBM,
    cutoff_percent: float = DEFAULT_CUTOFF_PERCENT,
    n_realizations: int = 3,
    sir_quantize_db: float = 0.5,
    n_workers: int | None = None,
) -> dict[str, SimulatedNeighborAnalysis]:
    """Effective-neighbour analysis from per-link simulated packet success.

    For every Monte-Carlo realization the deployment is placed and shadowed
    with the same independent RNG streams as the threshold mode, every AP
    pair becomes a co-channel link scenario, and neighbours/conflicts are
    read off the simulated PSR matrices (see :mod:`repro.network.links`).
    """
    _require_realizations(n_realizations)
    _require_cutoff(cutoff_percent)  # before the simulation, not after it
    profile = profile or default_profile()
    built = _resolve_deployment(deployment)
    # Deploy and shadow every realization up front (cheap), then push all
    # their link scenarios through ONE sweep: unique quantized SIRs are
    # shared across realizations, the process pool spawns once, and the
    # point cache sees one coherent batch.
    rss_matrices = []
    for realization in range(n_realizations):
        deploy_rng, shadowing_rng = realization_rngs(profile.seed, realization)
        access_points = built.deploy(deploy_rng)
        rss_matrices.append(built.pairwise_rss_dbm(access_points, shadowing_rng))
    simulations = simulate_link_matrices(
        rss_matrices,
        n_packets=profile.n_packets,
        seed=profile.seed,
        signal_dbm=signal_dbm,
        mcs_name=mcs_name,
        payload_length=profile.payload_length,
        sir_quantize_db=sir_quantize_db,
        n_workers=n_workers,
    )
    counts: dict[str, list[np.ndarray]] = {"standard": [], "cprecycle": []}
    channels: dict[str, list[int]] = {"standard": [], "cprecycle": []}
    for simulation in simulations:
        for name in counts:
            psr = simulation.psr_percent[name]
            counts[name].append(effective_neighbor_counts(psr, cutoff_percent))
            channels[name].append(
                channel_capacity_estimate(psr_conflict_graph(psr, cutoff_percent))
            )
    return {
        name: SimulatedNeighborAnalysis(
            label=_RECEIVER_LABELS[name],
            cutoff_percent=cutoff_percent,
            counts=np.concatenate(counts[name]),
            channel_estimates=tuple(channels[name]),
        )
        for name in counts
    }


@register_analysis("fig13-neighbor-cdf-simulated")
def _simulated_neighbor_cdf_analysis(
    profile: ExperimentProfile,
    n_workers: int | None = None,
    deployment: dict | None = None,
    mcs_name: str = "qpsk-1/2",
    signal_dbm: float = DEFAULT_SIGNAL_DBM,
    cutoff_percent: float = DEFAULT_CUTOFF_PERCENT,
    n_realizations: int = 3,
    sir_quantize_db: float = 0.5,
) -> FigureResult:
    """Registered analysis runner behind the simulated-mode Figure 13 spec."""
    analyses = run_simulated_analyses(
        profile,
        deployment,
        mcs_name=mcs_name,
        signal_dbm=signal_dbm,
        cutoff_percent=cutoff_percent,
        n_realizations=n_realizations,
        sir_quantize_db=sir_quantize_db,
        n_workers=n_workers,
    )
    support, series = _cdf_series(analyses)
    return FigureResult(
        figure="Figure 13",
        title="CDF of effective interfering neighbours per AP (simulated links)",
        x_label="Number of Interfering Neighbors",
        x_values=support,
        y_label="CDF",
        series=series,
        notes=[
            f"neighbour = link whose simulated PSR falls below {cutoff_percent:g}% "
            f"({mcs_name} links, desired signal {signal_dbm:g} dBm)",
            f"80th percentile neighbours: standard={analyses['standard'].percentile80:.0f}, "
            f"cprecycle={analyses['cprecycle'].percentile80:.0f}",
            "greedy-colouring channel estimate: "
            f"standard={analyses['standard'].mean_channels:.1f}, "
            f"cprecycle={analyses['cprecycle'].mean_channels:.1f}",
        ],
    )


# --------------------------------------------------------------------------- #
# Specs                                                                       #
# --------------------------------------------------------------------------- #
def build_spec(mode: str = "threshold") -> ExperimentSpec:
    """The canonical Figure 13 spec, in either neighbour-count mode."""
    if mode == "threshold":
        return ExperimentSpec(
            name="fig13",
            figure="Figure 13",
            title="CDF of interfering neighbours per access point (synthetic office deployment)",
            kind="analysis",
            analysis="fig13-neighbor-cdf",
            params={
                "threshold_dbm": DEFAULT_THRESHOLD_DBM,
                "tolerance_gain_db": CPRECYCLE_TOLERANCE_GAIN_DB,
                "n_realizations": 10,
            },
        )
    if mode == "simulated":
        return ExperimentSpec(
            name="fig13-simulated",
            figure="Figure 13",
            title="CDF of effective interfering neighbours per AP (simulated links)",
            kind="analysis",
            analysis="fig13-neighbor-cdf-simulated",
            params={
                "deployment": DeploymentSpec().to_dict(),
                "mcs_name": "qpsk-1/2",
                "signal_dbm": DEFAULT_SIGNAL_DBM,
                "cutoff_percent": DEFAULT_CUTOFF_PERCENT,
                "n_realizations": 3,
                "sir_quantize_db": 0.5,
            },
        )
    raise ValueError(f"unknown fig13 mode {mode!r}; use 'threshold' or 'simulated'")
