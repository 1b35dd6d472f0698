"""Experiment harness: one module per table/figure of the paper's evaluation."""

from repro.experiments.config import (
    FULL_PROFILE,
    PAPER_MCS_SET,
    QUICK_PROFILE,
    SNR_FOR_MCS,
    ExperimentProfile,
    aci_scenario,
    build_receivers,
    cci_scenario,
    default_profile,
)
from repro.experiments.link import (
    LinkResult,
    packet_success_rate,
    psr,
    symbol_error_rate,
)
from repro.experiments.faults import FaultPlan, InjectedFault
from repro.experiments.parallel import (
    SupervisorStats,
    SweepTaskError,
    parallel_map,
    reset_supervisor_stats,
    resolve_workers,
    supervisor_stats,
)
from repro.experiments.results import FigureResult, format_csv, format_table
from repro.experiments.store import PointCache, ResultStore

__all__ = [
    "ExperimentProfile",
    "FULL_PROFILE",
    "FaultPlan",
    "FigureResult",
    "InjectedFault",
    "LinkResult",
    "PAPER_MCS_SET",
    "QUICK_PROFILE",
    "SNR_FOR_MCS",
    "aci_scenario",
    "build_receivers",
    "cci_scenario",
    "PointCache",
    "ResultStore",
    "default_profile",
    "format_csv",
    "format_table",
    "packet_success_rate",
    "parallel_map",
    "psr",
    "reset_supervisor_stats",
    "resolve_workers",
    "supervisor_stats",
    "SupervisorStats",
    "SweepTaskError",
    "symbol_error_rate",
]
