"""Plugin registries for receivers, analysis runners and network topologies.

The receiver registry replaces the per-figure receiver wiring: every
experiment resolves its receivers by name through
:func:`build_receiver`, and downstream users add their own receiver
algorithms with :func:`register_receiver` — no experiment-module edits
required::

    from repro.api import ReceiverSpec
    from repro.api.registry import register_receiver

    @register_receiver("mmse")
    def _build_mmse(allocation, n_segments, **options):
        return MyMmseReceiver(n_taps=n_segments, **options)

    build_receiver(ReceiverSpec(name="mmse"), allocation)

A registered builder is called as ``builder(allocation, n_segments,
**options)`` where ``n_segments`` is the receiver's FFT-segment budget
(every ISI-free cyclic-prefix sample when the spec leaves it ``None``) and
``options`` are the spec's extra keyword arguments.

The analysis registry plays the same role for the paper's non-PSR figures
(4, 6, 13, Table 1): an ``ExperimentSpec(kind="analysis")`` names its
runner, and :func:`resolve_analysis` imports the builtin module on demand
so a spec loaded from JSON in a fresh process still resolves.

The topology registry resolves :class:`repro.api.DeploymentSpec` placement
rules into runnable :class:`repro.network.building.Deployment` objects
(builtins: ``building``, ``grid``, ``random``); register additional network
layouts with :func:`register_topology`::

    @register_topology("ring")
    def _build_ring(spec):
        return MyRingDeployment(n_aps=spec.n_access_points, ...)
"""

from __future__ import annotations

import importlib
import inspect
from collections.abc import Callable
from typing import Any

from repro.api.specs import DeploymentSpec, ReceiverSpec, SpecError
from repro.core.config import CPRecycleConfig
from repro.core.naive import NaiveSegmentReceiver
from repro.core.oracle import OracleSegmentReceiver
from repro.core.receiver import CPRecycleReceiver
from repro.network.building import Deployment, OfficeBuilding, UniformRandomDeployment
from repro.phy.subcarriers import OfdmAllocation
from repro.receiver.base import OfdmReceiverBase
from repro.receiver.standard import StandardOfdmReceiver

__all__ = [
    "register_receiver",
    "available_receivers",
    "build_receiver",
    "register_analysis",
    "available_analyses",
    "resolve_analysis",
    "register_topology",
    "available_topologies",
    "resolve_topology",
]

#: A receiver builder: ``builder(allocation, n_segments, **options)``.
ReceiverBuilder = Callable[..., OfdmReceiverBase]

#: An analysis runner: ``runner(profile, n_workers=..., **params)`` returning
#: a :class:`repro.experiments.results.FigureResult`.
AnalysisRunner = Callable[..., Any]

#: A topology builder: ``builder(spec)`` returning a Deployment.
TopologyBuilder = Callable[[DeploymentSpec], Deployment]

# repro-lint: disable=RPR008 -- write-once at import time: populated only by
# register_receiver decorators during module import, before any pool exists;
# workers re-run the same imports and rebuild an identical table.
_RECEIVER_BUILDERS: dict[str, ReceiverBuilder] = {}


def register_receiver(
    name: str, *, overwrite: bool = False
) -> Callable[[ReceiverBuilder], ReceiverBuilder]:
    """Register a receiver builder under ``name`` (decorator).

    The builder is called as ``builder(allocation, n_segments, **options)``
    and must return an :class:`repro.receiver.base.OfdmReceiverBase`.
    Re-registering an existing name raises unless ``overwrite=True``.
    """

    def decorator(builder: ReceiverBuilder) -> ReceiverBuilder:
        if not overwrite and name in _RECEIVER_BUILDERS:
            raise ValueError(
                f"receiver {name!r} is already registered; pass overwrite=True to replace it"
            )
        _RECEIVER_BUILDERS[name] = builder
        return builder

    return decorator


def available_receivers() -> list[str]:
    """Names of all registered receivers."""
    return sorted(_RECEIVER_BUILDERS)


def build_receiver(spec: ReceiverSpec, allocation: OfdmAllocation) -> OfdmReceiverBase:
    """Construct the receiver a :class:`ReceiverSpec` describes."""
    builder = _RECEIVER_BUILDERS.get(spec.name)
    if builder is None:
        raise SpecError(
            f"unknown receiver {spec.name!r}; registered: {available_receivers()} "
            "(add your own with repro.api.registry.register_receiver)"
        )
    n_segments = allocation.cp_length if spec.n_segments is None else spec.n_segments
    options = dict(spec.options or {})
    # Check the options against the builder's signature up front; builders
    # that forward **options (the builtins) can still raise TypeError on an
    # unknown key inside, which reads as a spec problem only when options
    # were actually given — a TypeError out of an option-less build is the
    # plugin bug it looks like and propagates untouched.
    try:
        inspect.signature(builder).bind(allocation, n_segments, **options)
    except TypeError as error:
        if options:
            raise SpecError(
                f"receiver {spec.name!r} rejected options {sorted(options)}: {error}"
            ) from error
        raise SpecError(
            f"the builder registered for receiver {spec.name!r} does not accept the "
            f"(allocation, n_segments) call signature: {error}"
        ) from error
    try:
        return builder(allocation, n_segments, **options)
    except TypeError as error:
        if options:
            raise SpecError(
                f"receiver {spec.name!r} rejected options {sorted(options)}: {error}"
            ) from error
        raise


# --------------------------------------------------------------------------- #
# Builtin receivers (the paper's receiver set)                                #
# --------------------------------------------------------------------------- #
@register_receiver("standard")
def _build_standard(allocation: OfdmAllocation, n_segments: int, **options: Any) -> OfdmReceiverBase:
    return StandardOfdmReceiver(**options)


@register_receiver("naive")
def _build_naive(allocation: OfdmAllocation, n_segments: int, **options: Any) -> OfdmReceiverBase:
    return NaiveSegmentReceiver(max_segments=n_segments, **options)


@register_receiver("oracle")
def _build_oracle(allocation: OfdmAllocation, n_segments: int, **options: Any) -> OfdmReceiverBase:
    return OracleSegmentReceiver(max_segments=n_segments, **options)


@register_receiver("cprecycle")
def _build_cprecycle(allocation: OfdmAllocation, n_segments: int, **options: Any) -> OfdmReceiverBase:
    return CPRecycleReceiver(CPRecycleConfig(max_segments=n_segments, **options))


# --------------------------------------------------------------------------- #
# Analysis runners (the non-PSR figures)                                      #
# --------------------------------------------------------------------------- #
# repro-lint: disable=RPR008 -- write-once at import time: populated only by
# register_analysis decorators during module import (eager or via the lazy
# builtin table); workers re-run the same imports and rebuild an identical table.
_ANALYSIS_RUNNERS: dict[str, AnalysisRunner] = {}

#: Builtin analysis names -> defining module, imported lazily so a spec
#: loaded from JSON resolves without the caller importing figure modules.
_BUILTIN_ANALYSIS_MODULES: dict[str, str] = {
    "fig4-segment-profile": "repro.experiments.fig04_segments",
    "fig6-deviation-cdf": "repro.experiments.fig06_kde",
    "fig13-neighbor-cdf": "repro.experiments.fig13_network",
    "fig13-neighbor-cdf-simulated": "repro.experiments.fig13_network",
    "table1-isi-free": "repro.experiments.table01_cp",
}


def register_analysis(
    name: str, *, overwrite: bool = False
) -> Callable[[AnalysisRunner], AnalysisRunner]:
    """Register an analysis runner under ``name`` (decorator).

    The runner is called as ``runner(profile, n_workers=..., **params)``
    with the spec's ``params`` and must return a
    :class:`repro.experiments.results.FigureResult`.
    """

    def decorator(runner: AnalysisRunner) -> AnalysisRunner:
        if not overwrite and name in _ANALYSIS_RUNNERS:
            raise ValueError(
                f"analysis {name!r} is already registered; pass overwrite=True to replace it"
            )
        _ANALYSIS_RUNNERS[name] = runner
        return runner

    return decorator


def available_analyses() -> list[str]:
    """Names of all registered (or builtin importable) analysis runners."""
    return sorted(set(_ANALYSIS_RUNNERS) | set(_BUILTIN_ANALYSIS_MODULES))


def resolve_analysis(name: str) -> AnalysisRunner:
    """Look up an analysis runner, importing its builtin module if needed."""
    if name not in _ANALYSIS_RUNNERS and name in _BUILTIN_ANALYSIS_MODULES:
        importlib.import_module(_BUILTIN_ANALYSIS_MODULES[name])
    runner = _ANALYSIS_RUNNERS.get(name)
    if runner is None:
        raise SpecError(
            f"unknown analysis {name!r}; available: {available_analyses()} "
            "(add your own with repro.api.registry.register_analysis)"
        )
    return runner


# --------------------------------------------------------------------------- #
# Network topologies (the Fig. 13 deployment layouts)                         #
# --------------------------------------------------------------------------- #
# repro-lint: disable=RPR008 -- write-once at import time: populated only by
# register_topology decorators during module import, before any pool exists;
# workers re-run the same imports and rebuild an identical table.
_TOPOLOGY_BUILDERS: dict[str, TopologyBuilder] = {}


def register_topology(
    name: str, *, overwrite: bool = False
) -> Callable[[TopologyBuilder], TopologyBuilder]:
    """Register a deployment-topology builder under ``name`` (decorator).

    The builder is called as ``builder(spec)`` with the
    :class:`~repro.api.specs.DeploymentSpec` and must return a
    :class:`repro.network.building.Deployment` (anything with ``deploy`` /
    ``pairwise_rss_dbm`` / ``n_access_points``).  Re-registering an existing
    name raises unless ``overwrite=True``.
    """

    def decorator(builder: TopologyBuilder) -> TopologyBuilder:
        if not overwrite and name in _TOPOLOGY_BUILDERS:
            raise ValueError(
                f"topology {name!r} is already registered; pass overwrite=True to replace it"
            )
        _TOPOLOGY_BUILDERS[name] = builder
        return builder

    return decorator


def available_topologies() -> list[str]:
    """Names of all registered deployment topologies."""
    return sorted(_TOPOLOGY_BUILDERS)


def resolve_topology(name: str) -> TopologyBuilder:
    """Look up a topology builder by name."""
    builder = _TOPOLOGY_BUILDERS.get(name)
    if builder is None:
        raise SpecError(
            f"unknown topology {name!r}; registered: {available_topologies()} "
            "(add your own with repro.api.registry.register_topology)"
        )
    return builder


def _deployment_geometry(spec: DeploymentSpec) -> dict[str, Any]:
    return dict(
        n_floors=spec.n_floors,
        aps_per_floor=spec.aps_per_floor,
        floor_width_m=spec.floor_width_m,
        floor_depth_m=spec.floor_depth_m,
        floor_height_m=spec.floor_height_m,
        tx_power_dbm=spec.tx_power_dbm,
        pathloss=spec.pathloss_model(),
    )


@register_topology("building")
def _build_building_topology(spec: DeploymentSpec) -> Deployment:
    jitter = 3.0 if spec.placement_jitter_m is None else spec.placement_jitter_m
    return OfficeBuilding(placement_jitter_m=jitter, **_deployment_geometry(spec))


@register_topology("grid")
def _build_grid_topology(spec: DeploymentSpec) -> Deployment:
    jitter = 0.0 if spec.placement_jitter_m is None else spec.placement_jitter_m
    return OfficeBuilding(placement_jitter_m=jitter, **_deployment_geometry(spec))


@register_topology("random")
def _build_random_topology(spec: DeploymentSpec) -> Deployment:
    if spec.placement_jitter_m is not None:
        raise SpecError(
            "the 'random' topology draws uniform positions; placement_jitter_m "
            "does not apply (leave it null)"
        )
    return UniformRandomDeployment(**_deployment_geometry(spec))
