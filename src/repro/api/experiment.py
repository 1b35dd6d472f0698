"""Execution engine for declarative experiment specs.

:func:`run_experiment_spec` is the single facade every experiment goes
through — the eleven builtin figures and any user-authored spec alike:

* ``kind="psr"`` expands the sweep grid (outer axes x inner x-axis, row
  major), applies each axis value to the scenario template (or to the
  receiver set, for the segment-budget axes), and dispatches one
  :class:`repro.experiments.sweeps.SweepPoint` per grid cell through the
  shared execution layer — the process pool and the persistent point cache
  apply exactly as they always have.  Series are
  assembled per (outer-axes combination x receiver) and named by the
  spec's ``series_label`` template.
* ``kind="analysis"`` resolves a registered analysis runner
  (:func:`analysis_runner`), binds the spec's ``params`` to its signature
  before anything runs, and forwards them.

:func:`spec_hash` is the short content hash of a resolved spec that keys
result artifacts (:meth:`repro.experiments.store.ResultStore.save`).
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
from dataclasses import replace
from typing import Any

from repro.api.registry import AnalysisRunner, build_receiver, resolve_analysis
from repro.api.specs import (
    ExperimentSpec,
    ReceiverSpec,
    ScenarioSpec,
    SpecError,
    _INTERFERER_AXIS,
    axis_placeholder,
)
from repro.experiments.results import FigureResult
from repro.experiments.store import stable_key
from repro.experiments.sweeps import SweepPoint, execute_points, run_sweep_point
from repro.phy.subcarriers import OfdmAllocation

__all__ = [
    "analysis_runner",
    "check_receivers",
    "expand_psr_points",
    "run_experiment_spec",
    "series_from_outcomes",
    "spec_hash",
]


def spec_hash(spec: ExperimentSpec) -> str:
    """Short (12 hex digit) content hash of a spec, stable across processes."""
    return stable_key(spec)[:12]


def _pretty_mcs(mcs_name: str) -> str:
    """Figure-legend MCS text: ``qpsk-1/2`` -> ``QPSK (1/2)``."""
    modulation, rate = mcs_name.split("-")
    return f"{modulation.upper()} ({rate})"


def _segments_for_fraction(fraction: float, cp_length: int) -> int:
    """Receiver segment budget for a cyclic-prefix fraction (>= 1 segment).

    Shared by the ``segment_fraction`` axis and the ``segment_percent_of_cp``
    x-transform so the plotted percentages always describe the budgets that
    were actually simulated.
    """
    return max(1, int(round(float(fraction) * cp_length)))


def _apply_axis(
    scenario: ScenarioSpec,
    receivers: tuple[ReceiverSpec, ...],
    field: str,
    value: Any,
) -> tuple[ScenarioSpec, tuple[ReceiverSpec, ...]]:
    """One grid cell's perturbation of the scenario template / receiver set."""
    if field == "guard_subcarriers":
        # The guard band applies to every ACI interferer (and, through the
        # derived sender layout, to the grid geometry).
        interferers = tuple(
            replace(spec, guard_subcarriers=int(value)) if spec.kind == "aci" else spec
            for spec in scenario.interferers
        )
        return replace(scenario, interferers=interferers), receivers
    if field == "segment_fraction":
        n_segments = _segments_for_fraction(value, scenario.sender_allocation().cp_length)
        return scenario, tuple(replace(spec, n_segments=n_segments) for spec in receivers)
    if field == "n_segments":
        return scenario, tuple(replace(spec, n_segments=int(value)) for spec in receivers)
    match = _INTERFERER_AXIS.fullmatch(field)
    if match is not None:
        index, attr = match.groups()
        interferers = list(scenario.interferers)
        targets = range(len(interferers)) if index == "*" else (int(index),)
        for i in targets:
            interferers[i] = replace(interferers[i], **{attr: value})
        return replace(scenario, interferers=tuple(interferers)), receivers
    return replace(scenario, **{field: value}), receivers


def _x_values(spec: ExperimentSpec) -> list[Any]:
    """The figure's x values, after the optional display transform."""
    assert spec.sweep is not None and spec.scenario is not None  # psr-validated
    values = spec.sweep.x_axis.values
    assert values is not None  # the spec is resolved: spans are materialised
    if spec.x_transform is None:
        return list(values)
    allocation = spec.scenario.sender_allocation()
    if spec.x_transform == "guard_mhz":
        return [round(value * allocation.subcarrier_spacing_hz / 1e6, 3) for value in values]
    # segment_percent_of_cp: fractions -> segment counts -> % of the CP.
    cp_length = allocation.cp_length
    return [
        round(100.0 * _segments_for_fraction(value, cp_length) / cp_length, 1)
        for value in values
    ]


def expand_psr_points(spec: ExperimentSpec) -> tuple[list[SweepPoint], list[dict[str, Any]]]:
    """Expand a *resolved* psr spec's grid into sweep points plus label contexts.

    Row-major over the sweep axes (outer axes first), exactly the execution
    order of :func:`run_experiment_spec`.  The campaign scheduler uses the
    same expansion so a figure's grid cells are identical — and therefore
    dedupe — whether they run standalone or inside a campaign.
    """
    assert spec.sweep is not None and spec.scenario is not None  # psr-validated
    assert spec.n_packets is not None and spec.seed is not None  # resolved
    axes = spec.sweep.axes
    fields = [axis.field for axis in axes]
    grids: list[tuple[Any, ...]] = []
    for axis in axes:
        assert axis.values is not None  # the spec is resolved: spans materialised
        grids.append(axis.values)
    points: list[SweepPoint] = []
    contexts: list[dict[str, Any]] = []
    for combo in itertools.product(*grids):
        scenario, receivers = spec.scenario, spec.receivers
        for field, value in zip(fields, combo):
            scenario, receivers = _apply_axis(scenario, receivers, field, value)
        points.append(
            SweepPoint(
                scenario=scenario,
                receivers=receivers,
                n_packets=spec.n_packets,
                seed=spec.seed,
            )
        )
        contexts.append(
            {axis_placeholder(field): value for field, value in zip(fields, combo)}
        )
    return points, contexts


def check_receivers(points: list[SweepPoint]) -> None:
    """Build every distinct receiver of ``points`` once, against its sender
    allocation, before anything is dispatched.

    A segment count or option the receiver rejects then fails here as a
    :class:`SpecError` naming the receiver and its options, instead of in
    every worker after the retries.
    """
    allocations: dict[str, OfdmAllocation] = {}
    built: set[tuple[str, str]] = set()
    for point in points:
        # The sender allocation is a function of these two fields alone.
        geometry = repr((point.scenario.allocation, point.scenario.interferers))
        if geometry not in allocations:
            allocations[geometry] = point.scenario.sender_allocation()
        for receiver in point.receivers:
            if (repr(receiver), geometry) in built:
                continue
            built.add((repr(receiver), geometry))
            try:
                build_receiver(receiver, allocations[geometry])
            except SpecError:
                raise
            except ValueError as error:
                raise SpecError(
                    f"receiver {receiver.name!r} with options {receiver.options}: {error}"
                ) from error


def series_from_outcomes(
    spec: ExperimentSpec,
    contexts: list[dict[str, Any]],
    outcomes: list[dict[str, float]],
) -> FigureResult:
    """Assemble the :class:`FigureResult` from per-point receiver outcomes.

    ``outcomes[i]`` maps receiver name to the y value of grid cell ``i`` (in
    :func:`expand_psr_points` order); series fan out per (outer-axes combo x
    receiver) and are named by the spec's ``series_label``.
    """
    series: dict[str, list[float]] = {}
    for context, outcome in zip(contexts, outcomes):
        label_context = dict(context)
        if "mcs_name" in label_context:
            label_context["mcs"] = _pretty_mcs(label_context["mcs_name"])
        for receiver in spec.receivers:
            label = spec.series_label.format(**label_context, receiver=receiver.label)
            series.setdefault(label, []).append(outcome[receiver.name])

    x_values = _x_values(spec)
    for label, values in series.items():
        if len(values) != len(x_values):
            raise SpecError(
                f"series {label!r} collected {len(values)} points for {len(x_values)} x "
                "values; distinct series must not share a label — include an axis "
                "placeholder (or receiver display) in series_label"
            )
    return FigureResult(
        figure=spec.figure,
        title=spec.title,
        x_label=spec.x_label,
        x_values=x_values,
        series=series,
        y_label=spec.y_label,
        notes=list(spec.notes),
    )


def analysis_runner(spec: ExperimentSpec) -> AnalysisRunner:
    """The registered runner of an analysis spec, its ``params`` checked.

    The params are bound against the runner's signature, so a misspelled
    key raises a :class:`SpecError` naming the analysis and the keys before
    anything is simulated, as :func:`~repro.api.registry.build_receiver`
    does for receiver options.
    """
    assert spec.analysis is not None  # analysis-validated
    runner = resolve_analysis(spec.analysis)
    params = spec.params or {}
    try:
        inspect.signature(runner).bind(None, n_workers=None, **params)
    except TypeError as error:
        raise SpecError(
            f"analysis {spec.analysis!r} rejected params {sorted(params)}: {error}"
        ) from error
    return runner


def run_experiment_spec(
    spec: ExperimentSpec,
    profile: Any = None,
    n_workers: int | None = None,
) -> FigureResult:
    """Run one :class:`ExperimentSpec` and return its :class:`FigureResult`.

    ``profile`` fills the spec's unresolved execution-scale fields
    (default: :func:`repro.experiments.config.default_profile`).
    """
    from repro.experiments.config import default_profile

    profile = profile if profile is not None else default_profile()
    spec = spec.resolve(profile)

    if spec.kind == "analysis":
        # Analyses draw their execution scale from the profile; fold the
        # spec's resolved fields back in so an edited dumped spec (seed,
        # payload, packet count) actually takes effect.
        if dataclasses.is_dataclass(profile) and not isinstance(profile, type):
            profile = dataclasses.replace(
                profile,
                n_packets=spec.n_packets,
                payload_length=spec.payload_length,
                seed=spec.seed,
            )
        runner = analysis_runner(spec)
        result: FigureResult = runner(profile, n_workers=n_workers, **(spec.params or {}))
        return result

    points, contexts = expand_psr_points(spec)
    check_receivers(points)
    outcomes = execute_points(run_sweep_point, points, n_workers=n_workers)
    return series_from_outcomes(spec, contexts, outcomes)
