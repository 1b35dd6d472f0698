"""Declarative experiment API: specs, registries and the execution facade.

Compose arbitrary interference scenarios as data and run them through one
facade — no new figure module required::

    from repro.api import (
        ExperimentSpec, InterfererSpec, ReceiverSpec, ScenarioSpec,
        SweepAxis, SweepSpec, run_experiment_spec,
    )

    spec = ExperimentSpec(
        name="mixed", figure="Custom", title="PSR vs SIR, ACI + CCI mix",
        scenario=ScenarioSpec(
            mcs_name="qpsk-1/2",
            interferers=(
                InterfererSpec(kind="aci", guard_subcarriers=2),
                InterfererSpec(kind="cci", sir_db=10.0),
            ),
        ),
        receivers=(ReceiverSpec("standard"), ReceiverSpec("cprecycle")),
        sweep=SweepSpec(axes=(SweepAxis("sir_db", span=(-30.0, -10.0)),)),
    )
    result = run_experiment_spec(spec)          # -> FigureResult
    text = spec.to_json()                       # serialise; CLI: --spec file.json

Every builtin figure is itself an :class:`ExperimentSpec`
(``repro.experiments.runner.BUILTIN_SPECS``), receivers resolve through the
plugin registry (:func:`repro.api.registry.register_receiver`), and specs
are picklable and content-hashable so the process pool, the persistent
point cache and result artifacts all apply unchanged.
"""

from repro.api.campaign import (
    CAMPAIGN_SCHEMA_VERSION,
    CampaignExperiment,
    CampaignSpec,
    PrecisionSpec,
)
from repro.api.experiment import (
    expand_psr_points,
    run_experiment_spec,
    series_from_outcomes,
    spec_hash,
)
from repro.api.registry import (
    available_analyses,
    available_receivers,
    available_topologies,
    build_receiver,
    register_analysis,
    register_receiver,
    register_topology,
    resolve_analysis,
    resolve_topology,
)
from repro.api.specs import (
    SPEC_SCHEMA_VERSION,
    AllocationSpec,
    ChannelSpec,
    DeploymentSpec,
    ExperimentSpec,
    InterfererSpec,
    ReceiverSpec,
    ScenarioSpec,
    SpecError,
    SweepAxis,
    SweepSpec,
    axis_placeholder,
)

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "SPEC_SCHEMA_VERSION",
    "AllocationSpec",
    "CampaignExperiment",
    "CampaignSpec",
    "ChannelSpec",
    "DeploymentSpec",
    "ExperimentSpec",
    "InterfererSpec",
    "PrecisionSpec",
    "ReceiverSpec",
    "ScenarioSpec",
    "SpecError",
    "SweepAxis",
    "SweepSpec",
    "available_analyses",
    "available_receivers",
    "available_topologies",
    "axis_placeholder",
    "build_receiver",
    "expand_psr_points",
    "series_from_outcomes",
    "register_analysis",
    "register_receiver",
    "register_topology",
    "resolve_analysis",
    "resolve_topology",
    "run_experiment_spec",
    "spec_hash",
]
