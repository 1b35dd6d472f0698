"""Live coherence of the serialisable classes and the analysis registry.

Every dataclass in the ``repro`` package that has ``to_dict`` (its own, or
the spec codec's) persists into manifests, artifacts and content hashes
(``stable_key``), so each one must write every field and read it back
unchanged; the specs write their fields in declaration order.  The checks
run on the real classes: the package is walked, every such class needs an
instance below, and a class added without one fails.  The lazy
``_BUILTIN_ANALYSIS_MODULES`` table must name exactly the library's
registered analyses, each with the module that registers it, so a spec
naming an analysis resolves from a fresh interpreter.
"""

import dataclasses
import importlib
import pkgutil

import pytest

import repro
from repro.api import registry
from repro.api.campaign import CampaignExperiment, CampaignSpec, PrecisionSpec
from repro.api.specs import (
    AllocationSpec,
    ChannelSpec,
    DeploymentSpec,
    ExperimentSpec,
    InterfererSpec,
    ReceiverSpec,
    ScenarioSpec,
    SweepAxis,
    SweepSpec,
)
from repro.experiments.results import FigureResult

_CHANNEL = ChannelSpec(kind="exponential", delay_spread_ns=50.0, rician_k_db=3.0)
_INTERFERER = InterfererSpec(
    kind="aci",
    sir_db=-12.0,
    guard_subcarriers=2,
    side="lower",
    n_subcarriers=48,
    mcs_name="16qam-1/2",
    timing_offset=5,
    channel=_CHANNEL,
    edge_window_length=8,
    label="adjacent",
)
_ALLOCATION = AllocationSpec(
    fft_size=128, cp_fraction=0.125, start_bin=2, n_subcarriers=48, n_pilots=2, name="narrow"
)
_SCENARIO = ScenarioSpec(
    mcs_name="16qam-1/2",
    payload_length=60,
    snr_db=25.0,
    sir_db=-6.0,
    allocation=_ALLOCATION,
    interferers=(_INTERFERER,),
    channel=ChannelSpec(kind="static", taps=((1.0, 0.0), (0.1, 0.2))),
    n_preamble_symbols=3,
    pad_symbols=4,
)
_DEPLOYMENT = DeploymentSpec(
    topology="random",
    n_floors=2,
    aps_per_floor=3,
    floor_width_m=60.0,
    floor_depth_m=30.0,
    floor_height_m=3.5,
    tx_power_dbm=17.0,
    placement_jitter_m=1.5,
    reference_loss_db=40.0,
    path_loss_exponent=3.5,
    floor_loss_db=12.0,
    shadowing_sigma_db=4.0,
)
_RECEIVER = ReceiverSpec("cprecycle", n_segments=4, display="CPRecycle-4", options={"mode": "x"})
_AXIS = SweepAxis("snr_db", values=(10.0, 20.0))
_SWEEP = SweepSpec(axes=(_AXIS, SweepAxis("guard_subcarriers", values=(0, 16))))
_PRECISION = PrecisionSpec(
    ci_halfwidth_pct=5.0, confidence=0.9, min_packets=4, max_packets=64, growth=3.0
)
_CAMPAIGN_ENTRY = CampaignExperiment(
    deployment=_DEPLOYMENT, name="network", precision=_PRECISION, n_realizations=2
)

#: One instance per serialisable class, with non-default values wherever the
#: class's validation allows, so a field dropped from ``to_dict`` also
#: breaks the round trip.
INSTANCES = [
    _CHANNEL,
    _ALLOCATION,
    _INTERFERER,
    _SCENARIO,
    _DEPLOYMENT,
    _RECEIVER,
    _AXIS,
    _SWEEP,
    ExperimentSpec(
        name="coherence",
        figure="Figure T",
        title="every field set",
        scenario=_SCENARIO,
        receivers=(ReceiverSpec("standard"), _RECEIVER),
        sweep=_SWEEP,
        series_label="SNR {snr_db:g} dB, {receiver}",
        x_label="Guard band (MHz)",
        x_transform="guard_mhz",
        y_label="PSR (%)",
        notes=("note",),
        n_packets=10,
        payload_length=60,
        seed=7,
    ),
    _PRECISION,
    _CAMPAIGN_ENTRY,
    CampaignSpec(
        name="coherence",
        experiments=(CampaignExperiment(builtin="fig11"), _CAMPAIGN_ENTRY),
        precision=_PRECISION,
        profile="quick",
        n_workers=2,
        seed=7,
        title="every field set",
        notes=("note",),
    ),
    FigureResult(
        "Figure T", "t", "SIR (dB)", [-10.0, 0.0], {"a": [50.0, 100.0]}, y_label="PSR", notes=["n"]
    ),
]

#: The spec instances: every class but ``FigureResult``, whose artifact key
#: order is its own.
SPECS = [item for item in INSTANCES if not isinstance(item, FigureResult)]


def _library_modules():
    return [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]


def _serialisable_classes():
    return {
        value
        for module in _library_modules()
        for value in vars(module).values()
        if isinstance(value, type)
        and dataclasses.is_dataclass(value)
        and value.__module__ == module.__name__
        and hasattr(value, "to_dict")
    }


class TestSerialisableClasses:
    def test_every_class_has_an_instance_here(self):
        covered = sorted(type(item).__qualname__ for item in INSTANCES)
        assert sorted(cls.__qualname__ for cls in _serialisable_classes()) == covered

    @pytest.mark.parametrize("instance", INSTANCES, ids=lambda item: type(item).__name__)
    def test_to_dict_writes_every_field(self, instance):
        written = instance.to_dict()
        missing = [f.name for f in dataclasses.fields(instance) if f.name not in written]
        assert missing == []

    @pytest.mark.parametrize("instance", INSTANCES, ids=lambda item: type(item).__name__)
    def test_round_trips(self, instance):
        cls = type(instance)
        assert cls.from_dict(instance.to_dict()) == instance
        if hasattr(cls, "to_json"):
            assert cls.from_json(instance.to_json()) == instance

    @pytest.mark.parametrize("instance", SPECS, ids=lambda item: type(item).__name__)
    def test_to_dict_writes_fields_in_declaration_order(self, instance):
        names = [f.name for f in dataclasses.fields(instance)]
        if isinstance(instance, (ExperimentSpec, CampaignSpec)):
            names = ["schema_version", *names]
        assert list(instance.to_dict()) == names


class TestAnalysisRegistry:
    def test_builtin_table_matches_registrations(self):
        _library_modules()  # every library registration has now run
        registered = {
            name: runner.__module__
            for name, runner in registry._ANALYSIS_RUNNERS.items()
            if runner.__module__.startswith("repro.")
        }
        assert registry._BUILTIN_ANALYSIS_MODULES == registered
