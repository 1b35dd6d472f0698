"""Tests for the declarative spec layer: building, validation, serialisation.

The load-bearing guarantees:

* ``ScenarioSpec.build()``, and the ``aci_scenario``/``cci_scenario``
  factories that build through it, produce scenarios bit-identical to the
  hand-written references of ``scenario_reference`` (same allocations, same
  per-interferer SIR split, same realised waveforms);
* every builtin ``ExperimentSpec`` round-trips ``to_json``/``from_json``
  exactly, resolved and unresolved;
* spec hashes are stable across processes (they key the persistent point
  cache and the result artifacts);
* validation is eager and actionable.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    AllocationSpec,
    CampaignExperiment,
    CampaignSpec,
    ChannelSpec,
    DeploymentSpec,
    ExperimentSpec,
    InterfererSpec,
    ReceiverSpec,
    ScenarioSpec,
    SpecError,
    SweepAxis,
    SweepSpec,
    spec_hash,
)
from repro.channel.multipath import ExponentialMultipathChannel, FlatChannel
from repro.experiments import config as expcfg
from repro.experiments.config import QUICK_PROFILE, ExperimentProfile
from repro.experiments.runner import BUILTIN_SPECS, builtin_spec
from repro.experiments.store import stable_key
from repro.utils.rng import child_rng
from scenario_reference import reference_aci_scenario, reference_cci_scenario

TINY = ExperimentProfile(name="tiny", n_packets=2, payload_length=30, n_sir_points=2)

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _psr_spec(**overrides) -> ExperimentSpec:
    """A small valid psr spec to mutate in validation tests."""
    base = dict(
        name="t",
        figure="T",
        title="t",
        scenario=ScenarioSpec(interferers=(InterfererSpec(kind="aci"),)),
        receivers=(ReceiverSpec("standard"),),
        sweep=SweepSpec(axes=(SweepAxis("sir_db", values=(-20.0, -10.0)),)),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _payload(cls):
    """A valid JSON payload of ``cls`` with every nested spec filled in."""
    spec = _psr_spec(
        scenario=ScenarioSpec(
            interferers=(InterfererSpec(kind="aci"),),
            channel=ChannelSpec(kind="static", taps=((1.0, 0.0),)),
        )
    )
    if cls is ExperimentSpec:
        return spec.to_dict()
    return CampaignSpec(
        name="c",
        experiments=(
            CampaignExperiment(spec=spec),
            CampaignExperiment(deployment=DeploymentSpec(), name="network"),
        ),
    ).to_dict()


#: (payload class, key path, wrong-typed value, the SpecError it must raise).
_WRONG_TYPED_FIELDS = [
    (ExperimentSpec, ("scenario", "channel"), 5,
     "scenario channel must be a JSON object, got int"),
    (ExperimentSpec, ("scenario", "interferers", 0, "channel"), 5,
     "interferers[0] channel must be a JSON object, got int"),
    (ExperimentSpec, ("scenario", "interferers", 0, "channel"), "flat",
     "interferers[0] channel must be a JSON object, got str"),
    (ExperimentSpec, ("scenario", "allocation"), 5,
     "allocation must be a JSON object, got int"),
    (ExperimentSpec, ("scenario", "allocation"), [],
     "allocation must be a JSON object, got list"),
    (ExperimentSpec, ("sweep", "axes"), 5, "sweep axes must be a JSON list, got int"),
    (ExperimentSpec, ("scenario", "interferers"), 5, "interferers must be a JSON list, got int"),
    (ExperimentSpec, ("receivers",), 5, "receivers must be a JSON list, got int"),
    (ExperimentSpec, ("notes",), 5, "experiment spec: 'int' object is not iterable"),
    (ExperimentSpec, ("scenario", "channel", "taps"), 5,
     "scenario channel: 'int' object is not iterable"),
    (ExperimentSpec, ("scenario", "channel", "taps"), [[1]],
     "scenario channel: not enough values to unpack"),
    (ExperimentSpec, ("sweep", "axes", 0, "values"), 5,
     "sweep axes[0]: 'int' object is not iterable"),
    (ExperimentSpec, ("n_packets",), "ten", "experiment spec: '<' not supported"),
    (CampaignSpec, ("experiments",), 5, "experiments must be a JSON list, got int"),
    (CampaignSpec, ("experiments", 0, "spec"), 5,
     "experiment spec must be a JSON object, got int"),
    (CampaignSpec, ("experiments", 0, "spec", "n_packets"), "ten",
     "experiment spec: '<' not supported"),
    (CampaignSpec, ("experiments", 0, "precision"), 5,
     "experiment precision must be a JSON object, got int"),
    (CampaignSpec, ("experiments", 1, "deployment"), 5,
     "deployment must be a JSON object, got int"),
]


class TestChannelSpec:
    def test_flat_default_matches_scenario_default(self):
        assert ChannelSpec().build(20e6) == FlatChannel()

    def test_exponential(self):
        channel = ChannelSpec(kind="exponential", delay_spread_ns=50.0).build(20e6)
        assert isinstance(channel, ExponentialMultipathChannel)
        assert channel.delay_spread_s == pytest.approx(50e-9)

    def test_exponential_requires_delay_spread(self):
        with pytest.raises(SpecError, match="delay_spread_ns"):
            ChannelSpec(kind="exponential")

    def test_static_requires_taps(self):
        with pytest.raises(SpecError, match="taps"):
            ChannelSpec(kind="static")
        taps = ChannelSpec(kind="static", taps=((1.0, 0.0), (0.5, 0.5))).build(20e6)
        assert taps.max_taps == 2

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="kind"):
            ChannelSpec(kind="rayleigh")

    def test_kind_irrelevant_fields_rejected(self):
        with pytest.raises(SpecError, match="flat"):
            ChannelSpec(kind="flat", delay_spread_ns=100.0)
        with pytest.raises(SpecError, match="taps"):
            ChannelSpec(kind="exponential", delay_spread_ns=50.0, taps=((1.0, 0.0),))
        with pytest.raises(SpecError, match="static"):
            ChannelSpec(kind="static", taps=((1.0, 0.0),), delay_spread_ns=50.0)

    def test_interferer_null_channel_reads_as_flat(self):
        payload = InterfererSpec(kind="cci", sir_db=5.0).to_dict()
        payload["channel"] = None
        assert InterfererSpec.from_dict(payload).channel == ChannelSpec()

    def test_wrong_typed_interferer_channel_names_its_path(self):
        # Loaded, the channel is named after the interferer's payload path
        # (see _WRONG_TYPED_FIELDS); constructed directly, after the class.
        with pytest.raises(SpecError, match="^interferer channel must be a JSON object, got int"):
            InterfererSpec(kind="aci", channel=5)
        payload = InterfererSpec(kind="aci").to_dict()
        payload["channel"] = 5
        with pytest.raises(SpecError, match="^interferer channel must be"):
            InterfererSpec.from_dict(payload)
        with pytest.raises(SpecError, match=r"^interferers\[3\] channel must be"):
            InterfererSpec.from_dict(payload, "interferers[3]")


class TestScenarioSpecBuild:
    """Spec-built scenarios, and the factories that build through them,
    realise bit-identically to hand-written reference scenarios."""

    def _assert_same_realization(self, built, reference, seed=(9, 1)):
        assert built.allocation == reference.allocation
        assert built.snr_db == reference.snr_db
        assert built.interferers == reference.interferers
        rx_a = built.realize(child_rng(*seed))
        rx_b = reference.realize(child_rng(*seed))
        assert np.array_equal(rx_a.composite, rx_b.composite)

    def test_aci_single_matches_reference(self):
        spec = ScenarioSpec(
            mcs_name="qpsk-1/2",
            payload_length=30,
            sir_db=-18.0,
            interferers=(InterfererSpec(kind="aci"),),
        )
        self._assert_same_realization(
            spec.build(), reference_aci_scenario("qpsk-1/2", -18.0, payload_length=30)
        )

    def test_aci_two_sided_matches_reference(self):
        spec = ScenarioSpec(
            mcs_name="16qam-1/2",
            payload_length=30,
            sir_db=-15.0,
            interferers=(
                InterfererSpec(kind="aci", side="upper"),
                InterfererSpec(kind="aci", side="lower"),
            ),
        )
        self._assert_same_realization(
            spec.build(),
            reference_aci_scenario("16qam-1/2", -15.0, payload_length=30, two_sided=True),
        )

    def test_cci_two_matches_reference(self):
        spec = ScenarioSpec(
            mcs_name="qpsk-1/2",
            payload_length=30,
            sir_db=8.0,
            interferers=(InterfererSpec(kind="cci"), InterfererSpec(kind="cci")),
        )
        self._assert_same_realization(
            spec.build(),
            reference_cci_scenario("qpsk-1/2", 8.0, payload_length=30, n_interferers=2),
        )

    @pytest.mark.parametrize("mcs_name", ["bpsk-1/2", "qpsk-1/2", "16qam-1/2", "64qam-2/3"])
    @pytest.mark.parametrize(
        "layout",
        [
            {},
            {"guard_subcarriers": 0, "edge_window_length": 0},
            {"guard_subcarriers": 40},
            {"two_sided": True},
            {"two_sided": True, "guard_subcarriers": 0, "edge_window_length": 0, "snr_db": 15.0},
        ],
        ids=["default", "no-guard-no-window", "wide-guard", "two-sided", "two-sided-no-guard"],
    )
    def test_aci_factory_matches_reference(self, mcs_name, layout):
        for sir_db in (-20.0, 7.5):
            self._assert_same_realization(
                expcfg.aci_scenario(mcs_name, sir_db, 20, **layout),
                reference_aci_scenario(mcs_name, sir_db, 20, **layout),
            )

    @pytest.mark.parametrize("mcs_name", ["bpsk-1/2", "qpsk-1/2", "16qam-1/2", "64qam-2/3"])
    @pytest.mark.parametrize("n_interferers", [1, 2])
    def test_cci_factory_matches_reference(self, mcs_name, n_interferers):
        for sir_db, snr_db in ((-10.0, None), (7.5, 15.0)):
            self._assert_same_realization(
                expcfg.cci_scenario(mcs_name, sir_db, 20, n_interferers, snr_db),
                reference_cci_scenario(mcs_name, sir_db, 20, n_interferers, snr_db),
            )

    def test_wide_guard_switches_grid(self):
        spec = ScenarioSpec(
            sir_db=-10.0,
            payload_length=30,
            interferers=(InterfererSpec(kind="aci", guard_subcarriers=64),),
        )
        assert spec.sender_allocation().fft_size == 256
        narrow = ScenarioSpec(
            sir_db=-10.0, payload_length=30, interferers=(InterfererSpec(kind="aci"),)
        )
        assert narrow.sender_allocation().fft_size == 160

    def test_no_interferers_defaults_to_dot11g(self):
        assert ScenarioSpec().sender_allocation().fft_size == 64

    def test_explicit_allocation(self):
        spec = ScenarioSpec(allocation=AllocationSpec(kind="wideband", fft_size=256, start_bin=8))
        allocation = spec.sender_allocation()
        assert allocation.fft_size == 256
        assert int(allocation.occupied_bin_array().min()) == 8

    def test_snr_defaults_to_mcs_operating_point(self):
        assert ScenarioSpec(mcs_name="64qam-2/3").build().snr_db == expcfg.SNR_FOR_MCS["64qam-2/3"]
        assert ScenarioSpec(mcs_name="64qam-2/3", snr_db=12.0).build().snr_db == 12.0

    def test_payload_defaults_to_100_standalone(self):
        assert ScenarioSpec().build().payload_length == 100

    def test_missing_sir_is_actionable(self):
        spec = ScenarioSpec(interferers=(InterfererSpec(kind="aci"),))
        with pytest.raises(SpecError, match="sir_db"):
            spec.build()

    def test_three_shared_interferers_calibrate_to_the_total_sir(self):
        # The n>=3 split must follow 10*log10(n) (the legacy 3.0103*(n-1)
        # formula over-weakens each interferer past two): three equal
        # interferers at total SIR -12 dB each carry -12 + 4.77 dB.
        spec = ScenarioSpec(
            sir_db=-12.0,
            payload_length=30,
            interferers=(
                InterfererSpec(kind="cci"),
                InterfererSpec(kind="cci"),
                InterfererSpec(kind="cci"),
            ),
        )
        scenario = spec.build()
        per_interferer = scenario.interferers[0].sir_db
        assert per_interferer == pytest.approx(-12.0 + 10.0 * np.log10(3.0), abs=1e-4)
        # The realised total SIR matches the requested scenario SIR.
        rx = scenario.realize(child_rng(3, 3))
        assert rx.sir_db == pytest.approx(-12.0, abs=0.05)

    def test_mixed_aci_cci_builds(self):
        spec = ScenarioSpec(
            sir_db=-12.0,
            payload_length=30,
            interferers=(
                InterfererSpec(kind="aci", guard_subcarriers=2),
                InterfererSpec(kind="cci", sir_db=10.0),
            ),
        )
        scenario = spec.build()
        assert len(scenario.interferers) == 2
        # The CCI interferer rides on the (wideband) sender allocation; the
        # pinned interferer keeps its own SIR while the ACI one takes the
        # scenario's total (it is the only sharing interferer).
        assert scenario.interferers[1].allocation == scenario.allocation
        assert scenario.interferers[0].sir_db == -12.0
        assert scenario.interferers[1].sir_db == 10.0


class TestDeploymentSpec:
    """The network-deployment spec: validation, round-trip, hash stability."""

    def test_defaults_describe_the_paper_building(self):
        spec = DeploymentSpec()
        assert spec.topology == "building"
        assert spec.n_access_points == 40
        model = spec.pathloss_model()
        assert model.path_loss_exponent == 3.0
        assert model.floor_loss_db == 15.0

    def test_round_trips_exactly(self):
        spec = DeploymentSpec(
            topology="random",
            n_floors=3,
            aps_per_floor=12,
            floor_width_m=120.0,
            shadowing_sigma_db=4.0,
        )
        assert DeploymentSpec.from_dict(spec.to_dict()) == spec
        assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown field"):
            DeploymentSpec.from_dict({"topology": "grid", "n_aps": 4})

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(topology=""), "topology"),
            (dict(n_floors=0), "n_floors"),
            (dict(aps_per_floor=0), "aps_per_floor"),
            (dict(floor_width_m=0.0), "floor_width_m"),
            (dict(floor_depth_m=-1.0), "floor_depth_m"),
            (dict(placement_jitter_m=-0.5), "placement_jitter_m"),
            (dict(path_loss_exponent=0.0), "path_loss_exponent"),
            (dict(shadowing_sigma_db=-1.0), "shadowing_sigma_db"),
        ],
    )
    def test_eager_validation(self, kwargs, match):
        with pytest.raises(SpecError, match=match):
            DeploymentSpec(**kwargs)

    def test_hash_is_content_stable(self):
        a = DeploymentSpec(topology="grid", n_floors=2)
        b = DeploymentSpec(topology="grid", n_floors=2)
        assert stable_key(a) == stable_key(b)
        assert stable_key(a) != stable_key(DeploymentSpec(topology="grid", n_floors=3))


class TestValidation:
    def test_interferer_kind(self):
        with pytest.raises(SpecError, match="'aci' or 'cci'"):
            InterfererSpec(kind="adjacent")

    def test_interferer_side(self):
        with pytest.raises(SpecError, match="side"):
            InterfererSpec(kind="aci", side="above")

    def test_interferer_mcs(self):
        with pytest.raises(SpecError, match="unknown MCS"):
            InterfererSpec(kind="cci", mcs_name="256qam-7/8")

    def test_negative_guard(self):
        with pytest.raises(SpecError, match="guard_subcarriers"):
            InterfererSpec(kind="aci", guard_subcarriers=-1)

    def test_scenario_mcs(self):
        with pytest.raises(SpecError, match="unknown MCS"):
            ScenarioSpec(mcs_name="qam-1/2")

    def test_axis_needs_values_or_span(self):
        with pytest.raises(SpecError, match="exactly one"):
            SweepAxis("sir_db")
        with pytest.raises(SpecError, match="exactly one"):
            SweepAxis("sir_db", values=(1.0,), span=(0.0, 1.0))

    def test_unknown_axis_field(self):
        with pytest.raises(SpecError, match="unknown sweep axis field"):
            _psr_spec(sweep=SweepSpec(axes=(SweepAxis("bandwidth", values=(1,)),)))

    def test_guard_axis_needs_aci(self):
        with pytest.raises(SpecError, match="ACI"):
            _psr_spec(
                scenario=ScenarioSpec(interferers=(InterfererSpec(kind="cci"),)),
                sweep=SweepSpec(axes=(SweepAxis("guard_subcarriers", values=(0, 4)),)),
            )

    def test_interferer_axis_out_of_range(self):
        with pytest.raises(SpecError, match="out of range"):
            _psr_spec(sweep=SweepSpec(axes=(SweepAxis("interferers[2].sir_db", values=(1.0,)),)))

    def test_interferer_axis_valid(self):
        spec = _psr_spec(
            scenario=ScenarioSpec(
                sir_db=-10.0, interferers=(InterfererSpec(kind="aci"),)
            ),
            sweep=SweepSpec(axes=(SweepAxis("interferers[0].timing_offset", values=(0, 20)),)),
        )
        assert spec.sweep.x_axis.values == (0, 20)

    @pytest.mark.parametrize("n_segments", [0, 2.5, 16.0, True, "16"])
    def test_receiver_segment_count_must_be_a_positive_integer(self, n_segments):
        with pytest.raises(SpecError, match="'cprecycle' n_segments"):
            ReceiverSpec("cprecycle", n_segments=n_segments)

    def test_duplicate_receiver_names(self):
        with pytest.raises(SpecError, match="unique"):
            _psr_spec(receivers=(ReceiverSpec("standard"), ReceiverSpec("standard")))

    def test_bad_series_label(self):
        with pytest.raises(SpecError, match="series_label"):
            _psr_spec(series_label="{guard} {receiver}")

    def test_mcs_placeholder_needs_mcs_axis(self):
        # {mcs} is only provided at runtime when an mcs_name axis exists;
        # eager validation must reject the mismatch before any simulation.
        with pytest.raises(SpecError, match="series_label"):
            _psr_spec(series_label="{mcs} {receiver}")
        spec = _psr_spec(
            series_label="{mcs} {receiver}",
            sweep=SweepSpec(
                axes=(
                    SweepAxis("mcs_name", values=("qpsk-1/2",)),
                    SweepAxis("sir_db", values=(-20.0,)),
                )
            ),
        )
        assert spec.series_label == "{mcs} {receiver}"

    def test_bad_x_transform(self):
        with pytest.raises(SpecError, match="x_transform"):
            _psr_spec(x_transform="ghz")

    def test_bad_engine(self):
        payload = _psr_spec().to_dict()
        for engine in ("reference", "turbo"):
            payload["engine"] = engine
            with pytest.raises(SpecError, match="engine .* test oracle"):
                ExperimentSpec.from_dict(payload)

    def test_legacy_engine_key_of_dumped_specs_is_dropped(self):
        spec = _psr_spec()
        for engine in (None, "fast"):
            assert ExperimentSpec.from_dict({**spec.to_dict(), "engine": engine}) == spec

    def test_name_must_be_a_safe_path_component(self):
        for bad in ("aci/guard", "../evil", ".hidden", "a b"):
            with pytest.raises(SpecError, match="name"):
                _psr_spec(name=bad)

    def test_aci_only_interferer_fields_rejected_on_cci(self):
        with pytest.raises(SpecError, match="only ACI"):
            _psr_spec(
                scenario=ScenarioSpec(interferers=(InterfererSpec(kind="cci"),)),
                sweep=SweepSpec(
                    axes=(SweepAxis("interferers[0].guard_subcarriers", values=(0, 8)),)
                ),
            )

    def test_reserved_analysis_params_rejected(self):
        with pytest.raises(SpecError, match="n_workers"):
            ExperimentSpec(
                name="t",
                figure="T",
                title="t",
                kind="analysis",
                analysis="table1-isi-free",
                params={"n_workers": 4},
            )

    def test_interferer_axis_has_a_formattable_placeholder(self):
        from repro.api import axis_placeholder

        assert axis_placeholder("interferers[0].sir_db") == "interferer0_sir_db"
        assert axis_placeholder("interferers[*].timing_offset") == "interferer_all_timing_offset"
        assert axis_placeholder("sir_db") == "sir_db"
        spec = _psr_spec(
            scenario=ScenarioSpec(interferers=(InterfererSpec(kind="cci"),)),
            sweep=SweepSpec(
                axes=(
                    SweepAxis("interferers[0].sir_db", values=(5.0, 15.0)),
                    SweepAxis("snr_db", values=(20.0, 30.0)),
                )
            ),
            series_label="CCI at {interferer0_sir_db:g} dB, {receiver}",
        )
        assert "interferer0_sir_db" in spec.series_label

    def test_analysis_must_not_carry_psr_fields(self):
        with pytest.raises(SpecError, match="analysis"):
            ExperimentSpec(
                name="t",
                figure="T",
                title="t",
                kind="analysis",
                analysis="fig4-segment-profile",
                scenario=ScenarioSpec(),
            )

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(SpecError, match="duplicate"):
            SweepAxis("sir_db", values=(-10.0, -10.0))

    def test_x_transform_must_match_the_x_axis(self):
        with pytest.raises(SpecError, match="guard_subcarriers"):
            _psr_spec(x_transform="guard_mhz")
        with pytest.raises(SpecError, match="segment_fraction"):
            _psr_spec(x_transform="segment_percent_of_cp")

    def test_segment_percent_transform_rejects_allocation_reshaping_axes(self):
        with pytest.raises(SpecError, match="CP length"):
            _psr_spec(
                x_transform="segment_percent_of_cp",
                series_label="guard {guard_subcarriers}",
                sweep=SweepSpec(
                    axes=(
                        SweepAxis("guard_subcarriers", values=(4, 64)),
                        SweepAxis("segment_fraction", values=(0.1, 1.0)),
                    )
                ),
            )

    def test_json_null_collections_read_as_empty(self):
        payload = _psr_spec().to_dict()
        payload["notes"] = None
        payload["scenario"]["channel"] = None
        spec = ExperimentSpec.from_dict(payload)
        assert spec.notes == ()
        assert spec.scenario.channel == ChannelSpec()
        payload["receivers"] = None
        with pytest.raises(SpecError, match="at least one ReceiverSpec"):
            ExperimentSpec.from_dict(payload)
        payload = _psr_spec().to_dict()
        payload["scenario"]["interferers"] = None
        with pytest.raises(SpecError, match="sir_db"):
            # No interferers left to consume the swept scenario SIR.
            ExperimentSpec.from_dict(payload)

    def test_x_axis_placeholder_rejected_in_series_label(self):
        with pytest.raises(SpecError, match="x-axis"):
            _psr_spec(series_label="SIR {sir_db:g} {receiver}")

    def test_dot11g_allocation_rejects_wideband_geometry(self):
        with pytest.raises(SpecError, match="fixed grid"):
            AllocationSpec(kind="dot11g", fft_size=256)
        assert AllocationSpec(kind="dot11g", name="ap-grid").build().name == "ap-grid"

    def test_span_rejected_on_integer_fields(self):
        for field_name in ("payload_length", "interferers[0].timing_offset"):
            with pytest.raises(SpecError, match="span"):
                _psr_spec(
                    scenario=ScenarioSpec(
                        sir_db=-10.0, interferers=(InterfererSpec(kind="aci"),)
                    ),
                    sweep=SweepSpec(axes=(SweepAxis(field_name, span=(10.0, 40.0)),)),
                )

    def test_outer_axis_must_appear_in_series_label(self):
        with pytest.raises(SpecError, match="outer"):
            _psr_spec(
                sweep=SweepSpec(
                    axes=(
                        SweepAxis("snr_db", values=(20.0, 30.0)),
                        SweepAxis("sir_db", values=(-20.0, -10.0)),
                    )
                ),
                series_label="{receiver}",
            )

    def test_multiple_receivers_need_the_receiver_placeholder(self):
        with pytest.raises(SpecError, match="receiver"):
            _psr_spec(
                receivers=(ReceiverSpec("standard"), ReceiverSpec("cprecycle")),
                series_label="fixed",
            )
        with pytest.raises(SpecError, match="unique"):
            _psr_spec(
                receivers=(
                    ReceiverSpec("standard", display="X"),
                    ReceiverSpec("cprecycle", display="X"),
                ),
                series_label="{receiver}",
            )

    def test_analysis_spec_rejects_pinned_engine(self):
        payload = ExperimentSpec(
            name="t", figure="T", title="t", kind="analysis", analysis="table1-isi-free"
        ).to_dict()
        payload["engine"] = "reference"
        with pytest.raises(SpecError, match="engine"):
            ExperimentSpec.from_dict(payload)

    def test_missing_required_json_field_is_a_spec_error(self):
        payload = _psr_spec().to_dict()
        del payload["title"]
        with pytest.raises(SpecError, match="missing required field.*title"):
            ExperimentSpec.from_dict(payload)
        payload = _psr_spec().to_dict()
        del payload["scenario"]["interferers"][0]["kind"]
        with pytest.raises(SpecError, match="missing required field.*kind"):
            ExperimentSpec.from_dict(payload)

    def test_sir_axis_needs_an_unpinned_interferer(self):
        # All-pinned (or interferer-free) scenarios would simulate every
        # sir_db grid cell identically; reject eagerly.
        with pytest.raises(SpecError, match="pinned"):
            _psr_spec(
                scenario=ScenarioSpec(interferers=(InterfererSpec(kind="cci", sir_db=10.0),))
            )
        with pytest.raises(SpecError, match="pinned"):
            _psr_spec(scenario=ScenarioSpec())

    def test_series_label_probe_uses_representative_values(self):
        # String-typed format specs must validate when the axis carries
        # strings ({mcs_name:s}) and numeric specs when it carries numbers.
        spec = _psr_spec(
            series_label="{mcs_name:s} {receiver}",
            sweep=SweepSpec(
                axes=(
                    SweepAxis("mcs_name", values=("qpsk-1/2",)),
                    SweepAxis("sir_db", values=(-20.0,)),
                )
            ),
        )
        assert spec.series_label == "{mcs_name:s} {receiver}"

    def test_unknown_json_key_rejected(self):
        payload = _psr_spec().to_dict()
        payload["sereis_label"] = "{receiver}"
        with pytest.raises(SpecError, match="sereis_label"):
            ExperimentSpec.from_dict(payload)

    def test_future_schema_version_rejected(self):
        payload = _psr_spec().to_dict()
        payload["schema_version"] = 99
        with pytest.raises(SpecError, match="schema version"):
            ExperimentSpec.from_dict(payload)

    def test_invalid_json_text(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            ExperimentSpec.from_json("{nope")

    @pytest.mark.parametrize(
        "cls, keys, value, message",
        _WRONG_TYPED_FIELDS,
        ids=[f"{'.'.join(map(str, keys))}={value!r}" for _, keys, value, _ in _WRONG_TYPED_FIELDS],
    )
    def test_wrong_typed_field_fails_at_load_naming_its_path(self, cls, keys, value, message):
        payload = _payload(cls)
        parent = payload
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        with pytest.raises(SpecError, match=re.escape(message)):
            cls.from_dict(payload)


class TestRoundTrip:
    """to_json/from_json round-trips every builtin spec exactly."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
    def test_builtin_round_trips(self, name):
        spec = builtin_spec(name)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
    def test_resolved_builtin_round_trips(self, name):
        resolved = builtin_spec(name).resolve(QUICK_PROFILE)
        assert ExperimentSpec.from_json(resolved.to_json()) == resolved

    @pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
    def test_resolve_is_idempotent(self, name):
        resolved = builtin_spec(name).resolve(QUICK_PROFILE)
        assert resolved.resolve(QUICK_PROFILE) == resolved

    def test_resolved_spec_is_self_contained(self):
        resolved = builtin_spec("fig8").resolve(TINY)
        assert resolved.n_packets == TINY.n_packets
        assert resolved.scenario.payload_length == TINY.payload_length
        assert resolved.seed == TINY.seed
        for axis in resolved.sweep.axes:
            assert axis.values is not None

    def test_custom_spec_with_channels_round_trips(self):
        spec = _psr_spec(
            scenario=ScenarioSpec(
                channel=ChannelSpec(kind="exponential", delay_spread_ns=50.0),
                interferers=(
                    InterfererSpec(
                        kind="aci",
                        channel=ChannelSpec(kind="static", taps=((1.0, 0.0), (0.2, -0.1))),
                    ),
                ),
                allocation=AllocationSpec(kind="wideband", fft_size=256),
            ),
            receivers=(ReceiverSpec("cprecycle", options={"model_scope": "pooled"}),),
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec


class TestSpecHashStability:
    """Spec hashes key the ResultStore artifacts: they must not drift
    between processes (PYTHONHASHSEED, import order, ...)."""

    def _subprocess_hashes(self) -> dict:
        code = (
            "import json\n"
            "from repro.experiments.runner import BUILTIN_SPECS\n"
            "from repro.experiments.config import QUICK_PROFILE\n"
            "from repro.api import spec_hash\n"
            "print(json.dumps({name: spec_hash(build().resolve(QUICK_PROFILE))"
            " for name, build in BUILTIN_SPECS.items()}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        return json.loads(out.stdout)

    def test_hashes_stable_across_processes(self):
        local = {
            name: spec_hash(build().resolve(QUICK_PROFILE))
            for name, build in BUILTIN_SPECS.items()
        }
        assert self._subprocess_hashes() == local

    def test_hash_depends_on_content(self):
        a = builtin_spec("fig8").resolve(QUICK_PROFILE)
        b = builtin_spec("fig8").resolve(TINY)
        assert spec_hash(a) != spec_hash(b)
        assert stable_key(a) == stable_key(builtin_spec("fig8").resolve(QUICK_PROFILE))
