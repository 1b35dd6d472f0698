"""Tests for the spec execution facade, the receiver registry and the CLI.

The bit-identity class reconstructs the pre-refactor execution path from
the primitives it was built on (``aci_scenario``/``cci_scenario`` +
``build_receivers`` + ``packet_success_rate``, or the per-packet link oracle
of ``test_fast_path``) and asserts the spec-driven figures reproduce it
exactly, for any worker count.
"""

import json
from dataclasses import replace

import pytest

from repro.api import (
    CampaignExperiment,
    CampaignSpec,
    ExperimentSpec,
    InterfererSpec,
    ReceiverSpec,
    ScenarioSpec,
    SpecError,
    SweepAxis,
    SweepSpec,
    build_receiver,
    register_receiver,
    resolve_analysis,
    run_experiment_spec,
)
from repro.api import experiment as api_experiment
from repro.campaigns import scheduler as campaign_scheduler
from repro.experiments import config as expcfg
from repro.experiments import (
    fig04_segments,
    fig08_aci_single,
    fig10_guardband,
    fig12_cci_two,
    fig14_segment_sweep,
    runner,
)
from repro.experiments.config import QUICK_PROFILE, ExperimentProfile
from repro.experiments.link import packet_success_rate, psr
from repro.experiments.parallel import resolve_workers
from repro.experiments.results import FigureResult
from repro.experiments.store import ResultStore
from repro.experiments.sweeps import sir_axis
from repro.phy.subcarriers import dot11g_allocation
from repro.receiver.standard import StandardOfdmReceiver
from test_fast_path import oracle_link_run

TINY = ExperimentProfile(name="tiny", n_packets=2, payload_length=30, n_sir_points=2)


def _legacy_point(scenario, receiver_names, profile, n_segments=None, oracle=False):
    """One sweep point exactly as the pre-refactor figure modules ran it.

    ``oracle`` simulates the packets through the per-packet link oracle
    instead of :func:`packet_success_rate`.
    """
    receivers = expcfg.build_receivers(scenario.allocation, receiver_names, n_segments=n_segments)
    if oracle:
        successes, _ = oracle_link_run(scenario, receivers, profile.n_packets, profile.seed)
        return {
            name: 100.0 * psr(sum(successes[name]), profile.n_packets) for name in receiver_names
        }
    stats = packet_success_rate(scenario, receivers, profile.n_packets, seed=profile.seed)
    return {name: stats[name].success_percent for name in receiver_names}


class TestBitIdentity:
    """Spec-driven figures == the hard-coded pre-refactor path."""

    @pytest.mark.parametrize("legacy_link", ["fast", "reference"])
    def test_fig8_matches_legacy_path(self, legacy_link):
        sirs = sir_axis(-24.0, -12.0, TINY.n_sir_points)
        spec = fig08_aci_single.build_spec(mcs_names=("qpsk-1/2",), sir_range_db=(-24.0, -12.0))
        result = run_experiment_spec(spec, TINY)
        for index, sir in enumerate(sirs):
            legacy = _legacy_point(
                expcfg.aci_scenario("qpsk-1/2", sir, payload_length=TINY.payload_length),
                ("standard", "cprecycle"),
                TINY,
                oracle=legacy_link == "reference",
            )
            assert result.series["QPSK (1/2) Without CPRecycle"][index] == legacy["standard"]
            assert result.series["QPSK (1/2) With CPRecycle"][index] == legacy["cprecycle"]

    def test_fig10_matches_legacy_path(self):
        guards = (0, 64)
        spec = fig10_guardband.build_spec(sir_values_db=(-10.0,), guard_band_subcarriers=guards)
        result = run_experiment_spec(spec, TINY)
        for index, guard in enumerate(guards):
            legacy = _legacy_point(
                expcfg.aci_scenario(
                    "16qam-1/2", -10.0, payload_length=TINY.payload_length,
                    guard_subcarriers=guard,
                ),
                ("standard", "cprecycle"),
                TINY,
            )
            assert result.series["SIR -10 dB, With CPRecycle"][index] == legacy["cprecycle"]
            assert result.series["SIR -10 dB, Without CPRecycle"][index] == legacy["standard"]

    def test_fig12_matches_legacy_path(self):
        sirs = sir_axis(5.0, 20.0, TINY.n_sir_points)
        spec = fig12_cci_two.build_spec(mcs_names=("qpsk-1/2",), sir_range_db=(5.0, 20.0))
        result = run_experiment_spec(spec, TINY)
        for index, sir in enumerate(sirs):
            legacy = _legacy_point(
                expcfg.cci_scenario(
                    "qpsk-1/2", sir, payload_length=TINY.payload_length, n_interferers=2
                ),
                ("standard", "cprecycle"),
                TINY,
            )
            assert result.series["QPSK (1/2) With CPRecycle"][index] == legacy["cprecycle"]

    def test_fig14_segment_budget_matches_legacy_path(self):
        spec = fig14_segment_sweep.build_spec(sir_values_db=(-16.0,), segment_fractions=(0.1,))
        result = run_experiment_spec(spec, TINY)
        cp_length = expcfg.aci_scenario(
            "16qam-1/2", -16.0, payload_length=TINY.payload_length
        ).allocation.cp_length
        n_segments = max(1, int(round(0.1 * cp_length)))
        legacy = _legacy_point(
            expcfg.aci_scenario("16qam-1/2", -16.0, payload_length=TINY.payload_length),
            ("cprecycle",),
            TINY,
            n_segments=n_segments,
        )
        assert result.series["SIR -16 dB"][0] == legacy["cprecycle"]

    def test_fig8_workers_invariance(self):
        spec = fig08_aci_single.build_spec(mcs_names=("qpsk-1/2",), sir_range_db=(-20.0, -12.0))
        assert run_experiment_spec(spec, TINY, n_workers=2) == run_experiment_spec(
            spec, TINY, n_workers=1
        )


class TestReceiverRegistry:
    def test_builtin_set(self):
        from repro.api import available_receivers

        assert {"standard", "cprecycle", "naive", "oracle"} <= set(available_receivers())

    def test_unknown_receiver_is_actionable(self):
        with pytest.raises(SpecError, match="register_receiver"):
            build_receiver(ReceiverSpec("mmse"), dot11g_allocation())

    def test_options_reach_the_builder(self):
        receiver = build_receiver(
            ReceiverSpec("cprecycle", n_segments=4, options={"model_scope": "pooled"}),
            dot11g_allocation(),
        )
        assert receiver.config.max_segments == 4
        assert receiver.config.model_scope == "pooled"

    def test_bad_options_are_actionable(self):
        with pytest.raises(SpecError, match="rejected options"):
            build_receiver(
                ReceiverSpec("cprecycle", options={"segment_count": 4}), dot11g_allocation()
            )

    def test_non_finite_options_are_rejected(self):
        spec = ReceiverSpec("cprecycle", options={"min_bandwidth_amplitude": float("nan")})
        with pytest.raises(ValueError, match="min_bandwidth_amplitude"):
            build_receiver(spec, dot11g_allocation())

    def test_optionless_plugin_bug_is_not_blamed_on_options(self):
        @register_receiver("test-buggy", overwrite=True)
        def _build(allocation, n_segments):
            return None + 1  # a genuine plugin bug

        try:
            with pytest.raises(TypeError):
                build_receiver(ReceiverSpec("test-buggy"), dot11g_allocation())
        finally:
            from repro.api import registry

            registry._RECEIVER_BUILDERS.pop("test-buggy", None)

    def test_register_and_duplicate(self):
        @register_receiver("test-passthrough")
        def _build(allocation, n_segments, **options):
            return StandardOfdmReceiver(**options)

        try:
            receiver = build_receiver(ReceiverSpec("test-passthrough"), dot11g_allocation())
            assert isinstance(receiver, StandardOfdmReceiver)
            with pytest.raises(ValueError, match="already registered"):
                register_receiver("test-passthrough")(lambda *a, **k: None)
        finally:
            from repro.api import registry

            registry._RECEIVER_BUILDERS.pop("test-passthrough", None)

    def test_custom_receiver_runs_through_a_spec(self):
        @register_receiver("test-standard-clone", overwrite=True)
        def _build(allocation, n_segments, **options):
            return StandardOfdmReceiver(**options)

        try:
            spec = ExperimentSpec(
                name="clone",
                figure="T",
                title="t",
                scenario=ScenarioSpec(interferers=(InterfererSpec(kind="cci"),)),
                receivers=(ReceiverSpec("standard"), ReceiverSpec("test-standard-clone")),
                sweep=SweepSpec(axes=(SweepAxis("sir_db", values=(15.0,)),)),
            )
            result = run_experiment_spec(spec, TINY)
            assert result.series["test-standard-clone"] == result.series["Without CPRecycle"]
        finally:
            from repro.api import registry

            registry._RECEIVER_BUILDERS.pop("test-standard-clone", None)


class TestInterfererAxisSweep:
    def test_interferer_axis_runs_with_alias_series_label(self):
        spec = ExperimentSpec(
            name="cci-power",
            figure="T",
            title="t",
            scenario=ScenarioSpec(
                payload_length=30, interferers=(InterfererSpec(kind="cci"),)
            ),
            receivers=(ReceiverSpec("standard"),),
            sweep=SweepSpec(
                axes=(
                    SweepAxis("interferers[0].sir_db", values=(4.0, 16.0)),
                    SweepAxis("snr_db", values=(20.0, 30.0)),
                )
            ),
            series_label="CCI at {interferer0_sir_db:g} dB",
            n_packets=2,
        )
        result = run_experiment_spec(spec, TINY)
        assert set(result.series) == {"CCI at 4 dB", "CCI at 16 dB"}
        assert result.x_values == [20.0, 30.0]

    def test_store_rejects_path_escaping_names(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="path component"):
            store.path_for("../evil")


class TestAnalysisSpecs:
    def test_fig4_spec_dispatches_to_segment_profile(self):
        via_spec = run_experiment_spec(fig04_segments.build_spec(), TINY)
        direct = fig04_segments.run_segment_profile(TINY)
        assert via_spec == direct

    def test_unknown_analysis_is_actionable(self):
        with pytest.raises(SpecError, match="register_analysis"):
            resolve_analysis("fig99-nope")

    def test_analysis_spec_from_json_resolves_in_fresh_registry(self):
        spec = ExperimentSpec.from_json(fig04_segments.build_spec().to_json())
        assert isinstance(run_experiment_spec(spec, TINY), FigureResult)

    def test_misspelled_params_fail_before_anything_runs(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the analysis ran before its params were checked")

        monkeypatch.setattr(fig04_segments, "execute_points", never)
        spec = replace(
            fig04_segments.build_spec(),
            params={"sir_value_db": [-20.0], "subcarrier_offset_from_edge": 4},
        )
        with pytest.raises(SpecError, match=r"'fig4-segment-profile'.*sir_value_db"):
            run_experiment_spec(spec, TINY)

    def test_analysis_spec_execution_fields_take_effect(self):
        # An edited seed in a dumped analysis spec must change the result
        # (the analysis draws its randomness from the profile seed).
        default = run_experiment_spec(fig04_segments.build_spec(), TINY)
        reseeded = run_experiment_spec(replace(fig04_segments.build_spec(), seed=99), TINY)
        assert default != reseeded
        assert reseeded == fig04_segments.run_segment_profile(
            replace(TINY, seed=99)
        )


class TestMixedScenarioEndToEnd:
    """A scenario inexpressible before this layer: >= 2 interferers mixing
    ACI and CCI, run from a JSON spec via the CLI, persisted and reloaded."""

    def _mixed_payload(self):
        return {
            "schema_version": 1,
            "name": "mixed-aci-cci",
            "figure": "Custom",
            "title": "PSR vs SIR, ACI + CCI mix",
            "kind": "psr",
            "scenario": {
                "mcs_name": "qpsk-1/2",
                "payload_length": 30,
                "interferers": [
                    {"kind": "aci", "guard_subcarriers": 2, "side": "upper"},
                    {"kind": "cci", "sir_db": 12.0, "mcs_name": "16qam-1/2"},
                ],
            },
            "receivers": [{"name": "standard"}, {"name": "cprecycle"}],
            "sweep": {"axes": [{"field": "sir_db", "values": [-20.0, -10.0]}]},
            "n_packets": 2,
            "seed": 7,
        }

    def test_cli_spec_run_persists_reloadable_artifact(self, tmp_path):
        spec_path = tmp_path / "mixed.json"
        spec_path.write_text(json.dumps(self._mixed_payload()))
        out_dir = tmp_path / "results"
        assert (
            runner.main(["--spec", str(spec_path), "--workers", "2", "--out", str(out_dir)]) == 0
        )
        record = ResultStore(out_dir).load_record("mixed-aci-cci")
        assert record["spec_hash"]
        result = ResultStore(out_dir).load("mixed-aci-cci")
        assert result.x_values == [-20.0, -10.0]
        assert set(result.series) == {"Without CPRecycle", "With CPRecycle"}

    def test_spec_run_matches_in_process_facade(self, tmp_path):
        spec = ExperimentSpec.from_dict(self._mixed_payload())
        serial = run_experiment_spec(spec, TINY)
        pooled = run_experiment_spec(spec, TINY, n_workers=2)
        assert serial == pooled


class TestCli:
    def test_dump_spec_round_trips_through_run(self, tmp_path, capsys):
        assert runner.main(["fig8", "--dump-spec"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for axis in payload["sweep"]["axes"]:
            if axis["field"] == "sir_db":
                axis["values"] = [-20.0, -12.0]
        payload["name"] = "fig8-custom"
        payload["n_packets"] = 2
        spec_path = tmp_path / "custom.json"
        spec_path.write_text(json.dumps(payload))
        out_dir = tmp_path / "results"
        assert runner.main(["--spec", str(spec_path), "--out", str(out_dir)]) == 0
        result = ResultStore(out_dir).load("fig8-custom")
        assert result.x_values == [-20.0, -12.0]

    def test_spec_dumped_with_legacy_engine_key_runs(self, tmp_path, capsys):
        # Older builds wrote "engine": null into every dumped spec.
        payload = ExperimentSpec(
            name="legacy",
            figure="T",
            title="t",
            scenario=ScenarioSpec(
                payload_length=30, interferers=(InterfererSpec(kind="cci"),)
            ),
            receivers=(ReceiverSpec("standard"),),
            sweep=SweepSpec(axes=(SweepAxis("sir_db", values=(15.0,)),)),
            n_packets=2,
        ).to_dict()
        spec_path = tmp_path / "legacy.json"
        out_dir = tmp_path / "results"
        for engine in (None, "fast"):
            spec_path.write_text(json.dumps({**payload, "engine": engine}))
            assert runner.main(["--spec", str(spec_path), "--out", str(out_dir)]) == 0
            assert "engine" not in ResultStore(out_dir).load_record("legacy")
        spec_path.write_text(json.dumps({**payload, "engine": "reference"}))
        with pytest.raises(SystemExit):
            runner.main(["--spec", str(spec_path)])
        assert "test oracle" in capsys.readouterr().err

    def test_misspelled_analysis_params_in_spec_file_are_a_usage_error(self, tmp_path, capsys):
        assert runner.main(["fig4", "--dump-spec"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["params"]["sir_value_db"] = payload["params"].pop("sir_values_db")
        spec_path = tmp_path / "fig4.json"
        spec_path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--spec", str(spec_path)])
        assert excinfo.value.code == 2
        assert "sir_value_db" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "geometry, field_name",
        [
            ({"cp_fraction": 0.0}, "cp_fraction"),
            ({"cp_fraction": 0.003}, "cp_fraction"),  # below 1/(2 * 160): a 0-sample CP
            ({"cp_fraction": float("nan")}, "cp_fraction"),
            ({"n_subcarriers": 200}, "n_subcarriers"),
        ],
    )
    def test_bad_sender_allocation_fails_before_anything_runs(
        self, tmp_path, capsys, monkeypatch, geometry, field_name
    ):
        assert runner.main(["fig8", "--dump-spec"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["scenario"]["allocation"] = {"kind": "wideband", **geometry}
        payload["series_label"] = "{receiver}"
        payload["sweep"]["axes"] = [{"field": "sir_db", "values": [-10.0]}]
        with pytest.raises(SpecError, match=field_name):
            ExperimentSpec.from_dict(payload)
        ran = []
        monkeypatch.setattr(runner, "run_experiment_spec", lambda *args: ran.append(args))
        spec_path = tmp_path / "fig8-bad-allocation.json"
        spec_path.write_text(json.dumps(payload))
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--spec", str(spec_path)])
        assert excinfo.value.code == 2
        assert field_name in capsys.readouterr().err
        assert not ran

    @pytest.mark.parametrize("cli", ["spec", "campaign"])
    @pytest.mark.parametrize(
        "change, field_name",
        [
            ({"n_segments": 2.5}, "n_segments"),  # float FFT offsets 38.5 ... 40.5
            ({"options": {"max_candidates": 2.5}}, "max_candidates"),
            ({"options": {"max_candidates": True}}, "max_candidates"),
            ({"options": {"max_candidates": 0.5}}, "max_candidates"),
            ({"options": {"model_scope": "bogus"}}, "model_scope"),
        ],
        ids=["n_segments-2.5", "max_candidates-2.5", "max_candidates-true",
             "max_candidates-0.5", "model_scope-bogus"],
    )
    def test_rejected_receiver_fails_before_anything_runs(
        self, tmp_path, capsys, monkeypatch, cli, change, field_name
    ):
        assert runner.main(["fig8", "--dump-spec"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["series_label"] = "{receiver}"
        payload["sweep"]["axes"] = [{"field": "sir_db", "values": [-10.0]}]
        payload["n_packets"] = 2
        (cprecycle,) = [entry for entry in payload["receivers"] if entry["name"] == "cprecycle"]
        cprecycle.update(change)
        dispatched = []

        def no_dispatch(*args, **kwargs):
            dispatched.append(args)
            raise AssertionError("a sweep task was dispatched")

        monkeypatch.setattr(api_experiment, "execute_points", no_dispatch)
        monkeypatch.setattr(campaign_scheduler, "execute_points", no_dispatch)
        spec_path = tmp_path / "spec.json"
        workspace = tmp_path / "ws"
        if cli == "spec":
            spec_path.write_text(json.dumps(payload))
            argv = ["--spec", str(spec_path)]
        else:
            campaign = json.loads(
                CampaignSpec(
                    name="rejected-receiver",
                    experiments=(CampaignExperiment(builtin="fig8"),),
                    profile="quick",
                ).to_json()
            )
            campaign["experiments"] = [{"spec": payload}]
            spec_path.write_text(json.dumps(campaign))
            argv = ["campaign", "--spec", str(spec_path), "--out", str(workspace)]
        with pytest.raises(SystemExit) as excinfo:
            runner.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert field_name in err and "cprecycle" in err
        assert not dispatched
        assert not workspace.exists()

    def test_unknown_name_fails_before_anything_runs(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["table1", "fig99", "--out", str(out_dir)])
        assert excinfo.value.code == 2
        assert not (out_dir / "table1.json").exists()
        err = capsys.readouterr().err
        assert "fig99" in err and "table1, fig4, fig5" in err

    def test_bare_runner_runs_the_builtin_table_in_order(self, monkeypatch):
        default = [
            "table1", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig14",
        ]
        assert list(runner.BUILTIN_SPECS) == default + ["fig13-simulated"]
        ran = []

        def record(spec, profile):
            ran.append(spec.name)
            return FigureResult(spec.figure, spec.title, "x", [], {})

        monkeypatch.setattr(runner, "run_experiment_spec", record)
        assert runner.main([]) == 0
        assert ran == default

    @pytest.mark.parametrize("name", list(runner.BUILTIN_SPECS))
    def test_every_builtin_round_trips_dump_spec_and_resolves_in_campaigns(self, name, capsys):
        assert runner.main([name, "--dump-spec"]) == 0
        dumped = capsys.readouterr().out.rstrip("\n")
        assert ExperimentSpec.from_json(dumped).to_json() == dumped
        entry = CampaignExperiment(builtin=name)
        assert entry.build() == runner.BUILTIN_SPECS[name]()
        assert entry.build().resolve(QUICK_PROFILE).to_json() == dumped

    def test_dump_spec_needs_one_experiment(self):
        with pytest.raises(SystemExit):
            runner.main(["--dump-spec"])
        with pytest.raises(SystemExit):
            runner.main(["fig8", "fig9", "--dump-spec"])

    def test_spec_excludes_experiment_names(self, tmp_path):
        spec_path = tmp_path / "s.json"
        spec_path.write_text(runner.builtin_spec("fig8").to_json())
        with pytest.raises(SystemExit):
            runner.main(["fig9", "--spec", str(spec_path)])

    def test_invalid_spec_file_is_actionable(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit):
            runner.main(["--spec", str(bad)])
        assert "invalid spec" in capsys.readouterr().err

    def test_builtin_spec_unknown_name(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            runner.builtin_spec("fig99")

    def test_run_experiment_via_specs(self):
        result = run_experiment_spec(runner.builtin_spec("fig13"), TINY)
        assert isinstance(result, FigureResult)
        with pytest.raises(ValueError):
            runner.builtin_spec("fig99")

    def test_mode_simulated_dumps_the_simulated_fig13_spec(self, capsys):
        assert runner.main(["fig13", "--mode", "simulated", "--dump-spec"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "fig13-simulated"
        assert payload["analysis"] == "fig13-neighbor-cdf-simulated"
        assert payload["params"]["deployment"]["topology"] == "building"

    def test_mode_threshold_keeps_the_default_fig13_spec(self, capsys):
        assert runner.main(["fig13", "--mode", "threshold", "--dump-spec"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "fig13"
        assert payload["analysis"] == "fig13-neighbor-cdf"

    def test_mode_requires_fig13(self):
        with pytest.raises(SystemExit):
            runner.main(["fig8", "--mode", "simulated", "--dump-spec"])

    def test_mode_excludes_spec_file(self, tmp_path):
        spec_path = tmp_path / "s.json"
        spec_path.write_text(runner.builtin_spec("fig8").to_json())
        with pytest.raises(SystemExit):
            runner.main(["--spec", str(spec_path), "--mode", "simulated"])

    def test_simulated_spec_file_runs_and_artifact_reloads(self, tmp_path, capsys):
        # The CI smoke in miniature: dump the simulated spec, shrink the
        # deployment, run it through --spec on 2 workers, reload the artifact.
        assert runner.main(["fig13", "--mode", "simulated", "--dump-spec"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["params"]["deployment"].update({"n_floors": 1, "aps_per_floor": 2})
        payload["params"]["n_realizations"] = 1
        payload["n_packets"] = 2
        payload["payload_length"] = 30
        spec_path = tmp_path / "sim.json"
        spec_path.write_text(json.dumps(payload))
        out_dir = tmp_path / "results"
        assert (
            runner.main(["--spec", str(spec_path), "--workers", "2", "--out", str(out_dir)])
            == 0
        )
        record = ResultStore(out_dir).load_record("fig13-simulated")
        assert record["spec_hash"]
        result = ResultStore(out_dir).load("fig13-simulated")
        assert set(result.series) == {"Standard Receiver", "CPRecycle"}
        for series in result.series.values():
            assert series[-1] == pytest.approx(1.0)


class TestExecutionKnobValidation:
    """--workers / REPRO_WORKERS fail fast and name the knob."""

    def test_cli_rejects_non_positive_workers(self):
        for value in ("0", "-3"):
            with pytest.raises(SystemExit):
                runner.main(["fig8", "--workers", value])

    def test_cli_rejects_env_typos_before_running(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(SystemExit):
            runner.main(["table1"])
        assert "REPRO_WORKERS" in capsys.readouterr().err
        # ...but an explicit --workers flag shadows the env variable entirely.
        assert runner.main(["table1", "--workers", "1"]) == 0

    def test_resolve_workers_names_the_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match="REPRO_WORKERS must be at least 1"):
            resolve_workers()
        monkeypatch.setenv("REPRO_WORKERS", "two")
        with pytest.raises(ValueError, match="REPRO_WORKERS must be an integer"):
            resolve_workers()
