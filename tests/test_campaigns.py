"""Campaign orchestration subsystem: specs, adaptive sampling, resume, CLI.

The acceptance-criteria tests live here: a campaign over fig4+fig11
reproduces the fixed-budget series within the stated confidence interval
while simulating measurably fewer packets, and ``--resume`` after a
mid-round interrupt completes with bit-identical final counts.
"""

import functools
import json
from dataclasses import replace

import pytest

import repro.campaigns.scheduler as scheduler_module
import repro.experiments.sweeps as sweeps_module
from repro.api import (
    CampaignExperiment,
    CampaignSpec,
    DeploymentSpec,
    ExperimentSpec,
    InterfererSpec,
    PrecisionSpec,
    ReceiverSpec,
    ScenarioSpec,
    SpecError,
    SweepAxis,
    SweepSpec,
    run_experiment_spec,
)
from repro.campaigns import run_campaign, wilson_halfwidth, wilson_interval
from repro.campaigns.adaptive import next_total, normal_quantile
from repro.campaigns.report import format_summary_csv, format_summary_markdown
from repro.experiments.config import QUICK_PROFILE
from repro.experiments.runner import main as runner_main
from repro.experiments.store import CampaignManifest, PointCache, ResultStore


def _mini_psr_spec(name="mini-cci", sir_values=(5.0, 10.0, 15.0, 20.0, 25.0)):
    """A small single-MCS co-channel PSR experiment (5 grid cells)."""
    return ExperimentSpec(
        name=name,
        figure="Custom",
        title="mini CCI sweep",
        scenario=ScenarioSpec(interferers=(InterfererSpec(kind="cci"),)),
        receivers=(ReceiverSpec("standard"), ReceiverSpec("cprecycle")),
        sweep=SweepSpec(axes=(SweepAxis("sir_db", values=tuple(sir_values)),)),
        series_label="{receiver}",
    )


def _mini_mcs_spec(name="mini-mcs"):
    """Five MCS at one co-channel SIR (5 grid cells).

    Cells of different MCS share no packet draws, so each sampling round
    dispatches one sweep task per cell: five tasks, one more than the
    serial chunk size.
    """
    return ExperimentSpec(
        name=name,
        figure="Custom",
        title="mini CCI MCS sweep",
        scenario=ScenarioSpec(sir_db=15.0, interferers=(InterfererSpec(kind="cci"),)),
        receivers=(ReceiverSpec("standard"), ReceiverSpec("cprecycle")),
        sweep=SweepSpec(
            axes=(
                SweepAxis(
                    "mcs_name",
                    values=("bpsk-1/2", "qpsk-1/2", "qpsk-3/4", "16qam-1/2", "16qam-3/4"),
                ),
            )
        ),
        series_label="{receiver}",
    )


def _misspelled_fig4_spec():
    """The builtin fig4 spec with ``sir_values_db`` misspelled in its params."""
    spec = CampaignExperiment(builtin="fig4").build()
    return replace(spec, params={"sir_value_db": [-20.0], "subcarrier_offset_from_edge": 4})


def _campaign(experiments, **kwargs):
    defaults = dict(
        name="test-campaign",
        precision=PrecisionSpec(ci_halfwidth_pct=30.0, min_packets=4, growth=2.0),
        profile="quick",
    )
    defaults.update(kwargs)
    return CampaignSpec(experiments=tuple(experiments), **defaults)


# --------------------------------------------------------------------------- #
# Adaptive statistics                                                         #
# --------------------------------------------------------------------------- #
class TestAdaptiveMath:
    def test_normal_quantile_known_values(self):
        # Exact inverse standard-normal CDF values (to double precision).
        known = {
            0.005: -2.575829303548901,
            0.025: -1.9599639845400545,
            0.2: -0.8416212335729142,
            0.5: 0.0,
            0.8: 0.8416212335729143,
            0.975: 1.959963984540054,
            0.995: 2.5758293035489004,
        }
        for p, quantile in known.items():
            assert normal_quantile(p) == pytest.approx(quantile, abs=1e-8)

    def test_normal_quantile_rejects_boundaries(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_quantile(p)

    def test_wilson_interval_brackets_the_estimate(self):
        low, high = wilson_interval(7, 10, 0.95)
        assert 0.0 <= low < 0.7 < high <= 1.0

    def test_wilson_halfwidth_shrinks_with_n_and_stays_finite_at_extremes(self):
        assert wilson_halfwidth(50, 100) < wilson_halfwidth(5, 10)
        # All-success / all-fail cells still have a finite, shrinking interval
        # (a Wald interval would collapse to zero and stop after one round).
        assert 0.0 < wilson_halfwidth(100, 100) < wilson_halfwidth(10, 10)
        assert wilson_halfwidth(0, 100) == pytest.approx(wilson_halfwidth(100, 100))

    def test_wilson_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_halfwidth(1, 0)
        with pytest.raises(ValueError):
            wilson_halfwidth(5, 4)

    def test_next_total_geometric_schedule(self):
        assert next_total(0, 50, 2000, 2.0) == 50
        assert next_total(50, 50, 2000, 2.0) == 100
        assert next_total(100, 50, 2000, 2.0) == 200
        assert next_total(1500, 50, 2000, 2.0) == 2000  # clamped to the budget
        assert next_total(2000, 50, 2000, 2.0) == 2000  # exhausted: no growth
        assert next_total(0, 50, 30, 2.0) == 30  # floor clamped to the ceiling
        assert next_total(1, 1, 10, 1.01) == 2  # always grows by >= 1 packet


# --------------------------------------------------------------------------- #
# Campaign specs                                                              #
# --------------------------------------------------------------------------- #
class TestCampaignSpecValidation:
    def test_requires_experiments(self):
        with pytest.raises(SpecError, match="at least one experiment"):
            CampaignSpec(name="empty")

    def test_name_must_be_artifact_safe(self):
        with pytest.raises(SpecError, match="campaign name"):
            _campaign([CampaignExperiment(builtin="fig11")], name="../evil")

    def test_entry_needs_exactly_one_source(self):
        with pytest.raises(SpecError, match="exactly one"):
            CampaignExperiment()
        with pytest.raises(SpecError, match="exactly one"):
            CampaignExperiment(builtin="fig11", spec=_mini_psr_spec())

    def test_deployment_entry_needs_a_name(self):
        with pytest.raises(SpecError, match="needs a 'name'"):
            CampaignExperiment(deployment=DeploymentSpec())

    def test_n_realizations_only_for_deployments(self):
        with pytest.raises(SpecError, match="n_realizations"):
            CampaignExperiment(builtin="fig11", n_realizations=3)

    def test_reserved_workspace_names_rejected(self):
        # 'manifest'/'summary' would overwrite the campaign's own state files.
        for name in ("manifest", "summary"):
            with pytest.raises(SpecError, match="reserved"):
                _campaign([CampaignExperiment(builtin="fig11", name=name)])

    def test_duplicate_resolved_names_rejected(self):
        with pytest.raises(SpecError, match="unique"):
            _campaign(
                [CampaignExperiment(builtin="fig11"), CampaignExperiment(builtin="fig11")]
            )

    def test_unknown_builtin_fails_at_build(self):
        entry = CampaignExperiment(builtin="fig99")
        with pytest.raises(SpecError, match="unknown builtin"):
            entry.build()

    def test_precision_validation(self):
        with pytest.raises(SpecError, match="ci_halfwidth_pct"):
            PrecisionSpec(ci_halfwidth_pct=0.0)
        with pytest.raises(SpecError, match="confidence"):
            PrecisionSpec(confidence=1.0)
        with pytest.raises(SpecError, match="growth"):
            PrecisionSpec(growth=1.0)
        with pytest.raises(SpecError, match="min_packets"):
            PrecisionSpec(min_packets=0)

    def test_precision_budget_clamps_floor_to_ceiling(self):
        assert PrecisionSpec(min_packets=50).budget(10) == (10, 10)
        assert PrecisionSpec(min_packets=8, max_packets=500).budget(10) == (8, 500)

    def test_profile_engine_workers_validated(self):
        entry = CampaignExperiment(builtin="fig11")
        with pytest.raises(SpecError, match="profile"):
            _campaign([entry], profile="huge")
        payload = _campaign([entry]).to_dict()
        for engine in ("reference", "fsat"):
            with pytest.raises(SpecError, match="engine .* test oracle"):
                CampaignSpec.from_dict({**payload, "engine": engine})
        with pytest.raises(SpecError, match="n_workers"):
            _campaign([entry], n_workers=0)

    def test_legacy_engine_key_of_written_campaigns_is_dropped(self):
        spec = _campaign([CampaignExperiment(spec=_mini_psr_spec())])
        payload = spec.to_dict()
        # Inline experiment specs written by older builds carry the key too.
        payload["experiments"][0]["spec"]["engine"] = None
        for engine in (None, "fast"):
            assert CampaignSpec.from_dict({**payload, "engine": engine}) == spec

    def test_json_round_trip_all_entry_kinds(self):
        spec = _campaign(
            [
                CampaignExperiment(builtin="fig11"),
                CampaignExperiment(spec=_mini_psr_spec(), precision=PrecisionSpec()),
                CampaignExperiment(
                    deployment=DeploymentSpec(n_floors=1, aps_per_floor=2),
                    name="tiny-net",
                    n_realizations=2,
                ),
            ],
            seed=7,
            notes=("a note",),
        )
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_unknown_json_field_rejected(self):
        payload = _campaign([CampaignExperiment(builtin="fig11")]).to_dict()
        payload["typo_field"] = 1
        with pytest.raises(SpecError, match="typo_field"):
            CampaignSpec.from_dict(payload)

    def test_future_schema_version_rejected(self):
        payload = _campaign([CampaignExperiment(builtin="fig11")]).to_dict()
        payload["schema_version"] = 99
        with pytest.raises(SpecError, match="schema version"):
            CampaignSpec.from_dict(payload)


# --------------------------------------------------------------------------- #
# Acceptance: adaptive campaign vs the fixed-budget path                      #
# --------------------------------------------------------------------------- #
class TestAdaptiveCampaign:
    def test_fig4_fig11_campaign_within_ci_with_fewer_packets(self, tmp_path):
        """The ISSUE's acceptance criterion, on the quick profile."""
        spec = _campaign(
            [CampaignExperiment(builtin="fig4"), CampaignExperiment(builtin="fig11")],
            name="fig4-fig11",
        )
        run = run_campaign(spec, tmp_path / "ws")
        totals = run.summary["totals"]

        # Measurably fewer packets than the fixed-n_packets path.
        assert totals["adaptive_packets"] < totals["fixed_packets"]
        assert totals["packet_savings"] > 0.2
        assert totals["n_cells"] == 15  # 3 MCS x 5 SIR points

        # The fixed-budget fig11 series, reproduced within the stated CIs.
        fixed = run_experiment_spec(
            next(e.build() for e in spec.experiments if e.builtin == "fig11"),
            QUICK_PROFILE,
        )
        adaptive = run.results["fig11"]
        assert set(adaptive.series) == set(fixed.series)
        fig11 = next(e for e in run.summary["experiments"] if e["name"] == "fig11")
        n_fixed = QUICK_PROFILE.n_packets
        for label, fixed_values in fixed.series.items():
            columns = fig11["series"][label]
            for rate, ci, fixed_rate in zip(
                columns["psr_percent"], columns["ci_halfwidth_pct"], fixed_values
            ):
                fixed_ci = 100.0 * wilson_halfwidth(
                    round(fixed_rate * n_fixed / 100.0), n_fixed
                )
                assert abs(rate - fixed_rate) <= ci + fixed_ci, (label, rate, fixed_rate)

        # Analysis member ran under the same campaign and produced its artifact.
        assert run.results["fig4"].series
        store = ResultStore(run.workspace)
        assert set(store.names()) >= {"fig4", "fig11"}
        record = store.load_record("fig11")
        assert record["campaign"] == "fig4-fig11"
        assert record["adaptive"]["n_packets"]

    def test_misspelled_analysis_params_fail_before_the_first_round(
        self, tmp_path, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(scheduler_module, "run_sweep_point_counts", calls.append)
        spec = _campaign(
            [
                CampaignExperiment(spec=_mini_psr_spec()),
                CampaignExperiment(spec=_misspelled_fig4_spec()),
            ]
        )
        with pytest.raises(SpecError, match=r"'fig4-segment-profile'.*sir_value_db"):
            run_campaign(spec, tmp_path / "ws", n_workers=1)
        assert calls == []
        assert not (tmp_path / "ws" / "manifest.json").exists()

    def test_shared_cells_simulate_once(self, tmp_path):
        """Two experiments over identical scenarios collapse to one cell set."""
        spec = _campaign(
            [
                CampaignExperiment(spec=_mini_psr_spec("copy-a")),
                CampaignExperiment(spec=_mini_psr_spec("copy-b")),
            ]
        )
        run = run_campaign(spec, tmp_path / "ws")
        totals = run.summary["totals"]
        assert totals["n_grid_points"] == 10
        assert totals["n_cells"] == 5  # deduplicated across the two experiments
        assert run.results["copy-a"].series == run.results["copy-b"].series
        # The fixed-budget comparison still counts both experiments' budgets,
        # so dedup itself shows up as packet savings.
        assert totals["adaptive_packets"] <= totals["fixed_packets"] / 2

    def test_converged_cells_report_target_precision(self, tmp_path):
        spec = _campaign([CampaignExperiment(spec=_mini_psr_spec())])
        run = run_campaign(spec, tmp_path / "ws")
        summary_exp = run.summary["experiments"][0]
        totals = run.summary["totals"]
        assert totals["converged_cells"] == totals["n_cells"]
        for columns in summary_exp["series"].values():
            assert all(ci <= 30.0 for ci in columns["ci_halfwidth_pct"])
            assert all(n >= 4 for n in columns["n_packets"])

    def test_deployment_entry_runs_simulated_network(self, tmp_path):
        spec = _campaign(
            [
                CampaignExperiment(
                    deployment=DeploymentSpec(n_floors=1, aps_per_floor=2),
                    name="tiny-net",
                    n_realizations=1,
                )
            ]
        )
        run = run_campaign(spec, tmp_path / "ws")
        result = run.results["tiny-net"]
        assert set(result.series) == {"Standard Receiver", "CPRecycle"}
        entry = run.summary["experiments"][0]
        assert entry["kind"] == "analysis"

    def test_reports_render(self, tmp_path):
        spec = _campaign([CampaignExperiment(spec=_mini_psr_spec())])
        run = run_campaign(spec, tmp_path / "ws")
        markdown = format_summary_markdown(run.summary)
        assert "packets simulated" in markdown and "± CI (pp)" in markdown
        csv_text = format_summary_csv(run.summary)
        header, *rows = csv_text.splitlines()
        assert header.startswith("campaign,experiment,kind,series,x")
        assert len(rows) == 10  # 2 receivers x 5 SIR points


# --------------------------------------------------------------------------- #
# Checkpoint / resume                                                         #
# --------------------------------------------------------------------------- #
class TestResume:
    def test_used_workspace_requires_resume(self, tmp_path):
        spec = _campaign([CampaignExperiment(spec=_mini_psr_spec())])
        run_campaign(spec, tmp_path / "ws")
        with pytest.raises(ValueError, match="--resume"):
            run_campaign(spec, tmp_path / "ws")

    def test_manifest_of_other_campaign_refuses(self, tmp_path):
        spec = _campaign([CampaignExperiment(spec=_mini_psr_spec())])
        run_campaign(spec, tmp_path / "ws")
        other = _campaign(
            [CampaignExperiment(spec=_mini_psr_spec(sir_values=(0.0, 30.0)))]
        )
        with pytest.raises(ValueError, match="use a fresh --out"):
            run_campaign(other, tmp_path / "ws", resume=True)

    def test_resume_of_finished_campaign_recomputes_nothing(self, tmp_path):
        spec = _campaign([CampaignExperiment(spec=_mini_psr_spec())])
        first = run_campaign(spec, tmp_path / "ws")
        manifest_before = (tmp_path / "ws" / "manifest.json").read_text()
        again = run_campaign(spec, tmp_path / "ws", resume=True)
        assert again.summary["experiments"] == first.summary["experiments"]
        assert json.loads(manifest_before)["points"] == json.loads(
            (tmp_path / "ws" / "manifest.json").read_text()
        )["points"]

    def test_mid_round_interrupt_resumes_bit_identical(self, tmp_path, monkeypatch):
        """Kill the first sampling round mid-chunk; --resume must finish with
        counts bit-identical to an uninterrupted run."""
        spec = _campaign([CampaignExperiment(spec=_mini_mcs_spec())])
        reference = run_campaign(spec, tmp_path / "uninterrupted")

        real = sweeps_module.run_sweep_group
        calls = {"n": 0}

        @functools.wraps(real)
        def interrupting(group):
            calls["n"] += 1
            if calls["n"] == 5:  # the serial chunk size is 4: one chunk flushed
                raise KeyboardInterrupt
            return real(group)

        monkeypatch.setattr(sweeps_module, "run_sweep_group", interrupting)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, tmp_path / "interrupted")
        monkeypatch.setattr(sweeps_module, "run_sweep_group", real)

        # The interrupt fired inside round 1: the first chunk's four cells
        # reached the point cache, and no round was checkpointed.
        assert calls["n"] == 5
        (cache_file,) = (tmp_path / "interrupted" / ".cache").glob("*.json")
        assert len(PointCache(cache_file)) == 4
        manifest = CampaignManifest(tmp_path / "interrupted" / "manifest.json")
        assert manifest.rounds_completed == 0

        resumed = run_campaign(spec, tmp_path / "interrupted", resume=True)

        ref_manifest = CampaignManifest(tmp_path / "uninterrupted" / "manifest.json")
        res_manifest = CampaignManifest(tmp_path / "interrupted" / "manifest.json")
        assert res_manifest.points == ref_manifest.points
        assert resumed.summary["experiments"] == reference.summary["experiments"]
        assert resumed.summary["totals"]["adaptive_packets"] == (
            reference.summary["totals"]["adaptive_packets"]
        )


# --------------------------------------------------------------------------- #
# CLI                                                                         #
# --------------------------------------------------------------------------- #
class TestCampaignCli:
    def _write_spec(self, tmp_path):
        spec = _campaign([CampaignExperiment(spec=_mini_psr_spec())], name="cli-campaign")
        path = tmp_path / "campaign.json"
        path.write_text(spec.to_json())
        return path

    def test_campaign_subcommand_end_to_end(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        workspace = tmp_path / "ws"
        code = runner_main(
            ["campaign", "--spec", str(spec_path), "--out", str(workspace), "--report", "json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["campaign"] == "cli-campaign"
        assert summary["totals"]["packet_savings"] > 0
        # The workspace holds the manifest, the summary artifact and the
        # per-experiment result artifact.
        assert (workspace / "manifest.json").is_file()
        reloaded = json.loads((workspace / "summary.json").read_text())
        assert reloaded["totals"] == summary["totals"]
        assert ResultStore(workspace).load("mini-cci").series

    def test_rerun_without_resume_errors(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        workspace = tmp_path / "ws"
        assert runner_main(["campaign", "--spec", str(spec_path), "--out", str(workspace)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["campaign", "--spec", str(spec_path), "--out", str(workspace)])
        assert excinfo.value.code == 2
        assert "--resume" in capsys.readouterr().err
        # With --resume the finished campaign reloads and reports cleanly.
        assert (
            runner_main(
                ["campaign", "--spec", str(spec_path), "--out", str(workspace), "--resume"]
            )
            == 0
        )

    def test_misspelled_analysis_params_are_a_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(
            _campaign([CampaignExperiment(spec=_misspelled_fig4_spec())]).to_json()
        )
        with pytest.raises(SystemExit) as excinfo:
            runner_main(["campaign", "--spec", str(spec_path), "--out", str(tmp_path / "ws")])
        assert excinfo.value.code == 2
        assert "sir_value_db" in capsys.readouterr().err

    def test_invalid_spec_file_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"name\": \"x\"}")
        with pytest.raises(SystemExit):
            runner_main(["campaign", "--spec", str(bad)])
        assert "invalid campaign spec" in capsys.readouterr().err
