"""Tests for the network link-simulation subsystem (Fig. 13 simulated mode)."""

import dataclasses

import numpy as np
import pytest

from repro.api import (
    DeploymentSpec,
    ReceiverSpec,
    SpecError,
    available_topologies,
    build_deployment,
    register_topology,
    run_experiment_spec,
)
from repro.experiments import fig13_network
from repro.experiments.config import ExperimentProfile
from repro.network.building import OfficeBuilding, UniformRandomDeployment
from repro.network.links import (
    LinkSimulation,
    channel_capacity_estimate,
    effective_neighbor_counts,
    link_scenario,
    link_sir_db,
    psr_conflict_graph,
    quantize_sir_db,
    simulate_links,
)

TINY = ExperimentProfile(name="tiny", n_packets=2, payload_length=30, n_sir_points=2)

#: 3-AP matrix: AP 1 blasts AP 0 (hopeless link), APs 1<->2 moderate, AP 2
#: barely reaches AP 0 (interference-free at the default clean cutoff).
RSS = np.array(
    [
        [np.inf, -45.0, -101.0],
        [-45.0, np.inf, -80.0],
        [-101.0, -80.0, np.inf],
    ]
)


class TestLinkBudgets:
    def test_link_sir_matches_manual_budget(self):
        sir = link_sir_db(RSS, signal_dbm=-60.0)
        assert sir[0, 1] == pytest.approx(-15.0)
        assert sir[1, 2] == pytest.approx(20.0)
        assert sir[0, 2] == pytest.approx(41.0)
        assert np.all(np.isinf(np.diag(sir)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            link_sir_db(np.zeros((2, 3)))

    def test_quantize_snaps_and_clamps(self):
        sir = np.array([[np.inf, 1.26], [-80.0, np.inf]])
        quantized = quantize_sir_db(sir, step_db=0.5, floor_db=-40.0)
        assert quantized[0, 1] == pytest.approx(1.5)
        assert quantized[1, 0] == pytest.approx(-40.0)
        assert np.isinf(quantized[0, 0])

    def test_quantize_zero_step_passthrough(self):
        sir = np.array([[np.inf, 1.26], [2.0, np.inf]])
        assert quantize_sir_db(sir, step_db=0.0)[0, 1] == pytest.approx(1.26)

    def test_link_scenario_is_single_cci(self):
        spec = link_scenario(12.5, payload_length=30)
        assert spec.sir_db == 12.5
        assert len(spec.interferers) == 1
        assert spec.interferers[0].kind == "cci"
        # Resolves to the 802.11g allocation (the Fig. 11 geometry).
        assert spec.sender_allocation().name == "802.11g"


class TestSimulateLinks:
    def test_structure_and_clean_links(self):
        simulation = simulate_links(RSS, n_packets=2, seed=2016, payload_length=30)
        assert isinstance(simulation, LinkSimulation)
        assert simulation.n_access_points == 3
        assert simulation.n_links == 6
        # Both directions of the 41 dB AP0<->AP2 pair are interference free.
        assert simulation.n_clean_links == 2
        assert simulation.n_simulated_points == 2  # unique SIRs: -15 and 20 dB
        for name in ("standard", "cprecycle"):
            psr = simulation.psr_percent[name]
            assert psr.shape == (3, 3)
            assert np.all(np.diag(psr) == 100.0)
            assert psr[0, 2] == psr[2, 0] == 100.0  # clean links
            assert np.all((psr >= 0.0) & (psr <= 100.0))
            # The hopeless -15 dB link fails for every receiver.
            assert psr[0, 1] == 0.0

    def test_workers_invariant(self):
        serial = simulate_links(RSS, n_packets=2, seed=2016, payload_length=30, n_workers=1)
        pooled = simulate_links(RSS, n_packets=2, seed=2016, payload_length=30, n_workers=2)
        for name in serial.psr_percent:
            assert np.array_equal(serial.psr_percent[name], pooled.psr_percent[name])

    def test_identical_sirs_collapse_to_one_point(self):
        rss = np.full((4, 4), -70.0)
        np.fill_diagonal(rss, np.inf)
        simulation = simulate_links(rss, n_packets=2, seed=1, payload_length=30)
        assert simulation.n_links == 12
        assert simulation.n_simulated_points == 1

    def test_duplicate_receiver_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            simulate_links(
                RSS,
                n_packets=2,
                seed=1,
                receivers=(ReceiverSpec("standard"), ReceiverSpec("standard")),
            )

    def test_clean_must_exceed_floor(self):
        with pytest.raises(ValueError, match="clean_sir_db"):
            simulate_links(RSS, n_packets=2, seed=1, clean_sir_db=-50.0, floor_sir_db=-40.0)


class TestNetworkMetrics:
    PSR = np.array(
        [
            [100.0, 10.0, 95.0],
            [50.0, 100.0, 100.0],
            [100.0, 100.0, 100.0],
        ]
    )

    def test_effective_neighbor_counts(self):
        assert list(effective_neighbor_counts(self.PSR, cutoff_percent=90.0)) == [1, 1, 0]
        # Diagonal never counts, even if a PSR matrix had a low diagonal.
        low_diag = self.PSR.copy()
        np.fill_diagonal(low_diag, 0.0)
        assert list(effective_neighbor_counts(low_diag, cutoff_percent=90.0)) == [1, 1, 0]

    def test_cutoff_monotone(self):
        lax = effective_neighbor_counts(self.PSR, cutoff_percent=20.0)
        strict = effective_neighbor_counts(self.PSR, cutoff_percent=99.0)
        assert np.all(lax <= strict)

    def test_conflict_graph_weights(self):
        weights = psr_conflict_graph(self.PSR, cutoff_percent=90.0)
        # Weight is the worst direction's loss fraction: min(10, 50) -> 0.9;
        # no other pair conflicts, and the diagonal is 0.
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 0.9
        assert np.array_equal(weights, expected)
        assert weights[0, 1] == 0.9

    def test_conflict_graph_rejects_dict(self):
        with pytest.raises(TypeError):
            psr_conflict_graph({"standard": self.PSR})

    def test_channel_capacity_estimate(self):
        weights = psr_conflict_graph(self.PSR, cutoff_percent=90.0)
        assert channel_capacity_estimate(weights) == 2
        assert channel_capacity_estimate(np.zeros((5, 5), dtype=bool)) == 1
        assert channel_capacity_estimate(np.zeros((0, 0))) == 0
        assert channel_capacity_estimate(~np.eye(4, dtype=bool)) == 4

    def test_channel_capacity_estimate_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            channel_capacity_estimate(np.zeros((2, 3)))

    def test_colouring_breaks_degree_ties_by_node_index(self):
        # Every node has degree 1 or 2. Taking tied nodes in index order
        # (0, 2, 4, 5, 1, 3) needs 2 channels; in descending index order
        # (5, 4, 2, 0, 3, 1) node 0 meets channels 0 and 1 and needs a third.
        # Largest-first greedy colouring in networkx gives 2.
        path = np.zeros((6, 6), dtype=bool)
        for i, j in ((0, 2), (0, 4), (1, 4), (2, 5), (3, 5)):
            path[i, j] = path[j, i] = True
        assert channel_capacity_estimate(path) == 2
        # Relabelling node k as 5 - k turns index order into descending order.
        assert channel_capacity_estimate(path[::-1, ::-1]) == 3

    @pytest.mark.parametrize("cutoff", [float("nan"), 150.0, 100.000001, 0.0, -10.0])
    def test_cutoff_outside_0_to_100_rejected(self, cutoff):
        with pytest.raises(ValueError, match="cutoff_percent"):
            effective_neighbor_counts(self.PSR, cutoff_percent=cutoff)
        with pytest.raises(ValueError, match="cutoff_percent"):
            psr_conflict_graph(self.PSR, cutoff_percent=cutoff)

    def test_cutoff_of_100_spares_clean_links(self):
        # 100 is the largest valid cutoff: a link at 100% PSR still never
        # conflicts, and every conflict, even at 95% PSR, weighs above 0.
        assert list(effective_neighbor_counts(self.PSR, cutoff_percent=100.0)) == [2, 1, 0]
        weights = psr_conflict_graph(self.PSR, cutoff_percent=100.0)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 0.9
        expected[0, 2] = expected[2, 0] = 1.0 - 95.0 / 100.0
        assert np.array_equal(weights, expected)


class TestTopologyRegistry:
    def test_builtins_registered(self):
        assert {"building", "grid", "random"} <= set(available_topologies())

    def test_building_and_grid_resolve_to_office_building(self):
        building = build_deployment(DeploymentSpec(topology="building"))
        assert isinstance(building, OfficeBuilding)
        assert building.placement_jitter_m == 3.0
        grid = build_deployment(DeploymentSpec(topology="grid"))
        assert isinstance(grid, OfficeBuilding)
        assert grid.placement_jitter_m == 0.0

    def test_random_resolves_and_rejects_jitter(self):
        assert isinstance(
            build_deployment(DeploymentSpec(topology="random")), UniformRandomDeployment
        )
        with pytest.raises(SpecError, match="placement_jitter_m"):
            build_deployment(DeploymentSpec(topology="random", placement_jitter_m=1.0))

    def test_pathloss_parameters_reach_the_model(self):
        deployment = build_deployment(
            DeploymentSpec(topology="grid", path_loss_exponent=2.5, floor_loss_db=10.0)
        )
        assert deployment.pathloss.path_loss_exponent == 2.5
        assert deployment.pathloss.floor_loss_db == 10.0

    def test_unknown_topology_is_actionable(self):
        with pytest.raises(SpecError, match="register_topology"):
            DeploymentSpec(topology="torus").build()

    def test_custom_topology_registration(self):
        @register_topology("test-line", overwrite=True)
        def _line(spec):
            return UniformRandomDeployment(
                n_floors=spec.n_floors, aps_per_floor=spec.aps_per_floor
            )

        deployment = build_deployment(DeploymentSpec(topology="test-line", n_floors=2))
        assert deployment.n_access_points == 16
        with pytest.raises(ValueError, match="already registered"):
            register_topology("test-line")(lambda spec: None)


class TestSimulatedMode:
    def test_run_simulated_analyses_all_topologies(self):
        for topology in ("building", "grid", "random"):
            analyses = fig13_network.run_simulated_analyses(
                TINY,
                DeploymentSpec(topology=topology, n_floors=1, aps_per_floor=2),
                n_realizations=2,
            )
            assert set(analyses) == {"standard", "cprecycle"}
            for analysis in analyses.values():
                assert analysis.counts.shape == (4,)  # 2 realizations x 2 APs
                assert np.all((analysis.counts >= 0) & (analysis.counts <= 1))
                assert len(analysis.channel_estimates) == 2
                assert all(1 <= c <= 2 for c in analysis.channel_estimates)
                support, cdf = analysis.cdf()
                assert cdf[-1] == pytest.approx(1.0)

    def test_simulated_figure_through_spec_facade(self):
        spec = fig13_network.build_spec(mode="simulated")
        assert spec.name == "fig13-simulated"
        assert spec.analysis == "fig13-neighbor-cdf-simulated"
        # Shrink the deployment for test scale, then run end-to-end.
        params = dict(spec.params)
        params["deployment"] = DeploymentSpec(n_floors=2, aps_per_floor=2).to_dict()
        params["n_realizations"] = 2
        import dataclasses

        tiny_spec = dataclasses.replace(spec, params=params)
        result = run_experiment_spec(tiny_spec, TINY)
        assert set(result.series) == {"Standard Receiver", "CPRecycle"}
        for series in result.series.values():
            assert series[-1] == pytest.approx(1.0)
        assert any("greedy-colouring" in note for note in result.notes)

    def test_simulated_workers_invariant(self):
        spec = DeploymentSpec(topology="grid", n_floors=1, aps_per_floor=3)
        serial = fig13_network.run_simulated_analyses(
            TINY, spec, n_realizations=2, n_workers=1
        )
        pooled = fig13_network.run_simulated_analyses(
            TINY, spec, n_realizations=2, n_workers=2
        )
        for name in serial:
            assert np.array_equal(serial[name].counts, pooled[name].counts)
            assert serial[name].channel_estimates == pooled[name].channel_estimates

    def test_simulated_resumes_from_point_cache(self, tmp_path, monkeypatch):
        from repro.experiments.store import CACHE_ENV_VAR

        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        spec = DeploymentSpec(topology="grid", n_floors=1, aps_per_floor=2)
        first = fig13_network.run_simulated_analyses(TINY, spec, n_realizations=1)
        cache_files = list(tmp_path.glob("*.json"))
        assert cache_files, "link sweep points were not persisted"
        # A second run must reuse the cached link outcomes bit-identically.
        again = fig13_network.run_simulated_analyses(TINY, spec, n_realizations=1)
        for name in first:
            assert np.array_equal(first[name].counts, again[name].counts)

    def test_threshold_mode_accepts_deployment_dict(self):
        analyses = fig13_network.run_analyses(
            TINY,
            building=DeploymentSpec(topology="grid", n_floors=1, aps_per_floor=2).to_dict(),
            n_realizations=1,
        )
        assert analyses["standard"].counts.shape == (2,)

    def test_simulated_mode_accepts_built_deployment(self):
        built = OfficeBuilding(n_floors=1, aps_per_floor=2, placement_jitter_m=0.0)
        analyses = fig13_network.run_simulated_analyses(TINY, built, n_realizations=1)
        assert analyses["standard"].counts.shape == (2,)

    def test_unrecognised_deployment_rejected(self):
        with pytest.raises(TypeError, match="DeploymentSpec"):
            fig13_network.run_simulated_analyses(TINY, "building", n_realizations=1)
        with pytest.raises(TypeError, match="DeploymentSpec"):
            fig13_network.run_analyses(TINY, building=42, n_realizations=1)

    def test_zero_realizations_rejected_eagerly(self):
        with pytest.raises(ValueError, match="n_realizations"):
            fig13_network.run_simulated_analyses(TINY, n_realizations=0)
        with pytest.raises(ValueError, match="n_realizations"):
            fig13_network.run_analyses(TINY, n_realizations=0)

    @pytest.mark.parametrize("cutoff", [float("nan"), 150.0, 0.0])
    def test_bad_cutoff_spec_param_rejected_before_simulating(self, cutoff, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("links were simulated before cutoff_percent was checked")

        monkeypatch.setattr(fig13_network, "simulate_link_matrices", no_simulation)
        spec = fig13_network.build_spec(mode="simulated")
        params = dict(spec.params, cutoff_percent=cutoff)
        with pytest.raises(ValueError, match="cutoff_percent"):
            run_experiment_spec(dataclasses.replace(spec, params=params), TINY)

    def test_build_spec_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            fig13_network.build_spec(mode="oracle")
