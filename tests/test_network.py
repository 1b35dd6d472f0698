"""Unit tests for the network-level analysis (Fig. 13 substrate)."""

import numpy as np
import pytest

from repro.network.building import OfficeBuilding, UniformRandomDeployment
from repro.network.neighbors import (
    NeighborAnalysis,
    count_interfering_neighbors,
    interference_graph,
    neighbor_cdf,
)
from repro.network.pathloss import IndoorPathLossModel, received_power_dbm


class TestPathLoss:
    def test_monotone_in_distance(self):
        model = IndoorPathLossModel(shadowing_sigma_db=0.0)
        losses = model.path_loss_db(np.array([1.0, 10.0, 50.0]))
        assert losses[0] < losses[1] < losses[2]

    def test_floor_penalty(self):
        model = IndoorPathLossModel(shadowing_sigma_db=0.0)
        assert model.path_loss_db(10.0, n_floors=2) == pytest.approx(
            model.path_loss_db(10.0) + 2 * model.floor_loss_db
        )

    def test_reference_distance_clamp(self):
        model = IndoorPathLossModel(shadowing_sigma_db=0.0)
        assert model.path_loss_db(0.01) == pytest.approx(model.path_loss_db(1.0))

    def test_received_power(self):
        model = IndoorPathLossModel(shadowing_sigma_db=0.0)
        assert received_power_dbm(20.0, 1.0, model) == pytest.approx(20.0 - model.reference_loss_db)

    def test_shadowing_sampling(self):
        model = IndoorPathLossModel(shadowing_sigma_db=6.0)
        samples = model.sample_shadowing((1000,), np.random.default_rng(0))
        assert np.std(samples) == pytest.approx(6.0, rel=0.15)

    def test_zero_shadowing(self):
        model = IndoorPathLossModel(shadowing_sigma_db=0.0)
        assert not np.any(model.sample_shadowing((10,), np.random.default_rng(0)))


class TestBuilding:
    def test_deployment_size_matches_paper(self):
        building = OfficeBuilding()
        aps = building.deploy(0)
        assert len(aps) == 40
        assert building.n_access_points == 40
        assert {ap.floor for ap in aps} == set(range(5))

    def test_positions_within_footprint(self):
        building = OfficeBuilding()
        for ap in building.deploy(1):
            assert 0.0 <= ap.x <= building.floor_width_m
            assert 0.0 <= ap.y <= building.floor_depth_m

    def test_rss_matrix_properties(self):
        building = OfficeBuilding()
        aps = building.deploy(2)
        rss = building.pairwise_rss_dbm(aps, 2)
        assert rss.shape == (40, 40)
        assert np.all(np.isinf(np.diag(rss)))
        off_diagonal = rss[~np.eye(40, dtype=bool)]
        assert off_diagonal.max() < building.tx_power_dbm

    def test_same_floor_neighbors_stronger_on_average(self):
        building = OfficeBuilding()
        aps = building.deploy(3)
        rss = building.pairwise_rss_dbm(aps, 3)
        floors = np.array([ap.floor for ap in aps])
        same = floors[:, None] == floors[None, :]
        off_diag = ~np.eye(40, dtype=bool)
        assert rss[same & off_diag].mean() > rss[~same].mean()

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            OfficeBuilding(n_floors=0)
        with pytest.raises(ValueError):
            OfficeBuilding(floor_width_m=0.0)

    def test_single_column_layout_is_centered(self):
        # One-column floors used to collapse onto x = 10% of the span
        # (np.linspace(0.1, 0.9, 1) == [0.1]); they must sit at the middle.
        building = OfficeBuilding(
            n_floors=1, aps_per_floor=3, floor_width_m=10.0, floor_depth_m=80.0,
            placement_jitter_m=0.0,
        )
        aps = building.deploy(0)
        assert all(ap.x == pytest.approx(5.0) for ap in aps)
        assert len({ap.y for ap in aps}) == 3

    def test_single_row_layout_is_centered(self):
        building = OfficeBuilding(
            n_floors=1, aps_per_floor=3, floor_width_m=80.0, floor_depth_m=10.0,
            placement_jitter_m=0.0,
        )
        aps = building.deploy(0)
        assert all(ap.y == pytest.approx(5.0) for ap in aps)
        assert len({ap.x for ap in aps}) == 3

    def test_single_ap_sits_at_floor_center(self):
        building = OfficeBuilding(n_floors=2, aps_per_floor=1, placement_jitter_m=0.0)
        for ap in building.deploy(0):
            assert (ap.x, ap.y) == (pytest.approx(40.0), pytest.approx(20.0))

    def test_truncated_grid_keeps_requested_count(self):
        # 7 APs on a 4x2 grid: the last row is truncated, every floor still
        # deploys exactly aps_per_floor distinct in-footprint positions.
        building = OfficeBuilding(n_floors=2, aps_per_floor=7, placement_jitter_m=0.0)
        aps = building.deploy(0)
        assert len(aps) == 14
        floor0 = [(ap.x, ap.y) for ap in aps if ap.floor == 0]
        assert len(set(floor0)) == 7
        for ap in aps:
            assert 0.0 <= ap.x <= building.floor_width_m
            assert 0.0 <= ap.y <= building.floor_depth_m

    def test_default_layout_unchanged_by_refactor(self):
        # The paper's 5x8 deployment draws the same jittered positions as the
        # pre-refactor implementation for the same generator (values pinned
        # from the original single-class OfficeBuilding at seed 7).
        aps = OfficeBuilding().deploy(7)
        assert (aps[0].x, aps[0].y) == (pytest.approx(8.00369, abs=1e-5),
                                        pytest.approx(4.896237, abs=1e-5))
        assert (aps[2].x, aps[2].y) == (pytest.approx(49.302654, abs=1e-5),
                                        pytest.approx(1.02506, abs=1e-5))
        assert OfficeBuilding().deploy(7) == aps

    def test_rss_reciprocity_up_to_tx_power(self):
        # Distance, floor penetration and (symmetrised) shadowing are all
        # reciprocal, and every AP transmits at the same power, so the RSS
        # matrix itself is symmetric.
        building = OfficeBuilding()
        rss = building.pairwise_rss_dbm(building.deploy(4), 4)
        off_diag = ~np.eye(rss.shape[0], dtype=bool)
        assert np.allclose(rss[off_diag], rss.T[off_diag])


class TestUniformRandomDeployment:
    def test_positions_within_footprint_and_reproducible(self):
        deployment = UniformRandomDeployment(n_floors=3, aps_per_floor=5)
        aps = deployment.deploy(11)
        assert len(aps) == deployment.n_access_points == 15
        for ap in aps:
            assert 0.0 <= ap.x <= deployment.floor_width_m
            assert 0.0 <= ap.y <= deployment.floor_depth_m
        assert deployment.deploy(11) == aps
        assert deployment.deploy(12) != aps

    def test_rss_matrix_shape(self):
        deployment = UniformRandomDeployment(n_floors=1, aps_per_floor=4)
        rss = deployment.pairwise_rss_dbm(deployment.deploy(0), 0)
        assert rss.shape == (4, 4)
        assert np.all(np.isinf(np.diag(rss)))


class TestNeighbors:
    def test_count_threshold_monotone(self):
        building = OfficeBuilding()
        rss = building.pairwise_rss_dbm(building.deploy(0), 0)
        low = count_interfering_neighbors(rss, -90.0)
        high = count_interfering_neighbors(rss, -60.0)
        assert np.all(high <= low)

    def test_counts_exclude_self(self):
        rss = np.full((4, 4), -50.0)
        np.fill_diagonal(rss, np.inf)
        assert np.array_equal(count_interfering_neighbors(rss, -60.0), [3, 3, 3, 3])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            count_interfering_neighbors(np.zeros((2, 3)), -60.0)

    def test_cdf_reaches_one(self):
        support, cdf = neighbor_cdf(np.array([0, 1, 1, 3]))
        assert cdf[-1] == pytest.approx(1.0)
        assert np.all(np.diff(cdf) >= 0)
        assert list(support) == [0, 1, 2, 3]

    def test_cdf_empty_rejected(self):
        with pytest.raises(ValueError):
            neighbor_cdf(np.array([]))

    def test_interference_graph(self):
        rss = np.array([[np.inf, -50.0, -95.0], [-50.0, np.inf, -95.0], [-95.0, -95.0, np.inf]])
        graph = interference_graph(rss, -82.0)
        expected = np.array([[False, True, False], [True, False, False], [False, False, False]])
        assert graph.dtype == bool
        assert np.array_equal(graph, expected)

    def test_interference_graph_asymmetric_hearing(self):
        # One direction above threshold suffices for a conflict edge.
        rss = np.full((3, 3), -100.0)
        np.fill_diagonal(rss, np.inf)
        rss[0, 1] = -70.0  # AP 0 hears AP 1; AP 1 does not hear AP 0
        graph = interference_graph(rss, -82.0)
        assert np.argwhere(graph).tolist() == [[0, 1], [1, 0]]

    def test_interference_graph_matches_reference_loop(self):
        # The vectorised adjacency matrix is equivalent to the original
        # O(n^2) Python double loop on an arbitrary asymmetric matrix.
        rng = np.random.default_rng(3)
        n = 50
        rss = rng.uniform(-110.0, -50.0, size=(n, n))
        np.fill_diagonal(rss, np.inf)
        threshold = -82.0
        expected = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if rss[i, j] >= threshold or rss[j, i] >= threshold:
                    expected[i, j] = expected[j, i] = True
        graph = interference_graph(rss, threshold)
        assert graph.dtype == bool
        assert np.array_equal(graph, expected)
        assert not graph.diagonal().any()

    def test_interference_graph_rejects_non_square(self):
        with pytest.raises(ValueError):
            interference_graph(np.zeros((2, 3)), -82.0)

    def test_analysis_statistics(self):
        analysis = NeighborAnalysis("test", -82.0, np.array([2, 4, 6, 8, 10]))
        assert analysis.mean == pytest.approx(6.0)
        assert analysis.percentile80 == pytest.approx(8.4, rel=0.05)
        support, cdf = analysis.cdf()
        assert cdf[-1] == 1.0

    def test_higher_threshold_reduces_neighbors_building_scale(self):
        # The Fig. 13 effect: raising the tolerance threshold by 15 dB roughly
        # halves the neighbour count in the synthetic office.
        building = OfficeBuilding()
        rss = building.pairwise_rss_dbm(building.deploy(5), 5)
        standard = count_interfering_neighbors(rss, -82.0)
        cprecycle = count_interfering_neighbors(rss, -82.0 + 15.0)
        assert cprecycle.mean() < standard.mean()
