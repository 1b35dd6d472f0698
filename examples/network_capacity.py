"""Network-level impact: interfering neighbours in a dense office WLAN.

Reproduces the Figure 13 analysis interactively: a five-floor office with 40
access points, an indoor path-loss model, and the number of interfering
neighbours each AP sees with a standard receiver versus with CPRecycle
(which tolerates ~15 dB more co-channel interference).  Also colours the
resulting conflict graphs as a rough proxy for how many non-conflicting
transmission slots the deployment supports.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.fig13_network import CPRECYCLE_TOLERANCE_GAIN_DB
from repro.network import (
    DEFAULT_THRESHOLD_DBM,
    OfficeBuilding,
    channel_capacity_estimate,
    count_interfering_neighbors,
    interference_graph,
)


def main() -> None:
    building = OfficeBuilding()
    access_points = building.deploy(rng=1)
    rss = building.pairwise_rss_dbm(access_points, rng=1)

    standard_counts = count_interfering_neighbors(rss, DEFAULT_THRESHOLD_DBM)
    cpr_counts = count_interfering_neighbors(
        rss, DEFAULT_THRESHOLD_DBM + CPRECYCLE_TOLERANCE_GAIN_DB
    )

    print(f"Office deployment: {building.n_floors} floors x {building.aps_per_floor} APs")
    print(f"Interference threshold: {DEFAULT_THRESHOLD_DBM:.0f} dBm "
          f"(CPRecycle: +{CPRECYCLE_TOLERANCE_GAIN_DB:.0f} dB)\n")
    print(f"{'receiver':>12} | {'mean neighbours':>15} {'80th percentile':>16} {'max':>5}")
    print("-" * 56)
    for label, counts in (("standard", standard_counts), ("CPRecycle", cpr_counts)):
        print(f"{label:>12} | {counts.mean():15.1f} {np.percentile(counts, 80):16.0f} "
              f"{counts.max():5d}")

    print("\nConflict-graph colouring (greedy) as a proxy for reusable channel slots:")
    for label, threshold in (
        ("standard", DEFAULT_THRESHOLD_DBM),
        ("CPRecycle", DEFAULT_THRESHOLD_DBM + CPRECYCLE_TOLERANCE_GAIN_DB),
    ):
        conflicts = interference_graph(rss, threshold)
        n_edges = int(np.triu(conflicts).sum())
        print(f"  {label:>10}: {n_edges:4d} conflict edges, "
              f"{channel_capacity_estimate(conflicts)} colours needed")


if __name__ == "__main__":
    main()
