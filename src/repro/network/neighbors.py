"""Interfering-neighbour analysis (paper Fig. 13).

An access point treats another AP as an *interfering neighbour* when the
other AP's signal arrives above the receiver's interference-tolerance
threshold (in 802.11 terms, above the energy level at which concurrent
transmission corrupts packets).  Because CPRecycle tolerates roughly 15 dB
more co-channel interference (paper Fig. 11), the effective threshold rises
by that amount and the neighbour count per AP drops — which is the network
capacity argument of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "count_interfering_neighbors",
    "neighbor_cdf",
    "interference_graph",
    "NeighborAnalysis",
]

#: Default interference threshold: roughly the 802.11 energy-detection level.
DEFAULT_THRESHOLD_DBM = -82.0


def count_interfering_neighbors(rss_dbm: np.ndarray, threshold_dbm: float) -> np.ndarray:
    """Number of APs heard above ``threshold_dbm`` by each AP (diagonal excluded)."""
    rss = np.asarray(rss_dbm, dtype=float)
    if rss.ndim != 2 or rss.shape[0] != rss.shape[1]:
        raise ValueError("rss_dbm must be a square matrix")
    mask = rss >= threshold_dbm
    np.fill_diagonal(mask, False)
    return mask.sum(axis=1)


def neighbor_cdf(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of neighbour counts: returns (support, probability)."""
    counts = np.asarray(counts)
    if counts.size == 0:
        raise ValueError("counts must not be empty")
    support = np.arange(0, counts.max() + 1)
    cdf = np.array([(counts <= value).mean() for value in support])
    return support, cdf


def interference_graph(rss_dbm: np.ndarray, threshold_dbm: float) -> np.ndarray:
    """Undirected conflict graph as a symmetric boolean adjacency matrix.

    ``[i, j]`` is true when AP ``i`` hears AP ``j`` above ``threshold_dbm``
    or the other way round; the diagonal is false.  The matrix feeds
    network-capacity style analyses (e.g. greedy colouring via
    :func:`repro.network.links.channel_capacity_estimate` as a proxy for the
    number of non-conflicting channel slots).
    """
    rss = np.asarray(rss_dbm, dtype=float)
    if rss.ndim != 2 or rss.shape[0] != rss.shape[1]:
        raise ValueError("rss_dbm must be a square matrix")
    mask = (rss >= threshold_dbm) | (rss.T >= threshold_dbm)
    np.fill_diagonal(mask, False)
    return mask


@dataclass(frozen=True)
class NeighborAnalysis:
    """Neighbour statistics for one receiver type."""

    label: str
    threshold_dbm: float
    counts: np.ndarray

    @property
    def mean(self) -> float:
        """Average number of interfering neighbours per AP."""
        return float(np.mean(self.counts))

    @property
    def percentile80(self) -> float:
        """80th percentile of the neighbour count (the paper's headline stat)."""
        return float(np.percentile(self.counts, 80))

    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Empirical CDF of the neighbour counts."""
        return neighbor_cdf(self.counts)
