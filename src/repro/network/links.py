"""Per-link interference simulation for network deployments (Fig. 13).

This module closes the loop between the link layer and the network layer:
instead of shifting a detection threshold by a fixed CPRecycle gain, it
derives one co-channel interference scenario *per AP pair* from the
deployment's pairwise RSS matrix and runs the scenarios through the shared
sweep-execution machinery — the same declarative
:class:`~repro.api.specs.ScenarioSpec` / :class:`SweepPoint` path the PSR
figures use, so ``--workers`` and the persistent point cache
(``REPRO_RESULT_CACHE``) apply at network scale.

The link model, per ordered AP pair ``(i, j)``:

* AP ``i`` receives its own transmission at a reference ``signal_dbm`` and
  the operating-point SNR of the chosen MCS (shared by every link);
* AP ``j`` is the link's *dominant interferer*: a co-channel transmitter
  whose SIR at ``i`` is ``signal_dbm - rss[i, j]`` (aggregate interference
  from the remaining APs is deliberately ignored — each link isolates one
  interferer, matching the paper's pairwise survey);
* the scenario is simulated for every receiver under test and AP ``j``
  counts as an *effective neighbour* of ``i`` when the simulated packet
  success rate falls below a cutoff.

Simulating every ordered pair naively would cost ``n * (n - 1)`` full link
simulations per realization, although many links sit at nearly identical
SIRs.  :func:`simulate_links` therefore quantizes SIRs to a configurable
grid (``sir_quantize_db``), clamps hopeless links to a floor, skips links
whose interferer is too weak to matter (``clean_sir_db``), and simulates
each *unique* quantized SIR exactly once — thousands of links typically
collapse to a few dozen sweep points, every one an independently seeded,
cache-keyed :class:`~repro.experiments.sweeps.SweepPoint`.

On top of the per-link PSR matrices, :func:`effective_neighbor_counts`,
:func:`psr_conflict_graph` and :func:`channel_capacity_estimate` provide
the network metrics of the paper's capacity argument: neighbour counts per
AP, a PSR-weighted conflict graph (an ``(n, n)`` matrix) and a
greedy-colouring estimate of how many orthogonal channels the deployment
needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.specs import InterfererSpec, ReceiverSpec, ScenarioSpec
from repro.experiments.sweeps import SweepPoint, execute_points, run_sweep_point

__all__ = [
    "DEFAULT_SIGNAL_DBM",
    "DEFAULT_CUTOFF_PERCENT",
    "link_sir_db",
    "quantize_sir_db",
    "link_scenario",
    "LinkSimulation",
    "simulate_links",
    "simulate_link_matrices",
    "effective_neighbor_counts",
    "psr_conflict_graph",
    "channel_capacity_estimate",
    "SimulatedNeighborAnalysis",
]

#: Reference received power of each AP's own (desired) transmission.  With
#: the default 20 dBm transmit power and the indoor model this corresponds
#: to a client a few metres from its AP.
DEFAULT_SIGNAL_DBM = -60.0

#: PSR below which a link's interferer counts as an effective neighbour.
DEFAULT_CUTOFF_PERCENT = 90.0

#: Links whose dominant-interferer SIR is at least this are interference
#: free for every receiver under test; they are not simulated.
DEFAULT_CLEAN_SIR_DB = 40.0

#: SIR floor: links below it are hopeless for every receiver and share one
#: simulated point at the floor instead of one point per distinct SIR.
DEFAULT_FLOOR_SIR_DB = -40.0


def _require_square(rss_dbm: np.ndarray) -> np.ndarray:
    rss = np.asarray(rss_dbm, dtype=float)
    if rss.ndim != 2 or rss.shape[0] != rss.shape[1]:
        raise ValueError("rss_dbm must be a square matrix")
    return rss


def link_sir_db(rss_dbm: np.ndarray, signal_dbm: float = DEFAULT_SIGNAL_DBM) -> np.ndarray:
    """Dominant-interferer SIR of every ordered AP pair.

    Entry ``[i, j]`` is the SIR at receiver ``i`` when AP ``j`` transmits
    concurrently: the reference desired-signal power minus ``j``'s received
    power at ``i``.  The diagonal (an AP interfering with itself) is
    ``+inf`` — no interference.
    """
    rss = _require_square(rss_dbm)
    sir = signal_dbm - rss
    np.fill_diagonal(sir, np.inf)
    return sir


def quantize_sir_db(
    sir_db: np.ndarray,
    step_db: float = 0.5,
    floor_db: float = DEFAULT_FLOOR_SIR_DB,
) -> np.ndarray:
    """Snap SIRs onto a ``step_db`` grid, clamped below at ``floor_db``.

    A step of 0 disables quantization (every distinct SIR becomes its own
    sweep point).  Non-finite entries (the diagonal) pass through.
    """
    if step_db < 0:
        raise ValueError(f"step_db must be >= 0, got {step_db}")
    sir = np.asarray(sir_db, dtype=float)
    finite = np.isfinite(sir)
    quantized = sir.copy()
    if step_db > 0:
        quantized[finite] = np.round(sir[finite] / step_db) * step_db
    quantized[finite] = np.maximum(quantized[finite], floor_db)
    return quantized


def link_scenario(
    sir_db: float,
    mcs_name: str = "qpsk-1/2",
    snr_db: float | None = None,
    payload_length: int | None = None,
) -> ScenarioSpec:
    """The declarative scenario of one network link.

    A single co-channel interferer at the link's dominant-interferer SIR on
    the standard 802.11g allocation — the Fig. 11 geometry, which is what
    the paper's 15 dB network-level tolerance gain was read from.
    """
    return ScenarioSpec(
        mcs_name=mcs_name,
        payload_length=payload_length,
        snr_db=snr_db,
        sir_db=float(sir_db),
        interferers=(InterfererSpec(kind="cci"),),
    )


DEFAULT_RECEIVERS = (ReceiverSpec("standard"), ReceiverSpec("cprecycle"))


@dataclass(frozen=True)
class LinkSimulation:
    """Simulated packet success rates of every link in one deployment.

    ``psr_percent`` maps each receiver name to an ``(n, n)`` matrix whose
    ``[i, j]`` entry is the simulated PSR of AP ``i``'s link while AP ``j``
    interferes; the diagonal and interference-free links are 100.
    ``sir_db`` records the quantized SIR each link was attributed.
    """

    psr_percent: dict[str, np.ndarray]
    sir_db: np.ndarray
    n_links: int
    n_simulated_points: int
    n_clean_links: int

    @property
    def n_access_points(self) -> int:
        """Number of APs in the simulated deployment."""
        return self.sir_db.shape[0]


def simulate_link_matrices(
    rss_matrices: list[np.ndarray],
    *,
    n_packets: int,
    seed: int,
    receivers: tuple[ReceiverSpec, ...] = DEFAULT_RECEIVERS,
    signal_dbm: float = DEFAULT_SIGNAL_DBM,
    mcs_name: str = "qpsk-1/2",
    snr_db: float | None = None,
    payload_length: int | None = None,
    sir_quantize_db: float = 0.5,
    clean_sir_db: float = DEFAULT_CLEAN_SIR_DB,
    floor_sir_db: float = DEFAULT_FLOOR_SIR_DB,
    n_workers: int | None = None,
) -> list[LinkSimulation]:
    """Simulate the links of several RSS matrices through *one* sweep.

    Builds one :class:`~repro.api.specs.ScenarioSpec` per unique quantized
    link SIR across **all** matrices (Monte-Carlo realizations share points
    wherever their quantized SIRs coincide), fans the resulting
    :class:`SweepPoint` tasks through one
    :func:`repro.experiments.sweeps.execute_points` call — so the process
    pool spawns once and the persistent point cache applies — and scatters
    the per-receiver success rates back onto each ``(n, n)`` link matrix.
    All randomness derives from ``seed`` inside each task, so results are
    identical for any worker count.
    """
    if clean_sir_db <= floor_sir_db:
        raise ValueError(
            f"clean_sir_db ({clean_sir_db}) must exceed floor_sir_db ({floor_sir_db})"
        )
    names = [spec.name for spec in receivers]
    if len(set(names)) != len(names):
        raise ValueError(f"receiver names must be unique, got {names}")

    sirs = [
        quantize_sir_db(link_sir_db(_require_square(rss), signal_dbm), sir_quantize_db, floor_sir_db)
        for rss in rss_matrices
    ]
    masks = []
    unique_sirs: set[float] = set()
    for sir in sirs:
        off_diagonal = ~np.eye(sir.shape[0], dtype=bool)
        simulate_mask = off_diagonal & (sir < clean_sir_db)
        # Distinct values as a Python set: np.unique imports numpy.ma.
        values = sorted(set(sir[simulate_mask].tolist()))
        masks.append((off_diagonal, simulate_mask, values))
        unique_sirs.update(values)
    grid = sorted(unique_sirs)

    points = [
        SweepPoint(
            scenario=link_scenario(
                value, mcs_name=mcs_name, snr_db=snr_db, payload_length=payload_length
            ),
            receivers=tuple(receivers),
            n_packets=n_packets,
            seed=seed,
        )
        for value in grid
    ]
    outcomes = execute_points(run_sweep_point, points, n_workers=n_workers)
    psr_of = dict(zip(grid, outcomes))

    simulations = []
    for sir, (off_diagonal, simulate_mask, values) in zip(sirs, masks):
        n = sir.shape[0]
        psr = {name: np.full((n, n), 100.0) for name in names}
        for value in values:
            cell = simulate_mask & (sir == value)
            outcome = psr_of[value]
            for name in names:
                psr[name][cell] = outcome[name]
        simulations.append(
            LinkSimulation(
                psr_percent=psr,
                sir_db=sir,
                n_links=int(off_diagonal.sum()),
                n_simulated_points=len(points),
                n_clean_links=int((off_diagonal & ~simulate_mask).sum()),
            )
        )
    return simulations


def simulate_links(rss_dbm: np.ndarray, **kwargs) -> LinkSimulation:
    """Single-deployment convenience wrapper of :func:`simulate_link_matrices`."""
    return simulate_link_matrices([rss_dbm], **kwargs)[0]


# --------------------------------------------------------------------------- #
# Network metrics on simulated PSR                                            #
# --------------------------------------------------------------------------- #
def _require_cutoff(cutoff_percent: float) -> None:
    # The negated range test also rejects NaN, which compares false to all.
    if not 0.0 < cutoff_percent <= 100.0:
        raise ValueError(f"cutoff_percent must be in (0, 100], got {cutoff_percent}")


def effective_neighbor_counts(
    psr_percent: np.ndarray, cutoff_percent: float = DEFAULT_CUTOFF_PERCENT
) -> np.ndarray:
    """Effective interfering neighbours per AP from simulated link PSR.

    AP ``j`` is an effective neighbour of AP ``i`` when the simulated PSR of
    ``i``'s link under ``j``'s interference falls below ``cutoff_percent`` —
    the simulated analogue of the threshold-mode RSS comparison.
    ``cutoff_percent`` must lie in (0, 100].
    """
    _require_cutoff(cutoff_percent)
    psr = _require_square(psr_percent)
    mask = psr < cutoff_percent
    np.fill_diagonal(mask, False)
    return mask.sum(axis=1)


def psr_conflict_graph(
    psr_percent: np.ndarray,
    cutoff_percent: float = DEFAULT_CUTOFF_PERCENT,
) -> np.ndarray:
    """PSR-weighted conflict graph of a simulated deployment, as a matrix.

    Returns the symmetric ``(n, n)`` edge-weight matrix.  APs ``i`` and
    ``j`` conflict when either direction's link PSR falls below the cutoff;
    the weight is then the worst direction's packet-loss fraction
    (1 - PSR/100), so heavier edges mark harsher conflicts.  Entries without
    a conflict, and the diagonal, are 0.  Since ``cutoff_percent`` lies in
    (0, 100], every conflict weighs more than 0, and ``weights != 0`` is
    the adjacency matrix.
    """
    if isinstance(psr_percent, dict):
        raise TypeError(
            "psr_conflict_graph takes one receiver's PSR matrix; index "
            "LinkSimulation.psr_percent by receiver name first"
        )
    _require_cutoff(cutoff_percent)
    psr = _require_square(psr_percent)
    worst = np.minimum(psr, psr.T)
    conflict = worst < cutoff_percent
    np.fill_diagonal(conflict, False)
    return np.where(conflict, 1.0 - worst / 100.0, 0.0)


def channel_capacity_estimate(graph: np.ndarray) -> int:
    """Orthogonal channels needed so no conflicting APs share one.

    ``graph`` is a square matrix whose nonzero off-diagonal entries are the
    conflicts (the output of :func:`psr_conflict_graph` or
    :func:`repro.network.neighbors.interference_graph`).  Greedy colouring,
    largest degree first with degree ties taken in node order; each node
    gets the smallest channel no coloured neighbour holds.  The channel
    count is the paper's network-capacity proxy — fewer conflicts
    (CPRecycle's raised tolerance) colour with fewer channels.
    """
    adjacency = np.asarray(graph) != 0
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("graph must be a square matrix")
    np.fill_diagonal(adjacency, False)
    channels = np.full(adjacency.shape[0], -1)
    for node in np.argsort(-adjacency.sum(axis=1), kind="stable"):
        taken = set(channels[adjacency[node]].tolist())
        channel = 0
        while channel in taken:
            channel += 1
        channels[node] = channel
    return int(channels.max(initial=-1)) + 1


@dataclass(frozen=True)
class SimulatedNeighborAnalysis:
    """Simulated-mode neighbour statistics for one receiver type."""

    label: str
    cutoff_percent: float
    counts: np.ndarray
    channel_estimates: tuple[int, ...]

    @property
    def mean(self) -> float:
        """Average number of effective interfering neighbours per AP."""
        return float(np.mean(self.counts))

    @property
    def percentile80(self) -> float:
        """80th percentile of the neighbour count (the paper's headline stat)."""
        return float(np.percentile(self.counts, 80))

    @property
    def mean_channels(self) -> float:
        """Average greedy-colouring channel estimate over realizations."""
        return float(np.mean(self.channel_estimates))

    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Empirical CDF of the neighbour counts."""
        from repro.network.neighbors import neighbor_cdf

        return neighbor_cdf(self.counts)
