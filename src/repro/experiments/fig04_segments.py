"""Figure 4 — the opportunity in the cyclic prefix.

(a) Interference power per subcarrier for the standard FFT window versus the
    Oracle's best-segment choice (ACI at -20 dB SIR).  The Oracle picks, per
    subcarrier, the segment with the least interference averaged over the
    packet's data symbols; it lies below the standard receiver across the
    sender's band, by a median of 2.5-4.1 dB over the sender's subcarriers
    (at most 4.9-6.7 dB) at seeds 1, 7 and 11, not the paper's 20 dB.  No
    segment stays best from symbol to symbol here (see
    :mod:`repro.core.interference_model`), so a pick made once per packet
    gains little.
(b) Interference power versus FFT segment index on a subcarrier adjacent to
    the interferer band for SIR -10/-20/-30 dB: the power varies by tens of
    dB across segments, and the best segment is generally not the standard
    (last) one.
(c) A constellation-plane illustration (BPSK, five segments): most segments
    cluster near the transmitted lattice point while an outlier segment sits
    near the other point — the situation that defeats the naive decoder.

Panel (b) is the builtin ``fig4`` experiment:
``run_experiment_spec(build_spec(), profile, n_workers=...)`` runs it through
the registered ``fig4-segment-profile`` analysis, which is
:func:`run_segment_profile` itself.  Panels (a) and (c) are library
functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import ExperimentSpec, register_analysis
from repro.core.oracle import interference_power_per_segment
from repro.experiments.config import ExperimentProfile, aci_scenario, default_profile
from repro.experiments.results import FigureResult
from repro.experiments.sweeps import execute_points
from repro.receiver.frontend import FrontEnd
from repro.utils.dsp import linear_to_db
from repro.utils.rng import child_rng

__all__ = [
    "build_spec",
    "run_subcarrier_profile",
    "run_segment_profile",
    "run_constellation",
]

#: Number of FFT segments used in the paper's Fig. 4 analysis.
N_SEGMENTS = 16


def _analysis_front_end() -> FrontEnd:
    return FrontEnd(n_segments=N_SEGMENTS)


def run_subcarrier_profile(
    profile: ExperimentProfile | None = None, sir_db: float = -20.0, seed: int | None = None
) -> FigureResult:
    """Figure 4a: interference power per subcarrier, standard vs Oracle."""
    profile = profile or default_profile()
    scenario = aci_scenario(
        "qpsk-1/2", sir_db=sir_db, payload_length=profile.payload_length, edge_window_length=0
    )
    rx = scenario.realize(child_rng(profile.seed if seed is None else seed, 4, 1))
    # The per-subcarrier mask analysis uses every ISI-free CP sample, i.e. the
    # full set of segments available to the Oracle.
    front = FrontEnd(max_segments=rx.allocation.cp_length).process(rx)
    power = interference_power_per_segment(rx, front)  # (P, n_symbols, fft)
    mean_power = power.mean(axis=1)                    # (P, fft)
    standard = mean_power[-1]
    oracle = mean_power.min(axis=0)
    # Normalise to the peak interference power, as in the paper's plot.
    reference = float(mean_power.max())
    bins = list(range(rx.allocation.fft_size))
    return FigureResult(
        figure="Figure 4a",
        title=f"Per-subcarrier interference power, ACI at {sir_db:g} dB SIR",
        x_label="Subcarrier index",
        x_values=bins,
        y_label="Interference power (dB, normalised)",
        series={
            "Standard Receiver": list(linear_to_db(standard / reference)),
            "Oracle Receiver": list(linear_to_db(oracle / reference)),
        },
        notes=[
            "sender occupies subcarriers 1-64, interferer 69-132 (4-subcarrier guard band)",
            "Oracle picks, per subcarrier, the FFT segment with the least interference",
        ],
    )


@dataclass(frozen=True)
class _SegmentProfileTask:
    """One SIR point of the Fig. 4b segment-profile analysis (picklable)."""

    sir_db: float
    payload_length: int
    seed: int
    subcarrier_offset_from_edge: int


def _segment_profile_point(task: _SegmentProfileTask) -> list[float]:
    """Per-segment normalised interference power (dB) for one SIR value.

    Module-level so it pickles into pool workers; all randomness derives from
    ``task.seed``.
    """
    scenario = aci_scenario(
        "qpsk-1/2", sir_db=task.sir_db, payload_length=task.payload_length, edge_window_length=0
    )
    rx = scenario.realize(child_rng(task.seed, 4, 2))
    front = _analysis_front_end().process(rx)
    power = interference_power_per_segment(rx, front)
    # Pick a data subcarrier close to the interferer band edge (paper: 63).
    occupied = rx.allocation.occupied_bin_array()
    target_bin = int(occupied.max()) - task.subcarrier_offset_from_edge
    per_segment = power[:, :, target_bin].mean(axis=1)
    normalised = per_segment / per_segment.max()
    return [float(value) for value in linear_to_db(normalised)]


@register_analysis("fig4-segment-profile")
def run_segment_profile(
    profile: ExperimentProfile | None = None,
    sir_values_db: tuple[float, ...] = (-10.0, -20.0, -30.0),
    subcarrier_offset_from_edge: int = 4,
    n_workers: int | None = None,
) -> FigureResult:
    """Figure 4b: interference power per FFT segment on an edge subcarrier.

    Each SIR value is one task on the shared sweep-execution layer, so
    ``--workers`` and the persistent point cache apply.
    """
    profile = profile or default_profile()
    x_values = list(range(1, N_SEGMENTS + 1))
    tasks = [
        _SegmentProfileTask(
            sir_db=sir_db,
            payload_length=profile.payload_length,
            seed=profile.seed,
            subcarrier_offset_from_edge=subcarrier_offset_from_edge,
        )
        for sir_db in sir_values_db
    ]
    outcomes = execute_points(_segment_profile_point, tasks, n_workers=n_workers)
    series = {
        f"SIR {task.sir_db:g} dB": list(outcome) for task, outcome in zip(tasks, outcomes)
    }
    return FigureResult(
        figure="Figure 4b",
        title="Interference power across FFT segments (subcarrier near the interferer edge)",
        x_label="FFT segment index",
        x_values=x_values,
        y_label="Interference power (dB, normalised to the worst segment)",
        series=series,
    )


def run_constellation(
    profile: ExperimentProfile | None = None,
    sir_db: float = -20.0,
    n_segments: int = 5,
    seed: int | None = None,
) -> FigureResult:
    """Figure 4c: BPSK observations of one subcarrier across five segments."""
    profile = profile or default_profile()
    scenario = aci_scenario(
        "bpsk-1/2", sir_db=sir_db, payload_length=profile.payload_length, edge_window_length=0
    )
    rx = scenario.realize(child_rng(profile.seed if seed is None else seed, 4, 3))
    front = FrontEnd(n_segments=n_segments).process(rx)
    data_bins = rx.allocation.data_bin_array()
    edge_index = int(np.argmax(data_bins))
    points = front.data[:, 0, edge_index]
    return FigureResult(
        figure="Figure 4c",
        title="Received signal of one subcarrier in five FFT segments (BPSK)",
        x_label="FFT segment index",
        x_values=list(range(1, n_segments + 1)),
        y_label="Constellation coordinates",
        series={
            "real": [float(value.real) for value in points],
            "imag": [float(value.imag) for value in points],
        },
        notes=[
            f"transmitted lattice point: {rx.tx_frame.data_points[0, edge_index]:+.0f}",
            "lattice points of BPSK are -1 and +1 on the real axis",
        ],
    )


def build_spec() -> ExperimentSpec:
    """The canonical Figure 4 spec (the representative segment profile)."""
    return ExperimentSpec(
        name="fig4",
        figure="Figure 4b",
        title="Interference power across FFT segments (subcarrier near the interferer edge)",
        kind="analysis",
        analysis="fig4-segment-profile",
        params={"sir_values_db": [-10.0, -20.0, -30.0], "subcarrier_offset_from_edge": 4},
    )
