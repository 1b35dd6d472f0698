"""Shared configuration of the evaluation experiments.

Two execution profiles are provided:

* ``quick`` (default) — small packet counts and payloads so that every figure
  can be regenerated in seconds; used by the benchmark suite and CI.
* ``full`` — paper-scale parameters (2000 packets of 400 bytes per point).

Select the profile with the ``REPRO_PROFILE`` environment variable or by
passing a profile object to the experiment functions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.channel.scenario import Scenario
from repro.phy.subcarriers import OfdmAllocation, wideband_allocation
from repro.receiver.base import OfdmReceiverBase

__all__ = [
    "ExperimentProfile",
    "QUICK_PROFILE",
    "FULL_PROFILE",
    "default_profile",
    "SNR_FOR_MCS",
    "PAPER_MCS_SET",
    "ACI_EDGE_WINDOW",
    "aci_sender_allocation",
    "aci_scenario",
    "cci_scenario",
    "build_receivers",
]

#: SNR operating point per MCS, chosen (as in the paper) so that each scheme
#: is the highest-throughput choice at that SNR in the interference-free case.
SNR_FOR_MCS: dict[str, float] = {
    "bpsk-1/2": 18.0,
    "qpsk-1/2": 25.0,
    "qpsk-3/4": 26.0,
    "16qam-1/2": 28.0,
    "16qam-3/4": 30.0,
    "64qam-2/3": 32.0,
    "64qam-3/4": 34.0,
}

#: The three MCS modes the paper evaluates in Figs. 8, 9, 11 and 12.
PAPER_MCS_SET: tuple[str, ...] = ("qpsk-1/2", "16qam-1/2", "64qam-2/3")

#: Raised-cosine taper applied to interferer symbol transitions in the ACI
#: experiments; models the spectral shaping of a real transmit chain (see
#: DESIGN.md).  Set to 0 for the worst-case rectangular baseband.
ACI_EDGE_WINDOW = 8


@dataclass(frozen=True)
class ExperimentProfile:
    """Execution-scale knobs shared by every experiment."""

    name: str
    n_packets: int
    payload_length: int
    n_sir_points: int
    seed: int = 2016

    def scaled(self, **overrides: object) -> "ExperimentProfile":
        """A copy of the profile with some fields overridden."""
        return replace(self, **overrides)  # type: ignore[arg-type]


QUICK_PROFILE = ExperimentProfile(name="quick", n_packets=10, payload_length=60, n_sir_points=5)
FULL_PROFILE = ExperimentProfile(name="full", n_packets=2000, payload_length=400, n_sir_points=11)


def default_profile() -> ExperimentProfile:
    """Profile selected by the ``REPRO_PROFILE`` environment variable."""
    choice = os.environ.get("REPRO_PROFILE", "quick").strip().lower()
    if choice == "full":
        return FULL_PROFILE
    if choice in ("quick", ""):
        return QUICK_PROFILE
    raise ValueError(f"unknown REPRO_PROFILE {choice!r}; use 'quick' or 'full'")


# --------------------------------------------------------------------------- #
# Scenario builders                                                           #
# --------------------------------------------------------------------------- #
def aci_sender_allocation(two_sided: bool = False, guard_subcarriers: int = 4) -> OfdmAllocation:
    """Sender allocation for the adjacent-channel-interference experiments.

    A single-sided interferer uses the paper's Fig. 4 layout (160-bin grid,
    sender on bins 1..64).  With two interferers, or with a large guard band,
    the sender sits in the middle of a 256-bin grid so that blocks fit on both
    sides.
    """
    if two_sided:
        return wideband_allocation(fft_size=256, start_bin=96, name="wideband-sender")
    if guard_subcarriers > 27:
        # A larger grid is needed so the interferer block fits beyond the guard.
        return wideband_allocation(fft_size=256, start_bin=1, name="wideband-sender")
    return wideband_allocation(fft_size=160, start_bin=1, name="wideband-sender")


def aci_scenario(
    mcs_name: str,
    sir_db: float,
    payload_length: int,
    guard_subcarriers: int = 4,
    two_sided: bool = False,
    snr_db: float | None = None,
    edge_window_length: int = ACI_EDGE_WINDOW,
) -> Scenario:
    """Adjacent-channel-interference scenario (Figs. 4, 5, 8, 9, 10, 14).

    ``sir_db`` is the total SIR, which a two-sided scenario splits equally
    between its upper and lower interferer (:meth:`repro.api.ScenarioSpec.build`).
    """
    # Imported lazily: repro.api imports this module.
    from repro.api.specs import InterfererSpec, ScenarioSpec

    sides = ("upper", "lower") if two_sided else ("upper",)
    return ScenarioSpec(
        mcs_name=mcs_name,
        payload_length=payload_length,
        snr_db=snr_db,
        sir_db=sir_db,
        interferers=tuple(
            InterfererSpec(
                kind="aci",
                guard_subcarriers=guard_subcarriers,
                side=side,
                edge_window_length=edge_window_length,
            )
            for side in sides
        ),
    ).build()


def cci_scenario(
    mcs_name: str,
    sir_db: float,
    payload_length: int,
    n_interferers: int = 1,
    snr_db: float | None = None,
) -> Scenario:
    """Co-channel-interference scenario on the 802.11g allocation (Figs. 11, 12).

    ``sir_db`` is the total SIR, split equally between the ``n_interferers``
    (:meth:`repro.api.ScenarioSpec.build`).
    """
    # Imported lazily: repro.api imports this module.
    from repro.api.specs import InterfererSpec, ScenarioSpec

    return ScenarioSpec(
        mcs_name=mcs_name,
        payload_length=payload_length,
        snr_db=snr_db,
        sir_db=sir_db,
        interferers=(InterfererSpec(kind="cci"),) * n_interferers,
    ).build()


# --------------------------------------------------------------------------- #
# Receiver sets                                                               #
# --------------------------------------------------------------------------- #
def build_receivers(
    allocation: OfdmAllocation,
    names: tuple[str, ...] = ("standard", "cprecycle"),
    n_segments: int | None = None,
) -> dict[str, OfdmReceiverBase]:
    """Construct the receivers used in an experiment.

    ``names`` resolve through the receiver plugin registry
    (:mod:`repro.api.registry`; builtins: ``standard``, ``naive``,
    ``oracle``, ``cprecycle``).  Every multi-segment receiver uses all
    ISI-free cyclic prefix samples (or ``n_segments`` when given).
    """
    # Imported lazily: repro.api builds on this module's profile/scenario
    # definitions, so a top-level import would be circular.
    from repro.api.registry import build_receiver
    from repro.api.specs import ReceiverSpec

    return {
        name: build_receiver(ReceiverSpec(name=name, n_segments=n_segments), allocation)
        for name in names
    }
