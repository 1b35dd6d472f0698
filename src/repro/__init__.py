"""CPRecycle reproduction: cyclic-prefix recycling for OFDM interference mitigation.

This package reproduces *CPRecycle: Recycling Cyclic Prefix for Versatile
Interference Mitigation in OFDM based Wireless Systems* (CoNEXT 2016) as a
pure-Python library: an 802.11-style OFDM PHY, channel and interference
simulation, the CPRecycle receiver with its baselines, a network-level
analysis module and an experiment harness regenerating every table and figure
of the paper's evaluation.

Quick start::

    from repro.phy import dot11g_allocation
    from repro.channel import Scenario, co_channel_interferer
    from repro.core import CPRecycleReceiver
    from repro.receiver import StandardOfdmReceiver

    allocation = dot11g_allocation()
    scenario = Scenario(
        allocation, mcs_name="qpsk-1/2", payload_length=100, snr_db=25,
        interferers=[co_channel_interferer(allocation, sir_db=5.0)],
    )
    rx = scenario.realize(0)
    print(StandardOfdmReceiver().receive(rx).success)
    print(CPRecycleReceiver().receive(rx).success)
"""

from repro.channel import (
    InterfererSpec,
    ReceivedWaveform,
    Scenario,
    adjacent_channel_interferer,
    co_channel_interferer,
)
from repro.core import (
    CPRecycleConfig,
    CPRecycleReceiver,
    NaiveSegmentReceiver,
    OracleSegmentReceiver,
)
from repro.phy import (
    OfdmAllocation,
    OfdmTransmitter,
    dot11g_allocation,
    get_mcs,
    wideband_allocation,
)
from repro.receiver import FrontEnd, StandardOfdmReceiver

__version__ = "1.0.0"

__all__ = [
    "CPRecycleConfig",
    "CPRecycleReceiver",
    "FrontEnd",
    "InterfererSpec",
    "NaiveSegmentReceiver",
    "OfdmAllocation",
    "OfdmTransmitter",
    "OracleSegmentReceiver",
    "ReceivedWaveform",
    "Scenario",
    "StandardOfdmReceiver",
    "adjacent_channel_interferer",
    "co_channel_interferer",
    "dot11g_allocation",
    "get_mcs",
    "wideband_allocation",
    "__version__",
]
