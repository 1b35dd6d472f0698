"""Channel substrate: noise, multipath, interference, scenarios."""

from repro.channel.interference import (
    InterfererSpec,
    RealizedInterference,
    adjacent_channel_interferer,
    co_channel_interferer,
)
from repro.channel.multipath import (
    ChannelModel,
    ExponentialMultipathChannel,
    FlatChannel,
    StaticTapChannel,
    apply_channel,
    rms_delay_spread,
)
from repro.channel.scenario import ReceivedWaveform, Scenario

__all__ = [
    "ChannelModel",
    "ExponentialMultipathChannel",
    "FlatChannel",
    "InterfererSpec",
    "RealizedInterference",
    "ReceivedWaveform",
    "Scenario",
    "StaticTapChannel",
    "adjacent_channel_interferer",
    "apply_channel",
    "co_channel_interferer",
    "rms_delay_spread",
]
