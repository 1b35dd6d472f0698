"""Receiver substrate: front end, decode chain, standard baseline."""

from repro.receiver.base import Demodulated, OfdmReceiverBase, ReceiverOutput
from repro.receiver.channel_est import estimate_channel_ls
from repro.receiver.decode_chain import DecodedFrame, decode_coded_bits, decode_coded_bits_batch
from repro.receiver.equalizer import equalize
from repro.receiver.frontend import FrontEnd, FrontEndOutput
from repro.receiver.segments import (
    extract_segments,
    reference_segment_index,
    segment_offsets,
    segment_phase_ramp,
)
from repro.receiver.standard import StandardOfdmReceiver

__all__ = [
    "DecodedFrame",
    "Demodulated",
    "FrontEnd",
    "FrontEndOutput",
    "OfdmReceiverBase",
    "ReceiverOutput",
    "StandardOfdmReceiver",
    "decode_coded_bits",
    "decode_coded_bits_batch",
    "equalize",
    "estimate_channel_ls",
    "extract_segments",
    "reference_segment_index",
    "segment_offsets",
    "segment_phase_ramp",
]
