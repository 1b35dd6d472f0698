"""Frame-level definitions shared by the transmitter and every receiver.

A :class:`FrameSpec` captures everything a (standards-compliant) receiver is
allowed to know about a frame before decoding it: the subcarrier allocation,
the modulation and coding scheme, the number and content of the training
symbols, the scrambler seed and the PSDU length.  In a real 802.11 system the
length and MCS come from the SIGNAL field; the experiments hand the spec to
the receivers directly so that decoding performance — the paper's subject —
is isolated from header acquisition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.phy import convolutional
from repro.phy.crc import CRC32_LENGTH_BYTES, append_crc32, check_crc32
from repro.phy.interleaver import interleave
from repro.phy.mcs import Mcs, get_mcs
from repro.phy.pilots import pilot_values
from repro.phy.preamble import preamble_frequency_symbols
from repro.phy.scrambler import DEFAULT_SCRAMBLER_SEED, scramble
from repro.phy.subcarriers import OfdmAllocation
from repro.utils.bits import bytes_to_bits

__all__ = ["FrameSpec", "SERVICE_BITS", "TAIL_BITS", "encode_data_field", "prepare_data_bits"]

#: Number of SERVICE bits prepended to the PSDU (all zero, used by the
#: descrambler to synchronise in real 802.11; kept for structural fidelity).
SERVICE_BITS = 16
#: Number of tail bits that return the convolutional encoder to state zero.
TAIL_BITS = convolutional.CONSTRAINT_LENGTH - 1


@dataclass(frozen=True)
class FrameSpec:
    """Static description of one frame format.

    A frame is its training symbols followed by its data symbols.

    Parameters
    ----------
    allocation:
        Subcarrier allocation of the sender.
    mcs_name:
        Modulation and coding scheme name (see :mod:`repro.phy.mcs`).
    payload_length:
        Length in bytes of the MAC payload carried by the frame.  The PSDU is
        the payload plus a 4-byte CRC-32 frame check sequence.
    n_preamble_symbols:
        Number of known training OFDM symbols preceding the data symbols.
    scrambler_seed:
        Initial state of the 802.11 scrambler.
    preamble_seed:
        Seed of the pseudo-random training sequence for non-802.11 grids.
    """

    allocation: OfdmAllocation
    mcs_name: str
    payload_length: int
    n_preamble_symbols: int = 2
    scrambler_seed: int = DEFAULT_SCRAMBLER_SEED
    preamble_seed: int = 7

    def __post_init__(self) -> None:
        if self.payload_length < 1:
            raise ValueError("payload_length must be at least 1 byte")
        if self.n_preamble_symbols < 1:
            raise ValueError("n_preamble_symbols must be at least 1")
        get_mcs(self.mcs_name)  # validate eagerly

    # ------------------------------------------------------------------ #
    # Derived sizes                                                      #
    # ------------------------------------------------------------------ #
    @cached_property
    def mcs(self) -> Mcs:
        """The modulation and coding scheme object."""
        return get_mcs(self.mcs_name)

    @property
    def psdu_length(self) -> int:
        """PSDU length in bytes (payload plus frame check sequence)."""
        return self.payload_length + CRC32_LENGTH_BYTES

    @property
    def data_bits_per_symbol(self) -> int:
        """Information bits carried by one data OFDM symbol (N_DBPS)."""
        return self.mcs.data_bits_per_symbol(self.allocation.n_data_subcarriers)

    @property
    def coded_bits_per_symbol(self) -> int:
        """Coded bits carried by one data OFDM symbol (N_CBPS)."""
        return self.mcs.coded_bits_per_symbol(self.allocation.n_data_subcarriers)

    @property
    def n_information_bits(self) -> int:
        """SERVICE + PSDU + tail bits, before padding."""
        return SERVICE_BITS + 8 * self.psdu_length + TAIL_BITS

    @cached_property
    def n_data_symbols(self) -> int:
        """Number of data OFDM symbols in the frame."""
        n_dbps = self.data_bits_per_symbol
        return int(np.ceil(self.n_information_bits / n_dbps))

    @property
    def n_padded_data_bits(self) -> int:
        """Information bits after padding to fill the last OFDM symbol."""
        return self.n_data_symbols * self.data_bits_per_symbol

    @property
    def n_coded_bits(self) -> int:
        """Transmitted coded bits in the data field."""
        return self.n_data_symbols * self.coded_bits_per_symbol

    # ------------------------------------------------------------------ #
    # Frame geometry (sample offsets)                                    #
    # ------------------------------------------------------------------ #
    @property
    def data_start(self) -> int:
        """Sample offset of the first data symbol within the frame."""
        return self.n_preamble_symbols * self.allocation.symbol_length

    @property
    def n_samples(self) -> int:
        """Total frame length in samples."""
        return self.data_start + self.n_data_symbols * self.allocation.symbol_length

    @property
    def duration_s(self) -> float:
        """Frame duration in seconds."""
        return self.n_samples / self.allocation.sample_rate_hz

    # ------------------------------------------------------------------ #
    # Known reference content                                            #
    # ------------------------------------------------------------------ #
    # Cached arrays are read-only: every frame of one transmitter and every
    # receiver of those frames share them.
    @cached_property
    def preamble_frequency(self) -> np.ndarray:
        """Known frequency-domain training symbols, shape (Np, fft_size)."""
        return _read_only(
            preamble_frequency_symbols(
                self.allocation, self.n_preamble_symbols, seed=self.preamble_seed
            )
        )

    @cached_property
    def data_pilot_values(self) -> np.ndarray:
        """Known pilot values for the data symbols, shape (Nsym, Npilots)."""
        return _read_only(
            pilot_values(
                self.n_data_symbols,
                self.allocation.n_pilot_subcarriers,
                start_index=1,
            )
        )

    # ------------------------------------------------------------------ #
    # PSDU helpers                                                       #
    # ------------------------------------------------------------------ #
    def build_psdu(self, payload: bytes) -> bytes:
        """Append the frame check sequence to a payload."""
        if len(payload) != self.payload_length:
            raise ValueError(
                f"payload length {len(payload)} does not match the spec "
                f"({self.payload_length} bytes)"
            )
        return append_crc32(payload)

    def check_psdu(self, psdu: bytes) -> bool:
        """Verify the frame check sequence of a decoded PSDU."""
        return len(psdu) == self.psdu_length and check_crc32(psdu)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def prepare_data_bits(spec: FrameSpec, psdu: bytes) -> np.ndarray:
    """SERVICE + PSDU + tail + pad bits (unscrambled) for the data field."""
    if len(psdu) != spec.psdu_length:
        raise ValueError(f"PSDU must be {spec.psdu_length} bytes, got {len(psdu)}")
    psdu_bits = bytes_to_bits(psdu)
    bits = np.concatenate(
        [
            np.zeros(SERVICE_BITS, dtype=np.uint8),
            psdu_bits,
            np.zeros(TAIL_BITS, dtype=np.uint8),
        ]
    )
    padded = np.zeros(spec.n_padded_data_bits, dtype=np.uint8)
    padded[: bits.size] = bits
    return padded


def encode_data_field(spec: FrameSpec, data_bits: np.ndarray) -> np.ndarray:
    """Scramble, convolutionally encode, puncture and interleave the data field."""
    data_bits = np.asarray(data_bits, dtype=np.uint8)
    if data_bits.size != spec.n_padded_data_bits:
        raise ValueError(
            f"expected {spec.n_padded_data_bits} data bits, got {data_bits.size}"
        )
    scrambled = scramble(data_bits, spec.scrambler_seed)
    # 802.11 forces the six tail bits back to zero after scrambling so the
    # decoder trellis terminates in the all-zero state.
    tail_start = SERVICE_BITS + 8 * spec.psdu_length
    scrambled[tail_start : tail_start + TAIL_BITS] = 0
    coded = convolutional.conv_encode(scrambled)
    punctured = convolutional.puncture(coded, spec.mcs.code_rate)
    return interleave(punctured, spec.coded_bits_per_symbol, spec.mcs.bits_per_subcarrier)
