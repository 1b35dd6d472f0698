"""Shared bit-level decode chain: from hard coded bits to a verified PSDU.

Every receiver in this library (standard, naive, oracle, CPRecycle) produces
the same intermediate representation — hard coded bits in transmitted
(interleaved) order — and shares this chain: de-interleave, de-puncture,
Viterbi-decode, descramble, strip framing and verify the CRC-32.  Keeping the
chain identical guarantees that the only difference between receivers is the
per-subcarrier symbol decision the paper is about.

The chain exposes a batched entry point so that experiments can decode many
packets in one sweep.  ``decode_coded_bits_batch`` vectorises every stage
across the batch: the de-interleaver applies one shared permutation to the
whole ``(n_frames, n_symbols, ncbps)`` block, de-puncturing scatters the
batch through one shared erasure mask, the Viterbi sweep runs all frames
through one trellis, and descrambling XORs one shared scrambler sequence
against the whole decoded block.  ``decode_coded_bits_batch_reference``
preserves the original per-frame loops (identical outputs); it is the test
oracle the fast-path equivalence tests compare against, never called by the
library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.phy import convolutional
from repro.phy.frame import SERVICE_BITS, FrameSpec
from repro.phy.interleaver import deinterleave, interleaver_permutation
from repro.phy.scrambler import descramble, scrambler_sequence
from repro.phy.viterbi import ViterbiDecoder
from repro.utils.bits import bits_to_bytes

__all__ = [
    "DecodedFrame",
    "decode_coded_bits",
    "decode_coded_bits_batch",
    "decode_coded_bits_batch_reference",
]


@dataclass(frozen=True)
class DecodedFrame:
    """Outcome of decoding one frame."""

    psdu: bytes = field(repr=False)
    crc_ok: bool
    payload: bytes | None = field(repr=False, default=None)

    @property
    def success(self) -> bool:
        """True when the frame check sequence verified."""
        return self.crc_ok


def _decoded_bits_to_frame(spec: FrameSpec, data_bits: np.ndarray) -> DecodedFrame:
    """Descramble decoded data bits and extract/verify the PSDU."""
    descrambled = descramble(data_bits, spec.scrambler_seed)
    psdu_bits = descrambled[SERVICE_BITS : SERVICE_BITS + 8 * spec.psdu_length]
    psdu = bits_to_bytes(psdu_bits)
    crc_ok = spec.check_psdu(psdu)
    payload = psdu[: spec.payload_length] if crc_ok else None
    return DecodedFrame(psdu=psdu, crc_ok=crc_ok, payload=payload)


def _descrambled_bits_to_frame(spec: FrameSpec, descrambled: np.ndarray) -> DecodedFrame:
    """Extract/verify the PSDU from an already-descrambled bit row."""
    psdu_bits = descrambled[SERVICE_BITS : SERVICE_BITS + 8 * spec.psdu_length]
    psdu = bits_to_bytes(psdu_bits)
    crc_ok = spec.check_psdu(psdu)
    payload = psdu[: spec.payload_length] if crc_ok else None
    return DecodedFrame(psdu=psdu, crc_ok=crc_ok, payload=payload)


def decode_coded_bits(spec: FrameSpec, coded_bits: np.ndarray) -> DecodedFrame:
    """Decode the hard coded bits of a single frame."""
    return decode_coded_bits_batch(spec, np.asarray(coded_bits, dtype=np.uint8)[None, :])[0]


def _validate_batch(spec: FrameSpec, coded_bits: np.ndarray) -> np.ndarray:
    coded = np.atleast_2d(np.asarray(coded_bits, dtype=np.uint8))
    if coded.shape[1] != spec.n_coded_bits:
        raise ValueError(
            f"expected {spec.n_coded_bits} coded bits per frame, got {coded.shape[1]}"
        )
    return coded


def decode_coded_bits_batch(spec: FrameSpec, coded_bits: np.ndarray) -> list[DecodedFrame]:
    """Decode a batch of frames that share one :class:`FrameSpec`.

    ``coded_bits`` has shape ``(n_frames, n_coded_bits)``.  Every stage is
    vectorised across the batch; the output is identical frame for frame to
    :func:`decode_coded_bits_batch_reference`.
    """
    coded = _validate_batch(spec, coded_bits)
    n_frames = coded.shape[0]
    ncbps = spec.coded_bits_per_symbol
    nbpsc = spec.mcs.bits_per_subcarrier
    mother_length = 2 * spec.n_padded_data_bits

    # De-interleave: one shared permutation over all symbol blocks of all
    # frames at once.
    permutation = np.asarray(interleaver_permutation(ncbps, nbpsc))
    blocks = coded.reshape(n_frames, -1, ncbps)
    deinterleaved = blocks[:, :, permutation].reshape(n_frames, -1)

    # De-puncture: scatter the whole batch through the shared erasure mask.
    mask = convolutional.puncture_mask(spec.mcs.code_rate, mother_length)
    depunctured = np.zeros((n_frames, mother_length), dtype=np.uint8)
    depunctured[:, mask] = deinterleaved
    known = np.broadcast_to(mask, depunctured.shape)

    decoder = ViterbiDecoder(terminated=True)
    decoded = decoder.decode_batch(depunctured, known_mask=known)

    # Descramble the whole batch with one shared sequence.
    sequence = scrambler_sequence(decoded.shape[1], spec.scrambler_seed)
    descrambled = decoded ^ sequence[None, :]
    return [_descrambled_bits_to_frame(spec, row) for row in descrambled]


def decode_coded_bits_batch_reference(
    spec: FrameSpec, coded_bits: np.ndarray
) -> list[DecodedFrame]:
    """Per-frame reference implementation of :func:`decode_coded_bits_batch`.

    De-interleaving, de-puncturing and descrambling loop frame by frame (only
    the Viterbi sweep is batched, through the seed trellis sweep).  A test
    oracle; outputs match the vectorised chain exactly.
    """
    coded = _validate_batch(spec, coded_bits)
    ncbps = spec.coded_bits_per_symbol
    nbpsc = spec.mcs.bits_per_subcarrier
    mother_length = 2 * spec.n_padded_data_bits

    deinterleaved = np.stack([deinterleave(row, ncbps, nbpsc) for row in coded])
    depunctured = np.empty((coded.shape[0], mother_length), dtype=np.uint8)
    mask = None
    for index, row in enumerate(deinterleaved):
        depunctured[index], mask = convolutional.depuncture(
            row, spec.mcs.code_rate, mother_length
        )
    known = np.broadcast_to(mask, depunctured.shape)

    decoder = ViterbiDecoder(terminated=True, reference=True)
    decoded = decoder.decode_batch(depunctured, known_mask=known)
    return [_decoded_bits_to_frame(spec, row) for row in decoded]
