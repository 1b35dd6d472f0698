"""The link batch as the unit of work of the front end and the Viterbi.

``FrontEnd.process_batch`` transforms, scales, phase-corrects and equalises
packets that share a window geometry together, the receivers decide and map
bits per front-end batch, and the Viterbi keeps state-major ``uint8`` path
metrics that it renormalises at every block start.  These tests pin that
none of it moves a bit: the reciprocal scaling against complex division, the
trellis against the seed sweep (and its ``uint8`` bound over 10,000 steps),
the CPRecycle observation view against ``np.concatenate``, the standard
receiver's batch decisions against its per-packet ones, and the batch's
memory peak against a per-packet loop.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.receiver import CPRecycleReceiver
from repro.experiments.config import aci_scenario
from repro.phy import convolutional
from repro.phy.viterbi import _TRELLIS, ViterbiDecoder
from repro.receiver.frontend import FrontEnd, front_end_batches
from repro.receiver.segments import scale_spectra
from repro.receiver.standard import StandardOfdmReceiver

_BLOCK = ViterbiDecoder.BLOCK_STEPS


def _bits(array):
    """Dtype, shape and raw bytes of an array: equal only when bitwise equal."""
    array = np.asarray(array)
    return array.dtype, array.shape, array.tobytes()


# --------------------------------------------------------------------------- #
# Scaling by the reciprocal of sqrt(N)                                        #
# --------------------------------------------------------------------------- #
def _nonzero_spectra(rng, shape):
    """Complex values whose components are nonzero, of magnitudes 1e-13 to 1e13."""
    parts = rng.choice([-1.0, 1.0], size=(2, *shape)) * 10.0 ** rng.uniform(-13, 13, (2, *shape))
    return parts[0] + 1j * parts[1]


@pytest.mark.parametrize("fft_size", [64, 160, 256])
def test_scale_spectra_equals_complex_division(fft_size):
    # A P = 40 packet's 13 symbols over 160 bins: 166,400 doubles.
    spectra = _nonzero_spectra(np.random.default_rng(fft_size), (40, 13, 160))
    divided = spectra.copy()
    divided /= np.sqrt(fft_size)
    scaled = spectra.copy()
    scale_spectra(scaled, fft_size)
    assert _bits(scaled) == _bits(divided)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    fft_size=st.integers(min_value=1, max_value=4096),
    shape=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3),
)
def test_scale_spectra_equals_complex_division_on_random_shapes(seed, fft_size, shape):
    spectra = _nonzero_spectra(np.random.default_rng(seed), tuple(shape))
    divided = spectra / np.sqrt(fft_size)
    scale_spectra(spectra, fft_size)
    assert _bits(spectra) == _bits(divided)


def test_scale_spectra_differs_only_in_the_sign_of_a_zero():
    spectra = np.array([complex(-0.0, 1.0), complex(1.0, 0.0), complex(0.0, 0.0)])
    divided = spectra / np.sqrt(160)
    scale_spectra(spectra, 160)
    assert np.array_equal(spectra, divided)
    # Complex division adds 0 * imag to a -0.0 real part, which makes it +0.0.
    assert np.signbit(spectra.real[0]) and not np.signbit(divided.real[0])


# --------------------------------------------------------------------------- #
# Frames-innermost uint8 Viterbi                                              #
# --------------------------------------------------------------------------- #
_STEP_EDGES = (1, 5, 6, 7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 7)


def _known(rng, erasures, shape):
    if erasures == "random":
        return rng.random(shape) >= rng.random()
    if erasures == "none":
        return np.ones(shape, dtype=bool)
    return np.broadcast_to(convolutional.puncture_mask(erasures, shape[1]), shape)


@settings(max_examples=60, deadline=None)
@given(
    n_frames=st.integers(min_value=1, max_value=130),
    n_steps=st.one_of(st.sampled_from(_STEP_EDGES), st.integers(min_value=1, max_value=3 * _BLOCK)),
    erasures=st.sampled_from(["none", "1/2", "2/3", "3/4", "random"]),
    terminated=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_viterbi_matches_reference(n_frames, n_steps, erasures, terminated, seed):
    rng = np.random.default_rng(seed)
    coded = rng.integers(0, 2, size=(n_frames, 2 * n_steps), dtype=np.uint8)
    known = _known(rng, erasures, coded.shape)
    fast = ViterbiDecoder(terminated=terminated).decode_batch(coded, known)
    reference = ViterbiDecoder(terminated=terminated, reference=True).decode_batch(coded, known)
    assert _bits(fast) == _bits(reference)


@settings(max_examples=30, deadline=None)
@given(
    n_frames=st.integers(min_value=1, max_value=70),
    n_steps=st.one_of(st.sampled_from(_STEP_EDGES), st.integers(min_value=1, max_value=3 * _BLOCK)),
    integer_llrs=st.booleans(),
    terminated=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_soft_viterbi_matches_reference(n_frames, n_steps, integer_llrs, terminated, seed):
    # Soft metrics stay float64 and are never renormalised; integer LLRs
    # make exact ties, zero LLRs are erasures.
    rng = np.random.default_rng(seed)
    shape = (n_frames, 2 * n_steps)
    llrs = rng.integers(-2, 3, size=shape).astype(float) if integer_llrs else rng.normal(size=shape)
    fast = ViterbiDecoder(terminated=terminated).decode_soft_batch(llrs)
    reference = ViterbiDecoder(terminated=terminated, reference=True).decode_soft_batch(llrs)
    assert _bits(fast) == _bits(reference)


def test_viterbi_rejects_coded_values_other_than_0_and_1():
    # The uint8 bound assumes Hamming costs of at most 1 per coded bit.
    coded = np.zeros((2, 20), dtype=np.uint8)
    coded[1, 7] = 2
    with pytest.raises(ValueError, match="only 0 and 1"):
        ViterbiDecoder().decode_batch(coded)


def _renormalised_metric_extremes(coded, block_steps):
    """Largest hard metric of any block, and largest spread at any block start.

    Replays the sweep in int64 from the ``uint8`` start (0 for state 0,
    ``255 - 2 * block_steps`` elsewhere), subtracting each frame's minimum
    at every block start as the decoder does.
    """
    n_frames, n_steps = coded.shape[0], coded.shape[1] // 2
    prev_state, exp_a, exp_b = _TRELLIS["prev_state"], _TRELLIS["exp_a"], _TRELLIS["exp_b"]
    metrics = np.full((n_frames, 64), 255 - 2 * block_steps, dtype=np.int64)
    metrics[:, 0] = 0
    peak = spread = 0
    for step in range(n_steps):
        if step % block_steps == 0:
            metrics -= metrics.min(axis=1, keepdims=True)
            if step:
                spread = max(spread, int(metrics.max()))
        received_a = coded[:, 2 * step, None, None].astype(np.int64)
        received_b = coded[:, 2 * step + 1, None, None].astype(np.int64)
        cost = (received_a != exp_a) + (received_b != exp_b)  # (frames, states, 2)
        metrics = (metrics[:, prev_state] + cost).min(axis=2)
        peak = max(peak, int(metrics.max()))
    return peak, spread


def test_viterbi_uint8_bound_holds_over_10000_steps():
    # No erasures, so every step can cost 2: random, all-ones and
    # alternating received bits, decoded terminated and not.
    n_steps = 10_000
    rng = np.random.default_rng(10_000)
    coded = np.stack(
        [
            rng.integers(0, 2, size=2 * n_steps, dtype=np.uint8),
            np.ones(2 * n_steps, dtype=np.uint8),
            np.arange(2 * n_steps, dtype=np.uint8) % 2,
        ]
    )
    for terminated in (True, False):
        fast = ViterbiDecoder(terminated=terminated).decode_batch(coded)
        reference = ViterbiDecoder(terminated=terminated, reference=True).decode_batch(coded)
        assert _bits(fast) == _bits(reference)
    peak, spread = _renormalised_metric_extremes(coded, _BLOCK)
    assert spread <= 12
    assert peak <= 12 + 2 * _BLOCK <= np.iinfo(np.uint8).max


# --------------------------------------------------------------------------- #
# Receivers on front-end batches                                              #
# --------------------------------------------------------------------------- #
def _paper_link_batch(n_packets, seed=3):
    """Paper-link-shaped packets: fig8 geometry, 16QAM-1/2, 60-byte payloads."""
    return aci_scenario("16qam-1/2", -15.0, payload_length=60).realize_batch(n_packets, seed=seed)


def test_cprecycle_observations_are_a_view_equal_to_concatenation():
    rxs = _paper_link_batch(5)
    fronts = CPRecycleReceiver().front_end.process_batch(rxs)
    ((indices, batch),) = front_end_batches(fronts)
    assert indices == list(range(len(rxs)))
    observations = batch.observations()
    concatenated = np.concatenate([front.data for front in fronts], axis=2)
    assert _bits(observations) == _bits(concatenated)
    assert observations.strides == concatenated.strides
    assert np.shares_memory(observations, batch.data)


def test_standard_batch_decisions_equal_per_packet_decisions():
    rxs = _paper_link_batch(4)
    receiver = StandardOfdmReceiver()
    batched = receiver.demodulate_batch(rxs)
    for rx, demodulated in zip(rxs, batched):
        alone = receiver.demodulate(rx)
        assert _bits(demodulated.decisions) == _bits(alone.decisions)
        assert _bits(demodulated.coded_bits) == _bits(alone.coded_bits)


def test_process_batch_peaks_below_a_per_packet_loop():
    # The per-packet loop this replaced transformed one packet at a time:
    # its peak is the 15 finished packets' outputs plus the last packet's
    # full-grid spectrum and its occupied-bin copy, both alive inside that
    # packet's FFT.  The batch keeps every output and at most one chunk.
    rxs = _paper_link_batch(16)
    front_end = FrontEnd(n_segments=40, max_segments=40)
    front_end.process_batch(rxs[:2])  # cache the phase ramps and training values
    tracemalloc.start()
    try:
        fronts = front_end.process_batch(rxs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    spec = rxs[0].spec
    first = fronts[0]
    output = first.data.nbytes + first.preamble.nbytes + first.channel_estimate.nbytes
    windows = 40 * (spec.n_preamble_symbols + spec.n_data_symbols)
    bins = spec.allocation.fft_size + spec.allocation.occupied_bin_array().size
    loop_peak = 15 * output + windows * bins * np.dtype(complex).itemsize
    assert peak <= loop_peak, (peak, loop_peak)
