"""Viterbi decoder for the 802.11 rate-1/2 convolutional code.

The decoder is fully vectorised over a *batch* of equal-length codewords so
that packet-error-rate experiments can decode dozens of packets per numpy
trellis sweep.  Both hard decisions (with optional erasure masks produced by
depuncturing) and soft decisions (log-likelihood ratios) are supported.
Hard-decision path metrics are exact ``int32`` sums of Hamming costs; soft
metrics are ``float64``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.phy.convolutional import CONSTRAINT_LENGTH, GENERATORS_OCTAL, generator_taps

__all__ = ["ViterbiDecoder", "viterbi_decode", "viterbi_decode_batch"]

_N_STATES = 1 << (CONSTRAINT_LENGTH - 1)
_HALF = _N_STATES // 2


def _build_trellis() -> dict[str, np.ndarray]:
    """Precompute trellis transition tables.

    State encoding: the most recent input bit occupies the most significant
    bit of the 6-bit state, i.e. ``state = (b_{t-1} << 5) | ... | b_{t-6}``.
    """
    taps_a = generator_taps(GENERATORS_OCTAL[0])
    taps_b = generator_taps(GENERATORS_OCTAL[1])

    next_state = np.empty((_N_STATES, 2), dtype=np.int64)
    out_a = np.empty((_N_STATES, 2), dtype=np.uint8)
    out_b = np.empty((_N_STATES, 2), dtype=np.uint8)
    for state in range(_N_STATES):
        history = [(state >> (CONSTRAINT_LENGTH - 2 - k)) & 1 for k in range(CONSTRAINT_LENGTH - 1)]
        for bit in (0, 1):
            register = np.array([bit] + history, dtype=np.uint8)
            out_a[state, bit] = int(register @ taps_a) % 2
            out_b[state, bit] = int(register @ taps_b) % 2
            next_state[state, bit] = (bit << (CONSTRAINT_LENGTH - 2)) | (state >> 1)

    # Predecessor view: for each new state, the two (previous state, input)
    # pairs that reach it.  The input bit is determined by the new state's MSB.
    prev_state = np.empty((_N_STATES, 2), dtype=np.int64)
    input_bit = np.empty(_N_STATES, dtype=np.uint8)
    counters = np.zeros(_N_STATES, dtype=np.int64)
    for state in range(_N_STATES):
        for bit in (0, 1):
            ns = next_state[state, bit]
            prev_state[ns, counters[ns]] = state
            input_bit[ns] = bit
            counters[ns] += 1
    assert np.all(counters == 2)

    # Expected coded bits along each predecessor transition.
    exp_a = out_a[prev_state, input_bit[:, None]]
    exp_b = out_b[prev_state, input_bit[:, None]]

    # Butterfly structure the optimised sweep relies on: new state b*32 + j
    # is reached only from states 2j (predecessor 0) and 2j + 1, and because
    # both generators tap the newest and the oldest bit, the odd predecessor
    # of (b, j) emits what the even predecessor of (1 - b, j) emits.
    states = np.arange(_N_STATES)
    code = 2 * exp_a + exp_b
    assert np.array_equal(prev_state, 2 * (states[:, None] % _HALF) + np.arange(2))
    assert np.array_equal(input_bit, states // _HALF)
    assert np.array_equal(code[:, 1], np.roll(code[:, 0], _HALF))
    return {
        "prev_state": prev_state,
        "input_bit": input_bit,
        "exp_a": exp_a,
        "exp_b": exp_b,
        # Index ``2 * a + b`` of the coded pair (a, b) the even predecessor
        # of each new state emits.
        "even_code": code[:, 0],
    }


_TRELLIS = _build_trellis()


class ViterbiDecoder:
    """Maximum-likelihood decoder for the (133, 171) rate-1/2 code.

    Parameters
    ----------
    terminated:
        When ``True`` (the 802.11 case, where six tail bits flush the
        encoder) the traceback starts from the all-zero state; otherwise it
        starts from the best surviving state.
    reference:
        Run the original generic trellis sweep instead of the optimised one.
        Both produce bit-identical decisions; the reference sweep is a test
        oracle (see :func:`repro.receiver.decode_chain.decode_coded_bits_batch_reference`)
        that the library itself never selects.
    """

    #: Memory bound (in elements) for the branch decisions the optimised
    #: sweep keeps for its traceback, ``n_steps * 64`` booleans per frame
    #: (16 MiB); larger batches are decoded in independent, bit-identical
    #: slices.
    MAX_BRANCH_ELEMENTS = 2**24

    #: Trellis steps per block of the optimised sweep.  The step-major
    #: branch-cost table is built one block at a time (``BLOCK_STEPS * 64``
    #: int32 per frame, not ``n_steps * 64``), and the traceback tabulates
    #: one block of predecessor indices at a time.
    BLOCK_STEPS = 64

    def __init__(self, terminated: bool = True, reference: bool = False):
        self.terminated = terminated
        self.reference = reference

    # ------------------------------------------------------------------ #
    def decode(
        self,
        coded_bits: np.ndarray,
        known_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode one hard-decision codeword (possibly with erasures)."""
        decoded = self.decode_batch(
            np.asarray(coded_bits, dtype=np.uint8)[None, :],
            known_mask=None if known_mask is None else np.asarray(known_mask)[None, :],
        )
        return decoded[0]

    def decode_batch(
        self,
        coded_bits: np.ndarray,
        known_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode a batch of hard-decision codewords.

        Parameters
        ----------
        coded_bits:
            Array of shape ``(batch, 2 * n_info_bits)`` containing 0/1 values.
        known_mask:
            Optional array of the same shape, boolean or integer 0/1;
            ``False`` (0) marks erased (punctured) positions whose branch
            metric is ignored.  Any other mask raises ``ValueError``.
        """
        coded = np.asarray(coded_bits, dtype=np.uint8)
        if coded.ndim != 2 or coded.shape[1] % 2 != 0:
            raise ValueError("coded_bits must have shape (batch, 2*n) with even columns")
        with obs.span("engine.viterbi", batch=int(coded.shape[0]), soft=False):
            known = _known_mask(known_mask, coded.shape)
            # Branch costs per position: 0 when erased, 0/1 Hamming otherwise,
            # summed exactly in int32.
            received = coded.astype(np.int32)
            cost_a = _bit_costs(received[:, 0::2], known[:, 0::2])
            cost_b = _bit_costs(received[:, 1::2], known[:, 1::2])
            return self._run(cost_a, cost_b)

    def decode_soft_batch(self, llrs: np.ndarray) -> np.ndarray:
        """Decode a batch of soft codewords given per-bit LLRs.

        LLRs follow the convention ``log P(bit=0) - log P(bit=1)``; erased
        (punctured) positions must carry an LLR of exactly 0.
        """
        llrs = np.asarray(llrs, dtype=np.float64)
        if llrs.ndim != 2 or llrs.shape[1] % 2 != 0:
            raise ValueError("llrs must have shape (batch, 2*n) with even columns")
        with obs.span("engine.viterbi", batch=int(llrs.shape[0]), soft=True):
            # Hypothesising bit=1 costs +llr relative to bit=0 (can be negative).
            cost_a = _soft_costs(llrs[:, 0::2])
            cost_b = _soft_costs(llrs[:, 1::2])
            return self._run(cost_a, cost_b)

    # ------------------------------------------------------------------ #
    def _run(self, cost_a: np.ndarray, cost_b: np.ndarray) -> np.ndarray:
        """Shared trellis sweep, one butterfly add-compare-select per step.

        ``cost_a``/``cost_b`` have shape ``(batch, n_steps, 2)`` where the last
        axis indexes the hypothesised coded bit value (0 or 1).  Path metrics
        take the costs' dtype: exact ``int32`` for hard decisions, ``float64``
        for soft ones.

        New state ``b*32 + j`` is reached only from states ``2j`` and
        ``2j + 1``, so with the metrics viewed as ``(batch, 32, 2)`` each step
        is four in-place ufunc calls over ``(batch, 2, 32)`` blocks: add the
        even and the odd predecessors' metrics to their branch costs, record
        which candidate is strictly smaller, keep the minimum.  The branch
        costs are built step-major and contiguous one block of
        :attr:`BLOCK_STEPS` steps at a time (see :func:`_branch_table`), so
        each step reads one block and the table never spans the frame.
        Decisions are bit-identical to :meth:`_run_reference`: each candidate
        is ``metric + (cost_a + cost_b)``, and the odd predecessor survives
        only when strictly smaller, as ``argmin`` picks the first of equal
        values.
        """
        if self.reference:
            return self._run_reference(cost_a, cost_b)
        batch, n_steps = cost_a.shape[0], cost_a.shape[1]
        # The branch decisions cost n_steps * 64 elements per frame; bound
        # them by sweeping large batches in independent slices (frames never
        # interact, so the split is exact).
        max_frames = max(1, self.MAX_BRANCH_ELEMENTS // max(n_steps * _N_STATES, 1))
        if batch > max_frames:
            return np.concatenate(
                [
                    self._run(cost_a[start : start + max_frames], cost_b[start : start + max_frames])
                    for start in range(0, batch, max_frames)
                ]
            )

        # Hard metrics are int32: 1e9 plus at most 2 per step stays exact and
        # far from overflow for any frame length.
        metrics = np.full((batch, _N_STATES), 1e9, dtype=np.result_type(cost_a, cost_b))
        metrics[:, 0] = 0
        # Predecessor metrics, broadcast over the new state's input bit.
        even = metrics.reshape(batch, _HALF, 2)[:, None, :, 0]
        odd = metrics.reshape(batch, _HALF, 2)[:, None, :, 1]
        new_metrics = metrics.reshape(batch, 2, _HALF)
        from_even = np.empty_like(new_metrics)
        from_odd = np.empty_like(new_metrics)
        survivors = np.empty((n_steps, batch, 2, _HALF), dtype=bool)
        for start in range(0, n_steps, self.BLOCK_STEPS):
            block = slice(start, start + self.BLOCK_STEPS)
            # The odd predecessor's costs are the same table with the input
            # bit reversed.
            branch = _branch_table(cost_a[:, block], cost_b[:, block])
            for even_costs, odd_costs, odd_wins in zip(
                branch, branch[:, :, ::-1], survivors[block]
            ):
                np.add(even, even_costs, out=from_even)
                np.add(odd, odd_costs, out=from_odd)
                np.less(from_odd, from_even, out=odd_wins)
                np.minimum(from_even, from_odd, out=new_metrics)

        if self.terminated:
            final = np.zeros(batch, dtype=np.intp)
        else:
            final = np.argmin(metrics, axis=1)
        return _traceback(survivors, final, self.BLOCK_STEPS)

    def _run_reference(self, cost_a: np.ndarray, cost_b: np.ndarray) -> np.ndarray:
        """Original (seed) trellis sweep, kept verbatim for verification."""
        batch, n_steps = cost_a.shape[0], cost_a.shape[1]
        exp_a = _TRELLIS["exp_a"]  # (states, 2 predecessors)
        exp_b = _TRELLIS["exp_b"]
        prev_state = _TRELLIS["prev_state"]
        input_bit = _TRELLIS["input_bit"]

        metrics = np.full((batch, _N_STATES), 1e9)
        metrics[:, 0] = 0.0
        survivors = np.empty((n_steps, batch, _N_STATES), dtype=np.uint8)

        for step in range(n_steps):
            # Branch cost of every (new state, predecessor) transition.
            branch = (
                cost_a[:, step, :][:, exp_a]  # (batch, states, 2)
                + cost_b[:, step, :][:, exp_b]
            )
            candidate = metrics[:, prev_state] + branch  # (batch, states, 2)
            choice = np.argmin(candidate, axis=2).astype(np.uint8)
            metrics = np.take_along_axis(candidate, choice[..., None], axis=2)[..., 0]
            survivors[step] = choice

        if self.terminated:
            states = np.zeros(batch, dtype=np.int64)
        else:
            states = np.argmin(metrics, axis=1)

        decoded = np.empty((batch, n_steps), dtype=np.uint8)
        rows = np.arange(batch)
        for step in range(n_steps - 1, -1, -1):
            decoded[:, step] = input_bit[states]
            choice = survivors[step][rows, states]
            states = prev_state[states, choice]
        return decoded


def _branch_table(cost_a: np.ndarray, cost_b: np.ndarray) -> np.ndarray:
    """Branch cost from the even predecessor of every (step, frame, new state).

    Returns a C-contiguous ``(n_steps, batch, 2 input bits, 32)`` table from
    the ``(batch, n_steps, 2)`` costs of the two coded bits.  The sums of
    every coded pair are laid out step-major first, and ``np.take`` keeps
    that order (fancy indexing would not), so each trellis step reads one
    contiguous block instead of one cache line per element.
    """
    batch, n_steps = cost_a.shape[0], cost_a.shape[1]
    pair = np.add(
        cost_a.transpose(1, 0, 2)[:, :, :, None],
        cost_b.transpose(1, 0, 2)[:, :, None, :],
        order="C",
    ).reshape(n_steps, batch, 4)
    return np.take(pair, _TRELLIS["even_code"], axis=2).reshape(n_steps, batch, 2, _HALF)


def _traceback(survivors: np.ndarray, final: np.ndarray, block_steps: int) -> np.ndarray:
    """Decoded bits of the surviving paths ending in the ``final`` states.

    ``survivors[step, frame]`` holds, per new state in ``(2, 32)`` layout,
    whether the odd predecessor survived.  Walking back, the predecessor of
    state ``s`` is ``2 * (s & 31) + choice``; the walk runs on the flat
    ``(frame, state)`` index.  Each block of ``block_steps`` steps first
    tabulates every state's predecessor index, ``2 * (s & 31)`` plus the
    survivor bit, in one vectorised add, so the walk itself is one ``take``
    per step.  The table holds the smallest unsigned type that indexes the
    batch (``uint16`` up to 1024 frames), which keeps building it cheaper
    than the ``take`` and add per step it replaces.
    """
    n_steps, batch = survivors.shape[0], survivors.shape[1]
    flat = survivors.reshape(n_steps, batch * _N_STATES)
    index = np.arange(batch * _N_STATES)
    shifted = (index - index % _N_STATES + 2 * (index % _HALF)).astype(
        np.min_scalar_type(batch * _N_STATES - 1)
    )
    position = index[::_N_STATES] + final
    path = np.empty((n_steps, batch), dtype=shifted.dtype)
    for stop in range(n_steps, 0, -block_steps):
        start = max(0, stop - block_steps)
        predecessor = shifted + flat[start:stop]
        for step in range(stop - start - 1, -1, -1):
            path[start + step] = position
            position = predecessor[step].take(position)
    # Each step's input bit is the top bit of the state it reached.
    return ((path.T % _N_STATES) // _HALF).astype(np.uint8)


def _known_mask(known_mask: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    """The erasure mask as booleans, rejecting anything but bool or 0/1 integers."""
    if known_mask is None:
        return np.ones(shape, dtype=bool)
    known = np.asarray(known_mask)
    if known.shape != shape:
        raise ValueError("known_mask must match coded_bits shape")
    if known.dtype == np.bool_:
        return known
    if known.dtype.kind not in "iu":
        raise ValueError(f"known_mask must be boolean or integer 0/1, got dtype {known.dtype}")
    if np.any((known != 0) & (known != 1)):
        raise ValueError("integer known_mask must hold only 0 and 1")
    return known.astype(bool)


def _bit_costs(received: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Hamming cost of hypothesising coded bit 0 or 1 at each position."""
    cost0 = known * received            # received 1 while hypothesising 0
    cost1 = known * (1 - received)      # received 0 while hypothesising 1
    return np.stack([cost0, cost1], axis=-1)


def _soft_costs(llrs: np.ndarray) -> np.ndarray:
    """Soft cost of hypothesising coded bit 0 or 1 given LLRs."""
    zeros = np.zeros_like(llrs)
    return np.stack([zeros, llrs], axis=-1)


def viterbi_decode(
    coded_bits: np.ndarray,
    known_mask: np.ndarray | None = None,
    terminated: bool = True,
) -> np.ndarray:
    """Convenience wrapper decoding a single codeword."""
    return ViterbiDecoder(terminated=terminated).decode(coded_bits, known_mask)


def viterbi_decode_batch(
    coded_bits: np.ndarray,
    known_mask: np.ndarray | None = None,
    terminated: bool = True,
) -> np.ndarray:
    """Convenience wrapper decoding a batch of equal-length codewords."""
    return ViterbiDecoder(terminated=terminated).decode_batch(coded_bits, known_mask)
