"""Viterbi decoder for the 802.11 rate-1/2 convolutional code.

The decoder is fully vectorised over a *batch* of equal-length codewords so
that packet-error-rate experiments can decode dozens of packets per numpy
trellis sweep.  Both hard decisions (with optional erasure masks produced by
depuncturing) and soft decisions (log-likelihood ratios) are supported.
Path metrics are held state-major, ``(64 states, frames)``, so every ufunc
of a trellis step runs over contiguous runs of frames.  Hard-decision
metrics are exact ``uint8`` sums of Hamming costs, renormalised at every
block start (see :meth:`ViterbiDecoder._run` for the bound); soft metrics
are ``float64`` and never renormalised.
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
#: Coded-pair index of every (predecessor parity, input bit, j) transition:
#: the odd predecessor of new state ``(b, j)`` emits what the even
#: predecessor of ``(1 - b, j)`` emits.
_BRANCH_CODES = np.concatenate([_TRELLIS["even_code"], np.roll(_TRELLIS["even_code"], _HALF)])


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
    #: costs per frame, not ``n_steps * 64``), hard metrics are renormalised
    #: at every block start, and the traceback tabulates one block of
    #: predecessor indices at a time.  The ``uint8`` bound of :meth:`_run`
    #: needs ``6 <= BLOCK_STEPS <= 121``.
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
            if coded.size and coded.max() > 1:
                raise ValueError("coded_bits must hold only 0 and 1")
            # Branch costs per position: 0 when erased, 0/1 Hamming otherwise,
            # summed exactly in uint8.
            cost_a = _bit_costs(coded[:, 0::2], known[:, 0::2])
            cost_b = _bit_costs(coded[:, 1::2], known[:, 1::2])
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
        take the costs' dtype: ``uint8`` for hard decisions, ``float64`` for
        soft ones.

        Metrics are state-major, ``(64, batch)``.  New state ``b*32 + j`` is
        reached only from states ``2j`` and ``2j + 1``, so with the metrics
        viewed as ``(2 predecessors, 1, 32, batch)`` each step is three
        in-place ufunc calls whose innermost axis is the frames: add both
        predecessors' metrics to their branch costs in one ``(2, 2, 32,
        batch)`` block, record which candidate is strictly smaller, keep the
        minimum.  The branch costs are built step-major and contiguous one
        block of :attr:`BLOCK_STEPS` steps at a time into one reused buffer
        (see :func:`_branch_table`), so each step reads one contiguous block
        and the table never spans the frame.
        Decisions are bit-identical to :meth:`_run_reference`: each candidate
        is ``metric + (cost_a + cost_b)``, and the odd predecessor survives
        only when strictly smaller, as ``argmin`` picks the first of equal
        values.

        Hard metrics fit ``uint8`` exactly.  A step costs 0, 1 or 2, and any
        state reaches any other within ``K - 1 = 6`` steps, so after 6 steps
        no metric exceeds its frame's minimum by more than 12.  Subtracting
        each frame's minimum at every block start (a shift of all of a
        frame's metrics, which changes no comparison and no ``argmin``)
        keeps every metric at or below ``12 + 2 * BLOCK_STEPS`` = 140.  The
        unreachable start states begin at ``U = 255 - 2 * BLOCK_STEPS``: any
        ``12 < U <= 255 - 2 * BLOCK_STEPS`` works, because within the first
        6 steps every path from state 0 costs at most 12 and so loses no
        comparison to a path from an unreachable state, exactly as with the
        reference's ``1e9``, and after 6 steps no such path survives.
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

        dtype = np.result_type(cost_a, cost_b)
        hard = dtype == np.uint8
        # Step-major costs, (n_steps, 2, batch), read block by block.
        cost_a = np.ascontiguousarray(cost_a.transpose(1, 2, 0))
        cost_b = np.ascontiguousarray(cost_b.transpose(1, 2, 0))
        unreached = np.iinfo(np.uint8).max - 2 * self.BLOCK_STEPS if hard else 1e9
        if hard and not (self.BLOCK_STEPS >= 6 and unreached > 12):
            raise ValueError(f"BLOCK_STEPS must lie in [6, 121], got {self.BLOCK_STEPS}")
        metrics = np.full((_N_STATES, batch), unreached, dtype=dtype)
        metrics[0] = 0
        # The (even, odd) predecessor metrics of every new state, (2, 1, 32,
        # batch), broadcast over the new state's input bit.
        predecessors = metrics.reshape(_HALF, 2, batch).transpose(1, 0, 2)[:, None]
        new_metrics = metrics.reshape(2, _HALF, batch)
        candidates = np.empty((2, *new_metrics.shape), dtype=dtype)
        from_even, from_odd = candidates
        survivors = np.empty((n_steps, 2, _HALF, batch), dtype=bool)
        table = np.empty((min(n_steps, self.BLOCK_STEPS), *candidates.shape), dtype=dtype)
        for start in range(0, n_steps, self.BLOCK_STEPS):
            if hard:
                metrics -= metrics.min(axis=0)
            block = slice(start, start + self.BLOCK_STEPS)
            branch = _branch_table(cost_a[block], cost_b[block], table)
            for costs, odd_wins in zip(branch, survivors[block]):
                np.add(predecessors, costs, out=candidates)
                np.less(from_odd, from_even, out=odd_wins)
                np.minimum(from_even, from_odd, out=new_metrics)

        if self.terminated:
            final = np.zeros(batch, dtype=np.intp)
        else:
            final = np.argmin(metrics, axis=0)
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


def _branch_table(cost_a: np.ndarray, cost_b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Branch cost from both predecessors of every (step, new state, frame).

    Returns a C-contiguous ``(n_steps, 2 predecessors, 2 input bits, 32,
    batch)`` table from the step-major ``(n_steps, 2, batch)`` costs of the
    two coded bits (the middle axis is the hypothesised bit value): entry
    ``[t, p, b, j]`` is the cost of reaching new state ``b*32 + j`` from
    state ``2j + p``.  The sums of every coded pair keep the frames
    innermost, and ``np.take`` keeps that order (fancy indexing would not),
    so each trellis step reads one contiguous block whose rows are runs of
    frames.  The table is written to the leading ``n_steps`` rows of
    ``out``, a C-contiguous buffer of that shape that the sweep reuses for
    every block.
    """
    n_steps, batch = cost_a.shape[0], cost_a.shape[2]
    pair = np.add(cost_a[:, :, None, :], cost_b[:, None, :, :], order="C").reshape(
        n_steps, 4, batch
    )
    table = out[:n_steps]
    np.take(pair, _BRANCH_CODES, axis=1, out=table.reshape(n_steps, _BRANCH_CODES.size, batch), mode="clip")
    return table


def _traceback(survivors: np.ndarray, final: np.ndarray, block_steps: int) -> np.ndarray:
    """Decoded bits of the surviving paths ending in the ``final`` states.

    ``survivors[step]`` holds, per new state in ``(2, 32, batch)`` layout,
    whether the odd predecessor survived.  Walking back, the predecessor of
    state ``s`` is ``2 * (s & 31) + choice``; the walk runs on the flat
    state-major index ``state * batch + frame``.  Each block of
    ``block_steps`` steps first tabulates every state's predecessor index,
    ``2 * (s & 31) * batch + frame`` plus ``batch`` times the survivor bit,
    in three vectorised passes, so the walk itself is one ``take`` per step.
    The table holds the smallest unsigned type that indexes the batch
    (``uint16`` up to 1024 frames), which keeps building it cheaper than the
    ``take`` and add per step it replaces.
    """
    n_steps, batch = survivors.shape[0], survivors.shape[-1]
    flat = survivors.reshape(n_steps, _N_STATES * batch)
    dtype = np.min_scalar_type(max(_N_STATES * batch - 1, 0))
    state, frame = np.divmod(np.arange(_N_STATES * batch), batch)
    from_even = (2 * (state % _HALF) * batch + frame).astype(dtype)
    position = (final * batch + np.arange(batch)).astype(dtype)
    path = np.empty((n_steps, batch), dtype=dtype)
    for stop in range(n_steps, 0, -block_steps):
        start = max(0, stop - block_steps)
        predecessor = flat[start:stop].astype(dtype)
        predecessor *= dtype.type(batch)
        predecessor += from_even
        for step in range(stop - start - 1, -1, -1):
            path[start + step] = position
            position = predecessor[step].take(position)
    # Each step's input bit is the top bit of the state it reached.
    return np.ascontiguousarray((path >= _HALF * batch).T, dtype=np.uint8)


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
    """``uint8`` Hamming cost of hypothesising coded bit 0 or 1 at each position."""
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
