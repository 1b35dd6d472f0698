"""LinkResult count-merging and the psr() edge cases.

The adaptive campaign scheduler grows a sweep point's packet budget in
rounds; its correctness rests on the guarantee tested here — that splitting
one long run into consecutive ``first_packet`` windows and merging the
per-round :class:`LinkResult`s reproduces the long run bit for bit.
"""

import pytest

from repro.api.specs import InterfererSpec, ScenarioSpec
from repro.experiments.config import build_receivers
from repro.experiments.link import LinkResult, packet_success_rate, psr
from test_fast_path import oracle_link_run


def _scenario():
    return ScenarioSpec(
        mcs_name="qpsk-1/2",
        payload_length=40,
        sir_db=12.0,
        interferers=(InterfererSpec(kind="cci"),),
    ).build()


class TestPsr:
    def test_zero_packets_raises(self):
        with pytest.raises(ValueError, match="no packets"):
            psr(0, 0)

    def test_negative_packets_raises(self):
        with pytest.raises(ValueError):
            psr(0, -1)

    def test_success_count_out_of_range_raises(self):
        with pytest.raises(ValueError):
            psr(5, 4)
        with pytest.raises(ValueError):
            psr(-1, 4)

    def test_all_fail_and_all_success(self):
        assert psr(0, 7) == 0.0
        assert psr(7, 7) == 1.0

    def test_fraction(self):
        assert psr(3, 4) == 0.75


class TestLinkResultValidation:
    def test_counts_must_be_consistent(self):
        with pytest.raises(ValueError):
            LinkResult(receiver="r", n_packets=2, n_success=3)
        with pytest.raises(ValueError):
            LinkResult(receiver="r", n_packets=-1, n_success=0)

    def test_successes_must_match_counts(self):
        with pytest.raises(ValueError, match="disagree"):
            LinkResult(receiver="r", n_packets=2, n_success=1, successes=(True, True))
        with pytest.raises(ValueError, match="disagree"):
            LinkResult(receiver="r", n_packets=3, n_success=1, successes=(True,))

    def test_success_rate_of_empty_result_raises(self):
        with pytest.raises(ValueError, match="no packets"):
            LinkResult(receiver="r", n_packets=0, n_success=0).success_rate


class TestLinkResultMerge:
    def test_contiguous_ranges_merge(self):
        a = LinkResult("r", 2, 1, (True, False), first_packet=0)
        b = LinkResult("r", 3, 3, (True, True, True), first_packet=2)
        merged = a.merge(b)
        assert merged == LinkResult("r", 5, 4, (True, False, True, True, True), 0)
        # Order-independent: the later window merged first gives the same result.
        assert b.merge(a) == merged
        assert a + b == merged

    def test_counts_only_merge(self):
        a = LinkResult("r", 4, 2, first_packet=0)
        b = LinkResult("r", 4, 1, first_packet=4)
        merged = a.merge(b)
        assert (merged.n_success, merged.n_packets) == (3, 8)
        assert merged.successes == ()

    def test_receiver_mismatch_raises(self):
        a = LinkResult("r1", 1, 0, first_packet=0)
        b = LinkResult("r2", 1, 0, first_packet=1)
        with pytest.raises(ValueError, match="different receivers"):
            a.merge(b)

    def test_gap_and_overlap_raise(self):
        a = LinkResult("r", 2, 0, first_packet=0)
        with pytest.raises(ValueError, match="non-contiguous"):
            a.merge(LinkResult("r", 2, 0, first_packet=3))  # gap
        with pytest.raises(ValueError, match="non-contiguous"):
            a.merge(LinkResult("r", 2, 0, first_packet=1))  # overlap


@pytest.mark.parametrize("longrun_path", ["fast", "reference"])
def test_split_rounds_merge_to_one_long_run(longrun_path):
    """Sum of per-round results is bit-identical to one long run.

    The long run comes from :func:`packet_success_rate` itself or, for
    ``reference``, from the per-packet link oracle.  Uneven window sizes
    straddle the internal batch boundary, so the check also covers
    re-chunking inside a window.
    """
    scenario = _scenario()
    receivers = build_receivers(scenario.allocation)
    n_total, seed = 7, 99
    if longrun_path == "fast":
        longrun = packet_success_rate(scenario, receivers, n_total, seed=seed)
    else:
        successes, _ = oracle_link_run(scenario, receivers, n_total, seed)
        longrun = {
            name: LinkResult(name, n_total, sum(outcomes), outcomes)
            for name, outcomes in successes.items()
        }

    windows = [(0, 2), (2, 1), (3, 4)]  # consecutive (first_packet, n_packets)
    merged = None
    for first, count in windows:
        stats = packet_success_rate(scenario, receivers, count, seed=seed, first_packet=first)
        merged = stats if merged is None else {
            name: merged[name].merge(stats[name]) for name in merged
        }
    assert merged == longrun


def test_first_packet_shifts_the_stream():
    """Window [k, k+n) equals the tail of a long run, not a reseeded run."""
    scenario = _scenario()
    receivers = build_receivers(scenario.allocation, names=("standard",))
    longrun = packet_success_rate(scenario, receivers, 6, seed=5)
    tail = packet_success_rate(scenario, receivers, 3, seed=5, first_packet=3)
    assert tail["standard"].successes == longrun["standard"].successes[3:]
    assert tail["standard"].first_packet == 3


def test_negative_first_packet_raises():
    scenario = _scenario()
    receivers = build_receivers(scenario.allocation, names=("standard",))
    with pytest.raises(ValueError, match="first_packet"):
        packet_success_rate(scenario, receivers, 1, first_packet=-1)
