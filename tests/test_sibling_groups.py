"""Sibling groups: sweep points that share every packet draw run as one task.

Points of one ``execute_points`` call that share the seed and packet window
and differ only in SNR, interferer SIRs and receivers draw identical
packets.  The sweep layer packs them into groups of at most
``MAX_GROUP_FRAMES`` FEC frames; a group draws each packet once, composes it
for one point at a time and decodes every frame in one Viterbi call.  These
tests pin that grouping changes no outcome, that only true siblings share a
group, that composed waveforms equal each scenario's own realisation, and
that the block-wise Viterbi keeps its decisions and its memory bound.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import InterfererSpec, ReceiverSpec, ScenarioSpec
from repro.api.experiment import expand_psr_points
from repro.api.registry import build_receiver
from repro.api.specs import ChannelSpec
from repro.experiments import sweeps
from repro.experiments.link import packet_success_rate
from repro.experiments.runner import BUILTIN_SPECS, OPT_IN, QUICK_PROFILE, builtin_spec
from repro.experiments.store import CACHE_ENV_VAR
from repro.experiments.sweeps import (
    MAX_GROUP_FRAMES,
    SweepGroup,
    SweepPoint,
    execute_points,
    run_sweep_point,
    run_sweep_point_counts,
)
from repro.phy.viterbi import ViterbiDecoder
from repro.utils.rng import child_rng

PSR_FIGURES = tuple(
    name
    for name, build in BUILTIN_SPECS.items()
    if name not in OPT_IN and build().kind == "psr"
)


def _points(name):
    """The quick-profile points of a builtin PSR figure, or of the paper-link spec."""
    if name != "paper-link":
        return expand_psr_points(builtin_spec(name).resolve(QUICK_PROFILE))[0]
    # The benchmark's paper-link workload: the fig8 grid over the paper MCS
    # set at two ACI SIRs, plus a co-channel interferer at 18 dB, 32
    # packets per point.  Like the workload it starts from the dumped
    # (resolved) fig8 spec, whose scenario keeps the quick payload.
    spec = builtin_spec("fig8").resolve(QUICK_PROFILE)
    aci = spec.scenario.interferers[0]
    scenario = replace(
        spec.scenario,
        interferers=(aci, replace(aci, kind="cci", sir_db=18.0)),
    )
    axes = tuple(
        replace(axis, values=(-16.0, -10.0), span=None) if axis.field == "sir_db" else axis
        for axis in spec.sweep.axes
    )
    spec = replace(
        spec,
        name="paper-link",
        scenario=scenario,
        sweep=replace(spec.sweep, axes=axes),
        n_packets=32,
        payload_length=400,
    )
    return expand_psr_points(spec.resolve(QUICK_PROFILE))[0]


def _link_inputs(point):
    scenario = point.scenario.build()
    receivers = {spec.name: build_receiver(spec, scenario.allocation) for spec in point.receivers}
    return scenario, receivers


def _groups(points):
    return [[points[i] for i in group] for group in sweeps._sibling_groups(points, list(range(len(points))))]


# --------------------------------------------------------------------------- #
# (a) Grouped execution gives every point the result it gets alone            #
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", (*PSR_FIGURES, "paper-link"))
def test_grouped_link_results_equal_alone(name):
    points = _points(name)
    for group in _groups(points):
        inputs = [_link_inputs(point) for point in group]
        lead = group[0]
        grouped = packet_success_rate(
            [scenario for scenario, _ in inputs],
            [receivers for _, receivers in inputs],
            lead.n_packets,
            seed=lead.seed,
            first_packet=lead.first_packet,
        )
        for point, (scenario, receivers), result in zip(group, inputs, grouped):
            alone = packet_success_rate(
                scenario, receivers, point.n_packets, seed=point.seed, first_packet=point.first_packet
            )
            # LinkResult equality covers the per-packet successes.
            assert result == alone, (name, point)
            assert all(stat.successes for stat in result.values())


@pytest.fixture(scope="module")
def fig8_fig14_alone():
    """fig8's and fig14's points, each with the counts it gets alone."""
    points = _points("fig8") + _points("fig14")
    return points, [run_sweep_point_counts(point) for point in points]


@pytest.mark.parametrize("workers", [1, 2])
def test_grouped_sweep_outcomes_equal_alone(fig8_fig14_alone, workers):
    points, alone = fig8_fig14_alone
    assert len(_groups(points)) < len(points) / 2
    assert execute_points(run_sweep_point_counts, points, n_workers=workers) == alone
    assert execute_points(run_sweep_point, points, n_workers=workers) == [
        {name: 100.0 * s / n for name, (s, n) in counts.items()} for counts in alone
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_warm_point_cache_splits_groups_without_changing_outcomes(tmp_path, monkeypatch, workers):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    points = _points("fig11")
    alone = [run_sweep_point_counts(point) for point in points]
    # Warm every third point: the pending rest packs into other groups than
    # a cold run forms.
    warm = points[1::3]
    execute_points(run_sweep_point_counts, warm, n_workers=workers)
    pending = [i for i, point in enumerate(points) if point not in warm]
    cold = sweeps._sibling_groups(points, list(range(len(points))))
    assert sweeps._sibling_groups(points, pending) != cold
    assert execute_points(run_sweep_point_counts, points, n_workers=workers) == alone


def test_sweep_group_rejects_mixed_packet_windows():
    point = _points("fig11")[0]
    with pytest.raises(ValueError, match="packet window"):
        SweepGroup((point, replace(point, first_packet=point.n_packets)))
    with pytest.raises(ValueError, match="at least one point"):
        SweepGroup(())


def test_packet_success_rate_rejects_non_siblings():
    points = _points("fig8")
    other_mcs = next(p for p in points if p.scenario.mcs_name != points[0].scenario.mcs_name)
    inputs = [_link_inputs(points[0]), _link_inputs(other_mcs)]
    with pytest.raises(ValueError, match="draw_key"):
        packet_success_rate([s for s, _ in inputs], [r for _, r in inputs], 2)
    with pytest.raises(ValueError, match="one receiver mapping per scenario"):
        packet_success_rate([inputs[0][0]], [], 2)


# --------------------------------------------------------------------------- #
# (b) Only siblings share a group; groups are capped; outcomes keep order     #
# --------------------------------------------------------------------------- #
_RECEIVERS = (
    (ReceiverSpec("standard"),),
    (ReceiverSpec("standard"), ReceiverSpec("cprecycle")),
    (ReceiverSpec("naive"), ReceiverSpec("oracle"), ReceiverSpec("cprecycle")),
)


@st.composite
def _point(draw):
    interferers = tuple(
        InterfererSpec(
            kind=draw(st.sampled_from(["aci", "cci"])),
            sir_db=draw(st.sampled_from([None, -10.0, 5.0])),
            guard_subcarriers=draw(st.sampled_from([2, 4])),
            timing_offset=draw(st.sampled_from([None, 60])),
            channel=draw(st.sampled_from([ChannelSpec(), ChannelSpec(kind="exponential", delay_spread_ns=50.0)])),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    scenario = ScenarioSpec(
        mcs_name=draw(st.sampled_from(["qpsk-1/2", "16qam-1/2"])),
        payload_length=draw(st.sampled_from([30, 60])),
        snr_db=draw(st.sampled_from([None, 20.0, 30.0])),
        sir_db=draw(st.sampled_from([-20.0, 0.0, 10.0])),
        interferers=interferers,
    )
    return SweepPoint(
        scenario=scenario,
        receivers=draw(st.sampled_from(_RECEIVERS)),
        n_packets=draw(st.sampled_from([1, 4, 10, 40])),
        seed=draw(st.sampled_from([0, 1])),
        first_packet=draw(st.sampled_from([0, 4])),
    )


def _without_levels(point):
    """A point with its SNR, SIRs and receivers blanked out."""
    scenario = point.scenario
    return replace(
        point,
        scenario=replace(
            scenario,
            snr_db=None,
            sir_db=None,
            interferers=tuple(replace(spec, sir_db=None) for spec in scenario.interferers),
        ),
        receivers=(),
    )


def _fake_outcome(point):
    """A deterministic stand-in outcome that names its point."""
    return {spec.name: [hash(point) % (point.n_packets + 1), point.n_packets] for spec in point.receivers}


def _fake_group(group):
    return [_fake_outcome(point) for point in group.points]


@settings(max_examples=60, deadline=None)
@given(
    points=st.lists(_point(), min_size=1, max_size=14),
    data=st.data(),
)
def test_sibling_groups_are_siblings_capped_and_ordered(points, data):
    pending = sorted(
        data.draw(st.sets(st.integers(0, len(points) - 1), min_size=1), label="pending")
    )
    groups = sweeps._sibling_groups(points, pending)
    # Every pending point lands in exactly one group, and groups follow
    # point order (by first member; members ascending).
    assert sorted(i for group in groups for i in group) == pending
    assert all(group == sorted(group) for group in groups)
    assert [group[0] for group in groups] == sorted(group[0] for group in groups)
    for group in groups:
        members = [points[i] for i in group]
        # Members differ in nothing but SNR, interferer SIRs and receivers.
        assert len({_without_levels(point) for point in members}) == 1
        frames = sum(point.n_packets * len(point.receivers) for point in members)
        assert frames <= MAX_GROUP_FRAMES or len(members) == 1
        SweepGroup(tuple(members))  # a valid group

    # Outcomes come back in point order, whatever the grouping.
    original = sweeps.run_sweep_group
    sweeps.run_sweep_group = _fake_group
    try:
        outcomes = execute_points(run_sweep_point_counts, points, n_workers=1)
    finally:
        sweeps.run_sweep_group = original
    assert outcomes == [_fake_outcome(point) for point in points]


def test_partition_ignores_worker_count(monkeypatch):
    seen = []
    original = sweeps._sibling_groups

    def recording(tasks, pending):
        groups = original(tasks, pending)
        seen.append(groups)
        return groups

    monkeypatch.setattr(sweeps, "_sibling_groups", recording)
    points = _points("fig12")
    assert execute_points(run_sweep_point, points, n_workers=1) == execute_points(
        run_sweep_point, points, n_workers=2
    )
    assert seen[0] == seen[1]


# --------------------------------------------------------------------------- #
# (c) Composed waveforms equal each scenario's own realisation                #
# --------------------------------------------------------------------------- #
def _arrays(rx):
    named = {
        "composite": rx.composite,
        "signal": rx.signal,
        "interference": rx.interference,
        "noise": rx.noise,
        "channel_taps": rx.channel_taps,
        "tx_frame.waveform": rx.tx_frame.waveform,
        "tx_frame.data_points": rx.tx_frame.data_points,
    }
    for index, component in enumerate(rx.interferers):
        named[f"interferers[{index}].component"] = component.component
        named[f"interferers[{index}].channel_taps"] = component.channel_taps
    return named


@pytest.mark.parametrize(
    "base",
    [
        ScenarioSpec(mcs_name="16qam-1/2", payload_length=60, interferers=(InterfererSpec(kind="aci"),)),
        ScenarioSpec(
            mcs_name="qpsk-1/2",
            payload_length=40,
            interferers=(
                InterfererSpec(kind="cci"),
                InterfererSpec(
                    kind="aci",
                    side="lower",
                    sir_db=-3.0,
                    channel=ChannelSpec(kind="exponential", delay_spread_ns=50.0),
                ),
            ),
            channel=ChannelSpec(kind="exponential", delay_spread_ns=80.0),
        ),
        ScenarioSpec(mcs_name="qpsk-3/4", payload_length=20),
    ],
    ids=["aci", "cci-plus-aci-multipath", "no-interferer"],
)
def test_composed_members_equal_their_own_realize(base):
    members = [
        replace(base, sir_db=sir_db, snr_db=snr_db).build()
        for sir_db, snr_db in ((-20.0, None), (5.0, 18.0), (12.0, 30.0))
    ]
    shared = {}
    composed = [
        member.realize_batch(3, seed=7, first_index=2, draws=shared) for member in members
    ]
    assert sorted(shared) == [2, 3, 4]  # each packet drawn once, for the group
    for member, batch in zip(members, composed):
        for packet, rx in enumerate(batch):
            own = _arrays(member.realize(child_rng(7, 2 + packet)))
            got = _arrays(rx)
            assert got.keys() == own.keys()
            for name, array in got.items():
                assert array.dtype == own[name].dtype, name
                assert array.tobytes() == own[name].tobytes(), name
    # Whatever two members share in memory is read-only.
    for first, second in zip(composed, composed[1:]):
        for rx_a, rx_b in zip(first, second):
            arrays_b = list(_arrays(rx_b).values())
            for name, array in _arrays(rx_a).items():
                if any(np.shares_memory(array, other) for other in arrays_b):
                    assert not array.flags.writeable, name


# --------------------------------------------------------------------------- #
# (d) Block-wise Viterbi: reference decisions, no whole-frame branch table     #
# --------------------------------------------------------------------------- #
_BLOCK = ViterbiDecoder.BLOCK_STEPS


@pytest.mark.parametrize("n_steps", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("terminated", [True, False], ids=["terminated", "unterminated"])
def test_viterbi_block_edges_match_reference(n_steps, terminated):
    rng = np.random.default_rng(n_steps)
    coded = rng.integers(0, 2, size=(5, 2 * n_steps), dtype=np.uint8)
    known = rng.random(coded.shape) >= 0.3
    fast = ViterbiDecoder(terminated=terminated).decode_batch(coded, known)
    reference = ViterbiDecoder(terminated=terminated, reference=True).decode_batch(coded, known)
    assert np.array_equal(fast, reference)
    llrs = rng.integers(-2, 3, size=coded.shape).astype(np.float64)
    assert np.array_equal(
        ViterbiDecoder(terminated=terminated).decode_soft_batch(llrs),
        ViterbiDecoder(terminated=terminated, reference=True).decode_soft_batch(llrs),
    )


def test_viterbi_holds_no_whole_frame_branch_table():
    batch, n_steps = 8, 4000
    rng = np.random.default_rng(0)
    coded = rng.integers(0, 2, size=(batch, 2 * n_steps), dtype=np.uint8)
    decoder = ViterbiDecoder()
    whole_table = n_steps * batch * 64 * np.dtype(np.int32).itemsize
    tracemalloc.start()
    try:
        decoder.decode_batch(coded)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The survivor bits (64 per step and frame) and the per-step costs stay;
    # the int32 branch table would add 256 bytes per step and frame.
    assert peak < whole_table, (peak, whole_table)
