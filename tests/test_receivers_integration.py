"""Integration tests: naive, oracle and CPRecycle receivers under interference.

These are the behavioural claims of the paper, checked at small scale:

* the Oracle exploits segment diversity and decodes packets the standard
  receiver loses under strong adjacent-channel interference;
* CPRecycle (blind) also recovers packets the standard receiver loses, for
  both adjacent-channel and co-channel interference;
* with a single segment CPRecycle degrades to the standard receiver;
* with no interference every receiver agrees.
"""

import numpy as np

from repro.channel.interference import adjacent_channel_interferer, co_channel_interferer
from repro.channel.scenario import Scenario
from repro.core.config import CPRecycleConfig
from repro.core.naive import NaiveSegmentReceiver, naive_decide_symbols
from repro.core.oracle import OracleSegmentReceiver, interference_power_per_segment
from repro.core.receiver import CPRecycleReceiver
from repro.experiments.config import aci_scenario
from repro.phy.constellation import qpsk
from repro.phy.subcarriers import dot11g_allocation, wideband_allocation
from repro.receiver.frontend import FrontEnd
from repro.receiver.standard import StandardOfdmReceiver
from repro.utils.rng import child_rng

WB = wideband_allocation(fft_size=160, start_bin=1)
N_TRIALS = 6


def _psr(receiver, scenario, n=N_TRIALS, seed0=100):
    return sum(receiver.receive(scenario.realize(seed0 + i)).success for i in range(n)) / n


def _ranks(values):
    """Ranks along the segment axis (axis 0)."""
    return np.argsort(np.argsort(values, axis=0), axis=0).astype(float)


def _aci_scenario(sir_db, edge_window=8, mcs="qpsk-1/2"):
    interferer = adjacent_channel_interferer(
        WB, sir_db=sir_db, guard_subcarriers=4, edge_window_length=edge_window
    )
    return Scenario(WB, mcs_name=mcs, payload_length=50, snr_db=25.0, interferers=[interferer])


class TestNaiveDecoder:
    def test_matches_nearest_point_with_single_segment(self):
        rng = np.random.default_rng(0)
        c = qpsk()
        observations = c.points[rng.integers(0, 4, size=20)][None, :]
        decided = naive_decide_symbols(observations, c)
        assert np.array_equal(decided, c.nearest_indices(observations[0]))

    def test_interference_dominated_segments_drag_the_decision(self):
        # The paper's motivating failure: when most segments are pushed near a
        # wrong lattice point by interference, the average-distance metric
        # follows them even though the clean segments identify the truth.
        c = qpsk()
        true_point = c.points[0]
        wrong_point = c.points[1]
        observations = np.array([[true_point]] * 2 + [[wrong_point]] * 3)
        decided = naive_decide_symbols(observations, c)
        assert decided[0] == 1

    def test_receiver_clean_channel(self):
        scenario = Scenario(dot11g_allocation(), mcs_name="qpsk-1/2", payload_length=50, snr_db=25.0)
        assert _psr(NaiveSegmentReceiver(), scenario) == 1.0


class TestOracleReceiver:
    def test_interference_power_shape(self):
        scenario = _aci_scenario(-20.0)
        rx = scenario.realize(0)
        front = FrontEnd(max_segments=16).process(rx)
        power = interference_power_per_segment(rx, front)
        assert power.shape == (16, rx.spec.n_data_symbols, 160)
        assert np.all(power >= 0)

    def test_preamble_segment_ranking_does_not_carry_to_the_data(self):
        # The interferer's symbol boundary lies inside every FFT window, so
        # which segment leaks least changes from symbol to symbol.  Per data
        # symbol and sender subcarrier, rank the P = 16 segments by genie
        # interference power, and compare with the preamble's mean ranking.
        scenario = aci_scenario("16qam-1/2", -19.0, payload_length=400)
        front_end = FrontEnd(n_segments=16)
        correlations, same_best = [], []
        for packet in range(8):
            rx = scenario.realize(child_rng(1, packet))
            front = front_end.process(rx)
            bins = rx.allocation.data_bin_array()
            preamble = interference_power_per_segment(rx, front, data_start=False)[:, :, bins]
            preamble = preamble.mean(axis=1)  # (P, n_bins)
            data = interference_power_per_segment(rx, front)[:, :, bins]  # (P, S, n_bins)
            a = _ranks(preamble)[:, None]
            b = _ranks(data)
            a, b = a - a.mean(axis=0), b - b.mean(axis=0)
            rho = (a * b).sum(axis=0) / np.sqrt((a * a).sum(axis=0) * (b * b).sum(axis=0))
            correlations.append(rho.ravel())
            same_best.append((preamble.argmin(axis=0) == data.argmin(axis=0)).ravel())
        # Spearman rho near 0, and the best segment repeats at about chance (1/16).
        assert abs(np.mean(np.concatenate(correlations))) < 0.3
        assert np.mean(np.concatenate(same_best)) < 0.25

    def test_oracle_beats_standard_under_strong_aci(self):
        scenario = _aci_scenario(-24.0)
        standard = _psr(StandardOfdmReceiver(), scenario)
        oracle = _psr(OracleSegmentReceiver(max_segments=WB.cp_length), scenario)
        assert standard <= 0.5
        assert oracle >= standard + 0.5

    def test_oracle_clean_channel(self):
        scenario = Scenario(dot11g_allocation(), mcs_name="16qam-1/2", payload_length=50, snr_db=28.0)
        assert _psr(OracleSegmentReceiver(), scenario) == 1.0


class TestCPRecycleReceiver:
    def test_clean_channel_all_mcs(self):
        for mcs, snr in (("qpsk-1/2", 22.0), ("16qam-1/2", 26.0), ("64qam-2/3", 32.0)):
            scenario = Scenario(dot11g_allocation(), mcs_name=mcs, payload_length=50, snr_db=snr)
            assert _psr(CPRecycleReceiver(), scenario, n=3) == 1.0, mcs

    def test_beats_standard_under_strong_aci(self):
        scenario = _aci_scenario(-24.0)
        standard = _psr(StandardOfdmReceiver(), scenario)
        cpr = _psr(CPRecycleReceiver(CPRecycleConfig(max_segments=WB.cp_length)), scenario)
        assert cpr >= standard + 0.3

    def test_helps_under_cci(self):
        sender = dot11g_allocation()
        scenario = Scenario(
            sender, mcs_name="qpsk-1/2", payload_length=50, snr_db=25.0,
            interferers=[co_channel_interferer(sender, sir_db=5.0)],
        )
        standard = _psr(StandardOfdmReceiver(), scenario)
        cpr = _psr(CPRecycleReceiver(), scenario)
        assert cpr >= standard

    def test_single_segment_matches_standard_decisions(self):
        scenario = _aci_scenario(-15.0)
        rx = scenario.realize(3)
        standard = StandardOfdmReceiver().demodulate(rx).decisions
        degraded = CPRecycleReceiver(CPRecycleConfig(n_segments=1)).demodulate(rx).decisions
        assert np.mean(standard == degraded) > 0.95

    def test_model_is_exposed_after_decoding(self):
        receiver = CPRecycleReceiver()
        scenario = _aci_scenario(-15.0)
        receiver.receive(scenario.realize(0))
        assert receiver.last_model is not None
        assert receiver.last_model.n_subcarriers == WB.n_data_subcarriers

    def test_pooled_scope_also_decodes_clean_channel(self):
        scenario = Scenario(dot11g_allocation(), mcs_name="qpsk-1/2", payload_length=50, snr_db=25.0)
        receiver = CPRecycleReceiver(CPRecycleConfig(model_scope="pooled"))
        assert _psr(receiver, scenario, n=3) == 1.0

    def test_more_segments_do_not_hurt_at_moderate_interference(self):
        scenario = _aci_scenario(-18.0)
        few = _psr(CPRecycleReceiver(CPRecycleConfig(n_segments=2)), scenario)
        many = _psr(CPRecycleReceiver(CPRecycleConfig(max_segments=WB.cp_length)), scenario)
        assert many >= few - 0.2


class TestReceiverAgreementWithoutInterference:
    def test_all_receivers_agree_on_clean_packets(self):
        scenario = Scenario(dot11g_allocation(), mcs_name="16qam-1/2", payload_length=40, snr_db=30.0)
        rx = scenario.realize(9)
        payloads = set()
        for receiver in (
            StandardOfdmReceiver(),
            NaiveSegmentReceiver(),
            OracleSegmentReceiver(),
            CPRecycleReceiver(),
        ):
            out = receiver.receive(rx)
            assert out.success
            payloads.add(out.payload)
        assert payloads == {rx.tx_frame.payload}
