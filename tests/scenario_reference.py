"""Hand-written reference scenarios for the ACI and CCI experiment layouts.

``repro.experiments.config.aci_scenario`` and ``cci_scenario`` build through
:meth:`repro.api.ScenarioSpec.build`.  These references build the same
scenarios directly from the channel primitives instead, so a test that
compares the two against them fails when the spec layer's SIR split, its
sender-allocation rule or its interferer defaults move.

With at most two interferers, the per-interferer SIR ``sir_db + 3.0103 *
(n - 1)`` dB is the equal split of the total; the CCI reference accepts
only those counts.
"""

from repro.channel.interference import adjacent_channel_interferer, co_channel_interferer
from repro.channel.scenario import Scenario
from repro.experiments.config import ACI_EDGE_WINDOW, SNR_FOR_MCS, aci_sender_allocation
from repro.phy.subcarriers import dot11g_allocation


def reference_aci_scenario(
    mcs_name,
    sir_db,
    payload_length,
    guard_subcarriers=4,
    two_sided=False,
    snr_db=None,
    edge_window_length=ACI_EDGE_WINDOW,
):
    """One or two adjacent-channel interferers around a wideband sender."""
    sender = aci_sender_allocation(two_sided=two_sided, guard_subcarriers=guard_subcarriers)
    sides = ("upper", "lower") if two_sided else ("upper",)
    interferers = [
        adjacent_channel_interferer(
            sender,
            sir_db=sir_db + 10.0 * 0.30103 * (len(sides) - 1),
            guard_subcarriers=guard_subcarriers,
            side=side,
            edge_window_length=edge_window_length,
        )
        for side in sides
    ]
    return Scenario(
        sender,
        mcs_name=mcs_name,
        payload_length=payload_length,
        snr_db=SNR_FOR_MCS[mcs_name] if snr_db is None else snr_db,
        interferers=interferers,
    )


def reference_cci_scenario(mcs_name, sir_db, payload_length, n_interferers=1, snr_db=None):
    """One or two co-channel interferers on the 802.11g sender grid."""
    if n_interferers not in (1, 2):
        raise ValueError(f"the reference splits the SIR for 1 or 2 interferers, not {n_interferers}")
    sender = dot11g_allocation()
    interferers = [
        co_channel_interferer(
            sender, sir_db=sir_db + 10.0 * 0.30103 * (n_interferers - 1), label=f"cci-{index}"
        )
        for index in range(n_interferers)
    ]
    return Scenario(
        sender,
        mcs_name=mcs_name,
        payload_length=payload_length,
        snr_db=SNR_FOR_MCS[mcs_name] if snr_db is None else snr_db,
        interferers=interferers,
    )
