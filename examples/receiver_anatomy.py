"""Anatomy of the CPRecycle receiver on a single packet.

Walks through the stages of Algorithm 1 explicitly — segment extraction,
interference-model training, fixed-sphere ML decoding — and prints what each
stage sees, which is useful both for understanding the algorithm and for
debugging configuration changes.
"""

from __future__ import annotations

import numpy as np

from repro.channel import Scenario, adjacent_channel_interferer
from repro.core import CPRecycleConfig, FixedSphereMlDecoder, InterferenceModel
from repro.phy import wideband_allocation
from repro.receiver import FrontEnd
from repro.receiver.decode_chain import decode_coded_bits

SIR_DB = -16.0


def main() -> None:
    sender = wideband_allocation(fft_size=160, start_bin=1)
    interferer = adjacent_channel_interferer(
        sender, sir_db=SIR_DB, guard_subcarriers=4, edge_window_length=8
    )
    scenario = Scenario(sender, mcs_name="16qam-1/2", payload_length=60, snr_db=28.0,
                        interferers=[interferer])
    rx = scenario.realize(3)
    config = CPRecycleConfig(max_segments=sender.cp_length)

    print(f"Scenario: 16-QAM 1/2, adjacent-channel interferer at {SIR_DB:g} dB SIR")
    print(f"Cyclic prefix: {sender.cp_length} samples; ISI-free (P): {rx.isi_free_cp_samples}")

    # Stage 1: front end — P phase-corrected, equalised FFT segments.
    front = FrontEnd(n_segments=config.n_segments, max_segments=config.max_segments).process(rx)
    print(f"\nStage 1 — front end: {front.n_segments} FFT segments, "
          f"window offsets {front.segment_offsets[0]}..{front.segment_offsets[-1]}")

    # Stage 2: per-subcarrier interference model from the preamble.
    model = InterferenceModel.from_front_end(front, config)
    deviation_scale = np.abs(model.deviations).mean(axis=(1, 2))
    worst = int(np.argmax(deviation_scale))
    print("Stage 2 — interference model:")
    print(f"  {model.n_subcarriers} subcarriers x {model.n_samples} deviation samples each")
    print(f"  most interfered data subcarrier: index {worst} "
          f"(mean deviation amplitude {deviation_scale[worst]:.2f})")
    print(f"  least interfered: index {int(np.argmin(deviation_scale))} "
          f"(mean deviation amplitude {deviation_scale.min():.3f})")

    # Stage 3: fixed-sphere maximum-likelihood decoding.
    decoder = FixedSphereMlDecoder(rx.spec.mcs.constellation, config)
    decisions = decoder.decode_frame(front.data, model)
    true_indices = rx.spec.mcs.constellation.nearest_indices(rx.tx_frame.data_points)
    ser = float(np.mean(decisions != true_indices))
    print(f"Stage 3 — sphere ML decoding: sphere radius {decoder.sphere_radius:.2f}, "
          f"raw symbol error rate {ser:.3f}")

    # Stage 4: the shared FEC chain.
    coded_bits = rx.spec.mcs.constellation.indices_to_bits(decisions.reshape(-1))
    frame = decode_coded_bits(rx.spec, coded_bits)
    print(f"Stage 4 — FEC decode: CRC {'OK' if frame.crc_ok else 'FAILED'}")


if __name__ == "__main__":
    main()
