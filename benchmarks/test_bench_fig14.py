"""Benchmark / regeneration of Figure 14 (number of FFT segments sweep)."""

from repro.api import run_experiment_spec
from repro.experiments import fig14_segment_sweep


def test_fig14_segment_count_sweep(benchmark, bench_profile, report):
    spec = fig14_segment_sweep.build_spec(
        sir_values_db=(-10.0, -20.0), segment_fractions=(0.025, 0.2, 0.6, 1.0)
    )
    result = benchmark.pedantic(
        run_experiment_spec, args=(spec, bench_profile), rounds=1, iterations=1
    )
    report(result)
    mild = result.series["SIR -10 dB"]
    # At mild interference a small fraction of the CP already recovers packets
    # (the paper's graceful-degradation claim).
    assert mild[1] >= mild[0] - 25.0
    assert mild[-1] >= 75.0
