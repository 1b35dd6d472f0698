"""Benchmark / regeneration of Figure 10 (guard band vs PSR, 16-QAM)."""

from repro.api import run_experiment_spec
from repro.experiments import fig10_guardband


def test_fig10_guardband_sweep(benchmark, bench_profile, report):
    spec = fig10_guardband.build_spec(
        sir_values_db=(-10.0, -20.0), guard_band_subcarriers=(0, 32, 96)
    )
    result = benchmark.pedantic(
        run_experiment_spec, args=(spec, bench_profile), rounds=1, iterations=1
    )
    report(result)
    # With CPRecycle the PSR at a small guard band is at least the PSR the
    # standard receiver needs a much larger guard band to reach (the paper's
    # spectrum-efficiency argument), up to sampling noise.
    with_cpr = result.series["SIR -10 dB, With CPRecycle"]
    without = result.series["SIR -10 dB, Without CPRecycle"]
    assert with_cpr[0] >= without[0] - 25.0
