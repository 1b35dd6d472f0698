"""Benchmark / regeneration of Figure 12 (PSR vs SIR, two CCI interferers)."""

from repro.api import run_experiment_spec
from repro.experiments import fig12_cci_two


def test_fig12_psr_vs_sir_two_cci(benchmark, bench_profile, report):
    spec = fig12_cci_two.build_spec(
        mcs_names=("qpsk-1/2", "16qam-1/2"), sir_range_db=(0.0, 20.0)
    )
    result = benchmark.pedantic(
        run_experiment_spec, args=(spec, bench_profile), rounds=1, iterations=1
    )
    report(result)
    assert result.series["QPSK (1/2) With CPRecycle"][-1] >= 75.0
