"""Benchmark / regeneration of Figure 9 (PSR vs SIR, two ACI interferers)."""

from repro.api import run_experiment_spec
from repro.experiments import fig09_aci_two


def test_fig9_psr_vs_sir_two_interferers(benchmark, bench_profile, report):
    spec = fig09_aci_two.build_spec(
        mcs_names=("qpsk-1/2", "16qam-1/2"), sir_range_db=(-28.0, -12.0)
    )
    result = benchmark.pedantic(
        run_experiment_spec, args=(spec, bench_profile), rounds=1, iterations=1
    )
    report(result)
    series = result.series["QPSK (1/2) With CPRecycle"]
    # PSR is non-decreasing (within sampling noise) as SIR improves.
    assert series[-1] >= series[0] - 25.0
