"""Benchmark / regeneration of Figure 11 (PSR vs SIR, single CCI interferer)."""

from repro.api import run_experiment_spec
from repro.experiments import fig11_cci_single


def test_fig11_psr_vs_sir_cci(benchmark, bench_profile, report):
    spec = fig11_cci_single.build_spec(sir_range_db=(0.0, 20.0))
    result = benchmark.pedantic(
        run_experiment_spec, args=(spec, bench_profile), rounds=1, iterations=1
    )
    report(result)
    # At high SIR every MCS decodes; at the low end the highest MCS collapses first.
    assert result.series["QPSK (1/2) With CPRecycle"][-1] >= 75.0
    assert result.series["64QAM (2/3) Without CPRecycle"][0] <= 50.0
