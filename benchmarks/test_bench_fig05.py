"""Benchmark / regeneration of Figure 5 (naive decoder vs Oracle vs standard)."""

import pytest

from repro.api import run_experiment_spec
from repro.experiments import fig05_naive


@pytest.mark.parametrize("sir_db", [-10.0, -20.0, -30.0])
def test_fig5_guardband_sweep(benchmark, bench_profile, report, sir_db):
    spec = fig05_naive.build_spec(sir_db=sir_db, guard_band_subcarriers=(0, 16, 64))
    result = benchmark.pedantic(
        run_experiment_spec, args=(spec, bench_profile), rounds=1, iterations=1
    )
    report(result)
    oracle = result.series["Oracle Scheme"]
    standard = result.series["Standard OFDM Receiver"]
    # The oracle never loses to the standard receiver on the same packets.
    assert all(o >= s - 25.0 for o, s in zip(oracle, standard))
