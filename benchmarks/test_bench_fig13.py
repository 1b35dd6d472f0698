"""Benchmark / regeneration of Figure 13 (interfering-neighbour CDF)."""

from repro.api import run_experiment_spec
from repro.experiments import fig13_network


def test_fig13_neighbor_cdf(benchmark, bench_profile, report):
    spec = fig13_network.build_spec()
    result = benchmark.pedantic(
        run_experiment_spec, args=(spec, bench_profile), rounds=1, iterations=1
    )
    report(result)
    standard = result.series["Standard Receiver"]
    cprecycle = result.series["CPRecycle"]
    # CPRecycle's CDF dominates: at every neighbour count it has at least as
    # many APs with that few (or fewer) interfering neighbours.
    assert all(c >= s - 1e-9 for c, s in zip(cprecycle, standard))
    assert cprecycle[len(cprecycle) // 3] > standard[len(standard) // 3]


def test_fig13_percentile_statistics(benchmark, bench_profile):
    analyses = benchmark.pedantic(
        fig13_network.run_analyses, args=(bench_profile,), kwargs=dict(n_realizations=4),
        rounds=1, iterations=1,
    )
    print()
    for name, analysis in analyses.items():
        print(f"{name}: mean neighbours {analysis.mean:.1f}, 80th percentile {analysis.percentile80:.0f}")
    assert analyses["cprecycle"].percentile80 <= analyses["standard"].percentile80
