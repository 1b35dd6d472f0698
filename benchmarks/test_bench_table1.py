"""Benchmark / regeneration of Table 1 (cyclic prefix provisioning)."""

from repro.experiments import table01_cp
from repro.standards.dot11 import table1_rows


def test_table1_rows(benchmark, report):
    rows = benchmark(table1_rows)
    assert len(rows) == 4
    print()
    for row in rows:
        print(row)


def test_table1_isi_free_analysis(benchmark, report):
    result = benchmark(table01_cp.run_isi_free_analysis, delay_spread_us=0.1)
    report(result)
    assert result.series["ISI-free samples (P)"][0] < result.series["ISI-free samples (P)"][-1]
