"""Bug re-injection catch table: the check that still catches each bug.

Each row re-injects one bug that once shipped, or one bug class that a
deleted whole-program lint rule (RPR007, RPR009, RPR010) targeted, and
names the surviving checks that catch it:

* ``rules`` — lint codes; the row substitutes the bug into the real
  module's source text and asserts that each rule fires on it and stays
  silent on the module as shipped;
* ``tests`` — unit tests that fail on the injected source; the row asserts
  that each still exists;
* ``runtime`` — a runtime check, exercised by the test named after it.

A row whose anchor text no longer matches its module fails and names
itself: update the anchor together with the code it quotes.  To add a
row, append a :class:`Row` naming the module, the exact text to replace
and every check that fails on the result.
"""

import ast
import importlib
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.experiments.store import CACHE_ENV_VAR
from repro.experiments.sweeps import execute_points
from repro.lint import lint_source
from repro.obs import TRACE_ENV_VAR
from repro.obs.merge import diff_traces
from repro.utils.rng import child_rng

REPO_ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Row:
    """One re-injected bug and the checks that catch it."""

    name: str
    #: Module the bug is substituted into ("" for rows run at runtime).
    module: str = ""
    #: ``(anchor, replacement)`` pairs; each anchor occurs exactly once.
    edits: tuple[tuple[str, str], ...] = ()
    rules: tuple[str, ...] = ()
    #: ``path::Class::test`` ids of tests that fail on the injected source.
    tests: tuple[str, ...] = ()
    runtime: str = ""

    def __post_init__(self):
        if not (self.rules or self.tests or self.runtime):
            raise ValueError(f"catch-table row {self.name!r} names no catcher")


ROWS = (
    Row(
        name="pr4-realization-rngs-aliasing",
        module="repro.experiments.fig13_network",
        edits=(
            (
                "child_rng(seed, 13, realization, 0),\n"
                "        child_rng(seed, 13, realization, 1),",
                "child_rng(seed + realization, 13, 0),\n"
                "        child_rng(seed + realization, 13, 1),",
            ),
        ),
        rules=("RPR001",),
        tests=(
            "tests/test_sweep_execution.py::TestFig13StreamIndependence"
            "::test_no_cross_seed_realization_aliasing",
        ),
    ),
    Row(
        name="seed-plus-index",
        module="repro.channel.scenario",
        edits=(("self.draw(child_rng(seed, index))", "self.draw(child_rng(seed + index))"),),
        rules=("RPR001",),
        tests=(
            "tests/test_api_experiments.py::TestBitIdentity::test_fig8_matches_legacy_path",
            "tests/test_fast_path.py::TestLinkEngineEquivalence"
            "::test_packet_success_rate_engines_agree",
            "tests/test_fast_path.py::TestLinkEngineEquivalence"
            "::test_symbol_error_rate_engines_agree",
            "tests/test_fast_path.py::TestRealizeAndFrontEndBatch"
            "::test_realize_batch_matches_sequential_child_rngs",
        ),
    ),
    Row(
        name="pr7-interleaver-seed-collapse",
        module="repro.phy.interleaver",
        edits=(
            (
                "np.random.default_rng(np.random.SeedSequence([131, ncbps, nbpsc]))",
                "np.random.default_rng(ncbps * 131 + nbpsc)",
            ),
        ),
        rules=("RPR001",),
    ),
    Row(
        name="raw-summary-json-write",
        module="repro.campaigns.scheduler",
        edits=(
            ("\nfrom dataclasses import", "\nimport json\nfrom dataclasses import"),
            (
                "write_json_artifact(summary_path, summary)",
                "summary_path.write_text(json.dumps(summary))",
            ),
        ),
        rules=("RPR005",),
    ),
    Row(
        name="numpy-scalar-cache-key",
        module="repro.experiments.store",
        edits=(("    if isinstance(obj, np.integer):\n        return int(obj)\n", ""),),
        tests=(
            "tests/test_results_store.py::TestStableKey"
            "::test_numpy_scalar_keys_like_its_plain_scalar",
        ),
    ),
    Row(
        name="spec-field-missing-from-to-dict",
        module="repro.api.specs",
        edits=(('            "pad_symbols": self.pad_symbols,\n', ""),),
        tests=(
            "tests/test_spec_coherence.py::TestSerialisableClasses"
            "::test_to_dict_writes_every_field",
            "tests/test_spec_coherence.py::TestSerialisableClasses::test_round_trips",
        ),
    ),
    Row(name="generator-shared-by-task-payloads", runtime="trace-diff"),
    Row(
        name="module-global-fed-into-stream",
        module="repro.channel.scenario",
        edits=(
            (
                '__all__ = ["PacketDraw", "Scenario", "ReceivedWaveform"]\n',
                '__all__ = ["PacketDraw", "Scenario", "ReceivedWaveform"]\n\n_REALIZE_CALLS = 0\n',
            ),
            (
                "        shared = {} if draws is None else draws\n",
                "        global _REALIZE_CALLS\n"
                "        _REALIZE_CALLS += 1\n"
                "        shared = {} if draws is None else draws\n",
            ),
            ("child_rng(seed, index)", "child_rng(seed, _REALIZE_CALLS, index)"),
        ),
        rules=("RPR008",),
        tests=(
            "tests/test_fast_path.py::TestLinkEngineEquivalence"
            "::test_packet_success_rate_engines_agree",
            "tests/test_fast_path.py::TestRealizeAndFrontEndBatch"
            "::test_realize_batch_first_index_slices_the_stream",
            "tests/test_sweep_execution.py::TestWorkersInvariance"
            "::test_fig10_workers2_matches_serial",
            "tests/test_fault_tolerance.py::TestCampaignCrashRecovery"
            "::test_sigkill_mid_round_then_resume_bit_identical",
        ),
    ),
    Row(name="module-lambda-into-pool", runtime="pickling-probe"),
    Row(
        name="builtin-analysis-without-registration",
        module="repro.api.registry",
        edits=(
            (
                '    "table1-isi-free": "repro.experiments.table01_cp",\n',
                '    "table1-isi-free": "repro.experiments.table01_cp",\n'
                '    "fig5-naive-profile": "repro.experiments.fig05_naive",\n',
            ),
        ),
        tests=(
            "tests/test_spec_coherence.py::TestAnalysisRegistry"
            "::test_builtin_table_matches_registrations",
        ),
    ),
)


def _rows(predicate):
    return pytest.mark.parametrize(
        "row", [row for row in ROWS if predicate(row)], ids=lambda row: row.name
    )


def _module_path(module):
    return Path(importlib.util.find_spec(module).origin)


def _injected_source(row):
    source = _module_path(row.module).read_text(encoding="utf-8")
    for anchor, replacement in row.edits:
        if source.count(anchor) != 1:
            pytest.fail(
                f"catch-table row {row.name!r}: anchor no longer occurs exactly once "
                f"in {row.module}: {anchor!r}"
            )
        source = source.replace(anchor, replacement)
    return source


def _test_exists(test_id):
    path, *names = test_id.split("::")
    scope = ast.parse((REPO_ROOT / path).read_text(encoding="utf-8")).body
    for name in names:
        node = next(
            (
                node
                for node in scope
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
            ),
            None,
        )
        if node is None:
            return False
        scope = node.body
    return True


@_rows(lambda row: row.module)
def test_bug_still_injects(row):
    compile(_injected_source(row), row.module, "exec")


@_rows(lambda row: row.rules)
def test_rules_fire_on_injected_bug(row):
    path = _module_path(row.module)
    shipped = path.read_text(encoding="utf-8")
    assert lint_source(shipped, path=str(path), module=row.module, codes=row.rules) == []
    injected = lint_source(
        _injected_source(row), path=str(path), module=row.module, codes=row.rules
    )
    assert sorted({diagnostic.code for diagnostic in injected}) == sorted(row.rules)


@_rows(lambda row: row.tests)
def test_catching_tests_exist(row):
    missing = [test_id for test_id in row.tests if not _test_exists(test_id)]
    assert missing == [], f"catch-table row {row.name!r} names tests that are gone"


def test_runtime_rows_are_exercised():
    assert {row.runtime for row in ROWS if row.runtime} == {"trace-diff", "pickling-probe"}


def _draw_from_payload_generator(task):
    rng, index = task
    return float(rng.normal()) + index


def test_trace_diff_catches_generator_shared_by_task_payloads(tmp_path, monkeypatch):
    # Row generator-shared-by-task-payloads: one child_rng generator travels
    # in every task payload, so the sweep's draws depend on the worker count.
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    payloads = {}
    for workers in (1, 2):
        rng = child_rng(2016, 4, 2)
        payloads[workers] = [(rng, index) for index in range(2)]
    for workers, tasks in payloads.items():
        monkeypatch.setenv(TRACE_ENV_VAR, str(tmp_path / f"w{workers}"))
        execute_points(_draw_from_payload_generator, tasks, n_workers=workers)
    assert diff_traces([tmp_path / "w1", tmp_path / "w2"]) != []


def test_pickling_probe_catches_module_lambda_into_pool(tmp_path, monkeypatch):
    # Row module-lambda-into-pool: a module-level lambda from another module
    # cannot pickle, so the pool's probe warns and the sweep runs serially
    # with unchanged results.
    (tmp_path / "catch_table_helpers.py").write_text("double = lambda value: value * 2\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    helpers = importlib.import_module("catch_table_helpers")
    with pytest.warns(RuntimeWarning, match="fell back to serial"):
        results = execute_points(helpers.double, [1, 2, 3], n_workers=2)
    assert results == [2, 4, 6]
