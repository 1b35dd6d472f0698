"""Static-analysis suite (`repro lint`): rules, suppressions, CLI, self-check.

Every rule gets a failing fixture (the bug class it guards against) and a
passing fixture (the blessed pattern); the suite also pins the deterministic
diagnostic ordering, the suppression contract (justification mandatory) and
the acceptance criterion that the shipped tree lints clean.
"""

import os
import subprocess
import sys
import textwrap
import tomllib
from pathlib import Path

import pytest

from repro.lint import Diagnostic, lint_paths, lint_source
from repro.lint.cli import main as lint_main
from repro.lint.engine import module_name_for
from repro.lint.rules import ALL_RULES, rules_table

REPO_ROOT = Path(__file__).resolve().parents[1]


def codes_of(diagnostics):
    return [diag.code for diag in diagnostics]


def lint_snippet(source, **kwargs):
    """Lint a dedented snippet as library code (module repro.fixture)."""
    return lint_source(textwrap.dedent(source), **kwargs)


# --------------------------------------------------------------------------- #
# RPR001 — arithmetic-derived seeds                                           #
# --------------------------------------------------------------------------- #
class TestSeedAliasing:
    def test_flags_seed_plus_realization(self):
        # The acceptance fixture: the exact PR 4 bug shape.
        diagnostics = lint_snippet(
            """
            import numpy as np

            def realization_rng(seed, realization):
                return np.random.default_rng(seed + realization)
            """
        )
        assert codes_of(diagnostics) == ["RPR001"]
        assert "seed + realization" in diagnostics[0].message

    def test_flags_seed_keyword_arithmetic(self):
        diagnostics = lint_snippet(
            """
            def run(seed, i):
                return simulate(seed=seed * 1000 + i)
            """
        )
        assert codes_of(diagnostics) == ["RPR001"]

    def test_outermost_arithmetic_reported_once(self):
        diagnostics = lint_snippet(
            """
            import numpy as np

            def rng_for(seed, i, j):
                return np.random.default_rng(seed * 131 + i * 7 + j)
            """
        )
        assert codes_of(diagnostics) == ["RPR001"]

    def test_allows_seedsequence_stream_tuple(self):
        diagnostics = lint_snippet(
            """
            import numpy as np

            def rng_for(seed, realization):
                return np.random.default_rng(np.random.SeedSequence([seed, realization]))
            """
        )
        assert diagnostics == []

    def test_allows_constant_arithmetic_seed(self):
        diagnostics = lint_snippet(
            """
            import numpy as np

            RNG = np.random.default_rng(2**32 - 1)
            """
        )
        assert diagnostics == []

    def test_allows_arithmetic_in_stream_position(self):
        # child_rng(seed, base + i): SeedSequence keeps stream components
        # collision-free, only the *seed* slot is restricted.
        diagnostics = lint_snippet(
            """
            from repro.utils.rng import child_rng

            def rng_for(seed, base, i):
                return child_rng(seed, base + i)
            """
        )
        assert diagnostics == []

    def test_blessed_module_exempt(self):
        diagnostics = lint_snippet(
            """
            import numpy as np

            def child(seed, i):
                return np.random.default_rng(seed + i)
            """,
            module="repro.utils.rng",
        )
        assert diagnostics == []


# --------------------------------------------------------------------------- #
# RPR002 — global RNG / wall clock in library code                            #
# --------------------------------------------------------------------------- #
class TestNondeterminism:
    def test_flags_legacy_numpy_global_rng(self):
        diagnostics = lint_snippet(
            """
            import numpy as np

            def noise(n):
                return np.random.standard_normal(n)
            """
        )
        assert codes_of(diagnostics) == ["RPR002"]

    def test_flags_stdlib_random_and_wall_clock(self):
        diagnostics = lint_snippet(
            """
            import random
            import time

            def jitter():
                return random.random() + time.time()
            """
        )
        # time.time in library code is both nondeterministic (RPR002) and an
        # ad-hoc clock read outside the obs layer (RPR011).
        assert codes_of(diagnostics) == ["RPR002", "RPR002", "RPR011"]

    def test_flags_datetime_now_and_uuid4(self):
        diagnostics = lint_snippet(
            """
            import datetime
            import uuid

            def tag():
                return f"{datetime.datetime.now()}-{uuid.uuid4()}"
            """
        )
        assert codes_of(diagnostics) == ["RPR002", "RPR002"]

    def test_allows_generator_api_and_monotonic(self):
        diagnostics = lint_snippet(
            """
            import time
            import numpy as np

            def simulate(seed):
                start = time.perf_counter()
                rng = np.random.default_rng(np.random.SeedSequence([seed]))
                return rng.standard_normal(8), time.perf_counter() - start
            """
        )
        # Monotonic clocks never trip the *determinism* rule; since the obs
        # layer landed they are RPR011's business instead (time library code
        # through repro.obs spans).
        assert codes_of(diagnostics) == ["RPR011", "RPR011"]

    def test_import_alias_resolution(self):
        diagnostics = lint_snippet(
            """
            from numpy import random as nprand

            def noise(n):
                return nprand.randn(n)
            """
        )
        assert codes_of(diagnostics) == ["RPR002"]

    def test_test_code_exempt(self):
        diagnostics = lint_snippet(
            """
            import time

            def test_elapsed():
                assert time.time() > 0
            """,
            module="",
        )
        assert diagnostics == []


# --------------------------------------------------------------------------- #
# RPR003 — unpicklable callables into pool dispatch                           #
# --------------------------------------------------------------------------- #
class TestProcessSafety:
    def test_flags_lambda_into_execute_points(self):
        diagnostics = lint_snippet(
            """
            from repro.experiments.sweeps import execute_points

            def run(points):
                return execute_points(lambda p: p.run(), points)
            """
        )
        assert codes_of(diagnostics) == ["RPR003"]

    def test_flags_closure_into_parallel_map(self):
        diagnostics = lint_snippet(
            """
            from repro.experiments.parallel import parallel_map

            def run(tasks, scale):
                def worker(task):
                    return task * scale
                return parallel_map(worker, tasks)
            """
        )
        assert codes_of(diagnostics) == ["RPR003"]

    def test_flags_fn_keyword(self):
        diagnostics = lint_snippet(
            """
            from repro.experiments.parallel import parallel_map

            def run(tasks):
                return parallel_map(fn=lambda t: t + 1, tasks=tasks)
            """
        )
        assert codes_of(diagnostics) == ["RPR003"]

    def test_applies_to_test_code_too(self):
        # Unlike the library-only rules, pool dispatch breaks identically in
        # tests — spawned workers cannot unpickle a test-local closure.
        diagnostics = lint_snippet(
            """
            def test_pool(tmp_path):
                from repro.experiments.parallel import parallel_map
                assert parallel_map(lambda x: x, [1]) == [1]
            """,
            module="",
        )
        assert codes_of(diagnostics) == ["RPR003"]

    def test_allows_module_level_function(self):
        diagnostics = lint_snippet(
            """
            from repro.experiments.sweeps import execute_points, run_sweep_point

            def run(points):
                return execute_points(run_sweep_point, points)
            """
        )
        assert diagnostics == []


# --------------------------------------------------------------------------- #
# RPR005 — raw artifact writes bypassing the store                            #
# --------------------------------------------------------------------------- #
class TestRawWrites:
    def test_flags_json_dump_to_open_file(self):
        diagnostics = lint_snippet(
            """
            import json

            def save(path, record):
                with open(path, "w") as handle:
                    json.dump(record, handle)
            """
        )
        assert codes_of(diagnostics) == ["RPR005", "RPR005"]

    def test_flags_write_text(self):
        diagnostics = lint_snippet(
            """
            import json

            def save(path, record):
                path.write_text(json.dumps(record))
            """
        )
        assert codes_of(diagnostics) == ["RPR005"]

    def test_read_mode_open_allowed(self):
        diagnostics = lint_snippet(
            """
            import json

            def load(path):
                with open(path) as handle:
                    return json.load(handle)
            """
        )
        assert diagnostics == []

    def test_store_module_exempt(self):
        diagnostics = lint_snippet(
            """
            def _atomic_write(path, text):
                path.write_text(text)
            """,
            module="repro.experiments.store",
        )
        assert diagnostics == []

    def test_test_code_exempt(self):
        diagnostics = lint_snippet(
            """
            def test_roundtrip(tmp_path):
                (tmp_path / "x.json").write_text("{}")
            """,
            module="",
        )
        assert diagnostics == []


# --------------------------------------------------------------------------- #
# RPR008 — module globals written at runtime                                  #
# --------------------------------------------------------------------------- #
class TestSharedMutableState:
    def test_flags_module_global_mutated_in_a_function(self):
        diagnostics = lint_snippet(
            """
            from repro.experiments.parallel import parallel_map

            _CACHE = {}

            def _point(task):
                _CACHE[task] = task * 2
                return _CACHE[task]

            def run(tasks):
                return parallel_map(_point, tasks, n_workers=2)
            """,
            codes=["RPR008"],
        )
        assert codes_of(diagnostics) == ["RPR008"]
        assert "_CACHE" in diagnostics[0].message

    def test_flags_global_rebind(self):
        diagnostics = lint_snippet(
            """
            _COUNT = 0

            def _point(task):
                global _COUNT
                _COUNT += 1
                return task
            """,
            codes=["RPR008"],
        )
        assert codes_of(diagnostics) == ["RPR008"]

    def test_parent_side_merge_is_clean(self):
        # The blessed pattern: workers return values, the parent merges.
        diagnostics = lint_snippet(
            """
            from repro.experiments.parallel import parallel_map

            def _point(task):
                return task * 2

            def run(tasks):
                merged = {}
                for task, value in zip(tasks, parallel_map(_point, tasks)):
                    merged[task] = value
                return merged
            """,
            codes=["RPR008"],
        )
        assert diagnostics == []

    def test_suppression_with_justification_silences(self):
        diagnostics = lint_snippet(
            """
            # repro-lint: disable=RPR008 -- parent-only counters; workers never read them
            _STATS = {"retries": 0}

            def _point(task):
                _STATS["retries"] += 1
                return task
            """,
            codes=["RPR008"],
        )
        assert diagnostics == []

    def test_test_code_exempt(self):
        diagnostics = lint_snippet(
            """
            _CALLS = []

            def record(value):
                _CALLS.append(value)
            """,
            module="",
        )
        assert diagnostics == []


# --------------------------------------------------------------------------- #
# RPR011 — untraced timing                                                    #
# --------------------------------------------------------------------------- #
class TestUntracedTiming:
    def test_flags_perf_counter_in_library_code(self):
        diagnostics = lint_snippet(
            """
            import time

            def measure(fn):
                start = time.perf_counter()
                fn()
                return time.perf_counter() - start
            """
        )
        assert codes_of(diagnostics) == ["RPR011", "RPR011"]
        assert "repro.obs" in diagnostics[0].message

    def test_flags_aliased_import(self):
        diagnostics = lint_snippet(
            """
            from time import monotonic as clock

            def elapsed(start):
                return clock() - start
            """
        )
        assert codes_of(diagnostics) == ["RPR011"]

    def test_obs_layer_is_exempt(self):
        diagnostics = lint_snippet(
            """
            import time

            def begin():
                return time.perf_counter()
            """,
            module="repro.obs.tracer",
        )
        assert diagnostics == []

    def test_scripts_and_tests_are_exempt(self):
        diagnostics = lint_snippet(
            """
            import time

            def bench():
                return time.perf_counter()
            """,
            module="",
        )
        assert diagnostics == []

    def test_sleep_is_not_a_clock_read(self):
        diagnostics = lint_snippet(
            """
            import time

            def backoff(attempt):
                time.sleep(0.1 * attempt)
            """
        )
        assert diagnostics == []

    def test_suppression_with_justification_silences(self):
        diagnostics = lint_snippet(
            """
            import time

            def created_at():
                return time.perf_counter()  # repro-lint: disable=RPR011 -- spool sequencing only
            """
        )
        assert diagnostics == []


# --------------------------------------------------------------------------- #
# Suppressions and RPR000                                                     #
# --------------------------------------------------------------------------- #
class TestSuppressions:
    def test_justified_trailing_suppression_silences(self):
        diagnostics = lint_snippet(
            """
            import time

            def stamp():
                return time.time()  # repro-lint: disable=RPR002,RPR011 -- provenance metadata only
            """
        )
        assert diagnostics == []

    def test_justified_standalone_suppression_covers_next_line(self):
        diagnostics = lint_snippet(
            """
            import time

            def stamp():
                # repro-lint: disable=RPR002,RPR011 -- provenance metadata only;
                # excluded from every content hash, so results stay deterministic.
                return time.time()
            """
        )
        assert diagnostics == []

    def test_unjustified_suppression_is_rpr000(self):
        # The comment is assembled by concatenation so the *raw text of this
        # test file* does not itself contain an unjustified suppression (the
        # self-check below lints tests/ and would flag it).
        source = (
            "import random\n"
            "\n"
            "def draw():\n"
            "    return random.random()  # repro-lint: disa" "ble=RPR002\n"
        )
        diagnostics = lint_source(source)
        assert codes_of(diagnostics) == ["RPR000"]

    def test_suppression_only_covers_listed_codes(self):
        diagnostics = lint_snippet(
            """
            import random

            def draw():
                return random.random()  # repro-lint: disable=RPR001 -- wrong code on purpose
            """
        )
        assert codes_of(diagnostics) == ["RPR002"]

    def test_syntax_error_reports_rpr000(self):
        diagnostics = lint_source("def broken(:\n    pass\n")
        assert codes_of(diagnostics) == ["RPR000"]


# --------------------------------------------------------------------------- #
# Determinism of output                                                       #
# --------------------------------------------------------------------------- #
class TestOrdering:
    def test_diagnostics_sorted_by_line_then_code(self):
        diagnostics = lint_snippet(
            """
            import json
            import time

            def save(path, record):
                record["when"] = time.time()
                path.write_text(json.dumps(record))
            """
        )
        assert codes_of(diagnostics) == ["RPR002", "RPR011", "RPR005"]
        assert [d.line for d in diagnostics] == sorted(d.line for d in diagnostics)

    def test_diagnostic_ordering_is_total(self):
        a = Diagnostic(path="a.py", line=3, col=1, code="RPR002", message="m")
        b = Diagnostic(path="a.py", line=3, col=1, code="RPR005", message="m")
        c = Diagnostic(path="b.py", line=1, col=1, code="RPR001", message="m")
        assert sorted([c, b, a]) == [a, b, c]

    def test_render_format(self):
        diag = Diagnostic(path="src/x.py", line=7, col=3, code="RPR001", message="boom")
        assert diag.render() == "src/x.py:7:3: RPR001 boom"


# --------------------------------------------------------------------------- #
# Engine plumbing                                                             #
# --------------------------------------------------------------------------- #
class TestEngine:
    def test_module_name_for(self):
        assert module_name_for(Path("src/repro/utils/rng.py")) == "repro.utils.rng"
        assert module_name_for(Path("src/repro/lint/__init__.py")) == "repro.lint"
        assert module_name_for(Path("tests/test_lint.py")) == ""

    def test_rule_registry_complete_and_sorted(self):
        codes = [rule.code for rule in ALL_RULES]
        assert codes == sorted(codes)
        assert codes == ["RPR001", "RPR002", "RPR003", "RPR005", "RPR008", "RPR011"]

    def test_rules_table_matches_registry(self):
        table = rules_table()
        assert [row[0] for row in table] == [rule.code for rule in ALL_RULES]
        assert all(len(row) == 3 for row in table)


# --------------------------------------------------------------------------- #
# CLI                                                                         #
# --------------------------------------------------------------------------- #
class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("VALUE = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_exit_one_with_rendered_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "dirty.py"
        bad.parent.mkdir()
        bad.write_text("import time\nSTAMP = time.time()\n")
        assert lint_main([str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "RPR002" in captured.out
        assert "problem(s) found" in captured.err

    def test_exit_two_without_paths(self, capsys):
        assert lint_main([]) == 2
        assert "no paths given" in capsys.readouterr().err

    def test_exit_two_for_missing_path(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_list_prints_every_rule(self, capsys):
        assert lint_main(["--list"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.code in out
        assert "disable=RPRxxx" in out

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert result.returncode == 0
        assert "RPR001" in result.stdout


# --------------------------------------------------------------------------- #
# Acceptance: the shipped tree lints clean                                    #
# --------------------------------------------------------------------------- #
class TestSelfCheck:
    @pytest.mark.parametrize("tree", ["src", "tests", "benchmarks"])
    def test_shipped_tree_is_clean(self, tree):
        diagnostics = lint_paths([REPO_ROOT / tree])
        assert diagnostics == [], "\n".join(d.render() for d in diagnostics)


# --------------------------------------------------------------------------- #
# Typing ratchet consistency                                                  #
# --------------------------------------------------------------------------- #
class TestTypingRatchet:
    @staticmethod
    def _strict_patterns():
        with (REPO_ROOT / "pyproject.toml").open("rb") as handle:
            config = tomllib.load(handle)
        overrides = config["tool"]["mypy"]["overrides"]
        strict = [o for o in overrides if o.get("disallow_untyped_defs")]
        assert len(strict) == 1, "expected exactly one strict-core override block"
        return strict[0]["module"]

    @staticmethod
    def _ratchet_modules():
        text = (REPO_ROOT / "tools" / "typing-ratchet.txt").read_text()
        return [
            line.strip()
            for line in text.splitlines()
            if line.strip() and not line.strip().startswith("#")
        ]

    @staticmethod
    def _matches(module, pattern):
        if pattern.endswith(".*"):
            stem = pattern[:-2]
            return module == stem or module.startswith(stem + ".")
        return module == pattern

    def test_strict_core_covers_issue_modules(self):
        patterns = self._strict_patterns()
        for required in (
            "repro.api",
            "repro.experiments.store",
            "repro.experiments.sweeps",
            "repro.campaigns",
        ):
            assert any(self._matches(required, p) for p in patterns), required

    def test_ratchet_disjoint_from_strict_core(self):
        patterns = self._strict_patterns()
        for module in self._ratchet_modules():
            clashing = [p for p in patterns if self._matches(module, p)]
            assert not clashing, f"{module} is both strict and ratcheted: {clashing}"

    def test_every_first_party_module_is_listed(self):
        # Nothing silently falls out of both lists: each module under
        # src/repro is either in the strict core or covered by a ratchet
        # entry (exact or package prefix).
        patterns = self._strict_patterns()
        ratchet = self._ratchet_modules()
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            module = module_name_for(path)
            if module == "repro":
                continue  # root package __init__: re-exports only
            strict = any(self._matches(module, p) for p in patterns)
            ratcheted = any(
                module == entry or module.startswith(entry + ".") for entry in ratchet
            )
            assert strict or ratcheted, f"{module} missing from strict core and ratchet"

    def test_py_typed_marker_ships(self):
        assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()
