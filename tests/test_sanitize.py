"""Runtime determinism sanitizer (`REPRO_SANITIZE`): spool, merge, diff.

The sanitizer is the dynamic oracle behind the static RNG rules: every
pool-boundary task records digests of its payload, outcome and child-RNG
seed material, and ``sanitize-diff`` asserts those digests are bit-identical
across worker counts.  This suite pins the flag parsing, the spool/merge/diff
mechanics, task digests, the ``child_rng`` hook, and the end-to-end property
that serial and pooled sweeps produce identical reports.
"""

import dataclasses
import json

import pytest

from repro.experiments.parallel import parallel_map
from repro.experiments.store import _record_checksum, write_json_artifact
from repro.utils import sanitize
from repro.utils.rng import child_rng
from repro.utils.sanitize import (
    SANITIZE_ENV_VAR,
    diff_reports,
    merge_report,
    record_seed_material,
    run_sanitized,
    sanitize_dir,
    task_digest,
)


@dataclasses.dataclass(frozen=True)
class _Task:
    seed: int
    snr_db: float


def _draw_twice(task):
    rng = child_rng(task, 13, 0)
    other = child_rng(task, 13, 1)
    return float(rng.normal() + other.normal())


def spool_files(directory):
    return sorted(directory.glob("task-*.json"))


# --------------------------------------------------------------------------- #
# Flag parsing                                                                #
# --------------------------------------------------------------------------- #
class TestSanitizeDir:
    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
        assert sanitize_dir() is None

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", "", "  "])
    def test_falsy_values_mean_disabled(self, monkeypatch, value):
        monkeypatch.setenv(SANITIZE_ENV_VAR, value)
        assert sanitize_dir() is None

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "TRUE"])
    def test_truthy_values_spool_to_default_dir(self, monkeypatch, value):
        monkeypatch.setenv(SANITIZE_ENV_VAR, value)
        assert sanitize_dir() is not None
        assert sanitize_dir().name == "sanitize-report"

    def test_path_value_spools_there(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SANITIZE_ENV_VAR, str(tmp_path / "spool"))
        assert sanitize_dir() == tmp_path / "spool"


# --------------------------------------------------------------------------- #
# run_sanitized spooling                                                      #
# --------------------------------------------------------------------------- #
class TestRunSanitized:
    def test_disabled_is_a_pass_through(self, monkeypatch, tmp_path):
        monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        assert run_sanitized(lambda task: task * 2, 21) == 42
        assert list(tmp_path.rglob("*.json")) == []

    def test_enabled_spools_one_checksummed_record_per_task(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(SANITIZE_ENV_VAR, str(tmp_path))
        assert run_sanitized(_draw_twice, 7) == pytest.approx(_draw_twice(7))
        (path,) = spool_files(tmp_path)
        record = json.loads(path.read_text())
        assert record["task"] == task_digest(7)
        assert record["checksum"] == _record_checksum(record)
        # Two child_rng derivations ran inside the task.
        assert len(record["rng_streams"]) == 2
        assert record["rng_streams"][0] != record["rng_streams"][1]

    def test_spool_is_deterministic_across_runs(self, monkeypatch, tmp_path):
        for name in ("first", "second"):
            monkeypatch.setenv(SANITIZE_ENV_VAR, str(tmp_path / name))
            run_sanitized(_draw_twice, 11)
        (first,) = spool_files(tmp_path / "first")
        (second,) = spool_files(tmp_path / "second")
        assert first.read_text() == second.read_text()

    def test_reentrant_tasks_share_the_outer_record(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SANITIZE_ENV_VAR, str(tmp_path))

        def outer(task):
            # A sanitized task dispatching nested in-process work must not
            # open a second record — serial and pooled spools stay identical.
            return run_sanitized(_draw_twice, task) + run_sanitized(_draw_twice, task)

        run_sanitized(outer, 5)
        (path,) = spool_files(tmp_path)
        record = json.loads(path.read_text())
        assert record["task"] == task_digest(5)
        assert len(record["rng_streams"]) == 4  # both inner tasks' draws

    def test_failed_task_spools_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SANITIZE_ENV_VAR, str(tmp_path))

        def boom(task):
            raise RuntimeError("injected")

        with pytest.raises(RuntimeError, match="injected"):
            run_sanitized(boom, 1)
        assert spool_files(tmp_path) == []
        # The buffer was reset: the next draw outside a task records nothing.
        assert sanitize._TASK_STREAMS is None

    def test_retry_overwrites_with_identical_content(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SANITIZE_ENV_VAR, str(tmp_path))
        run_sanitized(_draw_twice, 3)
        run_sanitized(_draw_twice, 3)  # a supervisor retry of the same task
        assert len(spool_files(tmp_path)) == 1


# --------------------------------------------------------------------------- #
# record_seed_material hook                                                   #
# --------------------------------------------------------------------------- #
class TestSeedMaterialHook:
    def test_noop_outside_a_sanitized_task(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
        record_seed_material(1, (2, 3))  # must not raise, must not buffer
        assert sanitize._TASK_STREAMS is None

    def test_child_rng_feeds_the_running_record(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SANITIZE_ENV_VAR, str(tmp_path))
        run_sanitized(lambda task: child_rng(task, 4, 2).integers(10), 9)
        (path,) = spool_files(tmp_path)
        record = json.loads(path.read_text())
        assert len(record["rng_streams"]) == 1

    def test_distinct_streams_digest_differently(self, monkeypatch, tmp_path):
        digests = []
        monkeypatch.setenv(SANITIZE_ENV_VAR, str(tmp_path))

        def one_draw(task):
            seed, stream = task
            return child_rng(seed, stream).integers(10)

        for stream in (0, 1):
            run_sanitized(one_draw, (9, stream))
        for path in spool_files(tmp_path):
            digests.extend(json.loads(path.read_text())["rng_streams"])
        assert len(set(digests)) == 2


# --------------------------------------------------------------------------- #
# Task digests                                                                #
# --------------------------------------------------------------------------- #
class TestTaskDigest:
    def test_real_payload_differences_still_distinguish(self):
        assert task_digest(_Task(seed=1, snr_db=4.0)) == task_digest(_Task(seed=1, snr_db=4.0))
        assert task_digest(_Task(seed=1, snr_db=4.0)) != task_digest(_Task(seed=2, snr_db=4.0))

    def test_non_dataclass_payloads_digest_plainly(self):
        assert task_digest({"seed": 1}) == task_digest({"seed": 1})
        assert task_digest({"seed": 1}) != task_digest({"seed": 2})


# --------------------------------------------------------------------------- #
# merge_report                                                                #
# --------------------------------------------------------------------------- #
class TestMergeReport:
    def test_merges_sorted_and_stamps_report(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SANITIZE_ENV_VAR, str(tmp_path))
        for task in (5, 3, 8):
            run_sanitized(_draw_twice, task)
        report = merge_report(tmp_path)
        assert report["schema"] == "repro-sanitize-report-v1"
        assert report["n_tasks"] == 3
        assert list(report["tasks"]) == sorted(report["tasks"])
        assert report["conflicts"] == []
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["checksum"] == _record_checksum(on_disk)

    def test_detects_corrupt_spool_entry(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SANITIZE_ENV_VAR, str(tmp_path))
        run_sanitized(_draw_twice, 2)
        (path,) = spool_files(tmp_path)
        record = json.loads(path.read_text())
        record["outcome"] = "tampered"  # checksum now stale
        path.write_text(json.dumps(record))
        report = merge_report(tmp_path)
        assert report["n_tasks"] == 0
        assert any("checksum mismatch" in line for line in report["conflicts"])

    def test_detects_disagreeing_duplicate_executions(self, tmp_path):
        base = {"task": "t" * 64, "outcome": "a" * 64, "rng_streams": []}
        other = dict(base, outcome="b" * 64)
        write_json_artifact(tmp_path / "task-aaaa-1.json", base)
        write_json_artifact(tmp_path / "task-aaaa-2.json", other)
        report = merge_report(tmp_path)
        assert any("two executions disagreed" in line for line in report["conflicts"])


# --------------------------------------------------------------------------- #
# diff_reports / sanitize-diff                                                #
# --------------------------------------------------------------------------- #
class TestDiffReports:
    def _spool(self, monkeypatch, directory, tasks, fn=_draw_twice):
        monkeypatch.setenv(SANITIZE_ENV_VAR, str(directory))
        for task in tasks:
            run_sanitized(fn, task)

    def test_needs_at_least_two_directories(self, tmp_path):
        with pytest.raises(ValueError, match="at least two"):
            diff_reports([tmp_path])

    def test_identical_runs_diff_clean(self, monkeypatch, tmp_path):
        self._spool(monkeypatch, tmp_path / "a", [1, 2, 3])
        self._spool(monkeypatch, tmp_path / "b", [3, 1, 2])  # order-insensitive
        assert diff_reports([tmp_path / "a", tmp_path / "b"]) == []

    def test_missing_and_extra_tasks_are_reported(self, monkeypatch, tmp_path):
        self._spool(monkeypatch, tmp_path / "a", [1, 2])
        self._spool(monkeypatch, tmp_path / "b", [1, 3])
        mismatches = diff_reports([tmp_path / "a", tmp_path / "b"])
        assert any("missing" in line for line in mismatches)
        assert any("extra" in line for line in mismatches)

    def test_diverging_outcome_is_reported(self, monkeypatch, tmp_path):
        self._spool(monkeypatch, tmp_path / "a", [4])
        self._spool(
            monkeypatch, tmp_path / "b", [4], fn=lambda task: _draw_twice(task) + 1.0
        )
        mismatches = diff_reports([tmp_path / "a", tmp_path / "b"])
        assert any("outcome digest diverged" in line for line in mismatches)

    def test_serial_and_pooled_sweeps_spool_identically(self, monkeypatch, tmp_path):
        # The acceptance property: worker count must not change the report.
        tasks = list(range(6))
        monkeypatch.setenv(SANITIZE_ENV_VAR, str(tmp_path / "serial"))
        serial = parallel_map(_draw_twice, tasks, n_workers=1)
        monkeypatch.setenv(SANITIZE_ENV_VAR, str(tmp_path / "pooled"))
        pooled = parallel_map(_draw_twice, tasks, n_workers=2)
        assert serial == pooled
        assert diff_reports([tmp_path / "serial", tmp_path / "pooled"]) == []
