"""Tests for result serialisation, artifacts and the point-level cache."""

import dataclasses
import json

import numpy as np
import pytest

from repro.api import run_experiment_spec
from repro.experiments.config import ExperimentProfile
from repro.experiments.results import (
    RESULT_SCHEMA_VERSION,
    FigureResult,
    format_csv,
    format_table,
)
from repro.experiments.runner import BUILTIN_SPECS, OPT_IN
from repro.experiments.store import (
    CACHE_ENV_VAR,
    CampaignManifest,
    PointCache,
    ResultStore,
    config_hash,
    stable_key,
    write_json_artifact,
)
from repro.experiments.sweeps import execute_points

MICRO = ExperimentProfile(name="micro", n_packets=2, payload_length=30, n_sir_points=2)


class TestEmptyResultRendering:
    def test_format_table_zero_x_values(self):
        result = FigureResult("Figure X", "empty sweep", "SIR", [], {"a": [], "b": []})
        text = format_table(result)
        # Headers-only table: title, y-label, header row, separator — no crash.
        assert "Figure X" in text and "SIR" in text and "a" in text and "b" in text
        assert len(text.splitlines()) == 4

    def test_format_table_zero_series(self):
        text = format_table(FigureResult("F", "t", "x", [], {}))
        assert "F: t" in text

    def test_format_csv_zero_x_values(self):
        result = FigureResult("Figure X", "empty sweep", "SIR", [], {"a": []})
        assert format_csv(result) == "SIR,a\n"

    def test_empty_round_trip(self):
        result = FigureResult("Figure X", "empty", "SIR", [], {"a": []})
        assert FigureResult.from_json(result.to_json()) == result


class TestFigureResultSerialisation:
    @pytest.mark.parametrize("name", sorted(set(BUILTIN_SPECS) - OPT_IN))
    def test_round_trip_every_experiment(self, name):
        result = run_experiment_spec(BUILTIN_SPECS[name](), MICRO)
        assert isinstance(result, FigureResult)
        restored = FigureResult.from_json(result.to_json())
        assert restored == result
        # Values survive as plain JSON scalars, exactly.
        assert json.loads(result.to_json())["schema_version"] == RESULT_SCHEMA_VERSION

    def test_newer_schema_rejected(self):
        payload = FigureResult("F", "t", "x", [1], {"a": [2.0]}).to_dict()
        payload["schema_version"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            FigureResult.from_dict(payload)


class TestStableKey:
    def test_key_is_content_based(self):
        from functools import partial

        a = partial(sorted, reverse=True)
        b = partial(sorted, reverse=True)
        assert stable_key(a) == stable_key(b)
        assert stable_key(a) != stable_key(partial(sorted, reverse=False))
        assert stable_key({"x": 1.0}) != stable_key({"x": 2.0})
        # A dataclass keys on its field values, as a sweep task payload does.
        assert stable_key(MICRO) == stable_key(dataclasses.replace(MICRO))
        assert stable_key(MICRO) != stable_key(dataclasses.replace(MICRO, n_packets=3))

    @pytest.mark.parametrize(
        "numpy_value, plain_value",
        [(np.int64(5), 5), (np.float64(0.5), 0.5), (np.bool_(True), True)],
        ids=["int64", "float64", "bool_"],
    )
    def test_numpy_scalar_keys_like_its_plain_scalar(self, numpy_value, plain_value):
        # Sweep tasks built from numpy matrices must hit the cache entries of
        # the same logical point built from plain Python values.
        for wrap in (lambda v: v, lambda v: {"sir_db": v}, lambda v: (1, v)):
            assert stable_key(wrap(numpy_value)) == stable_key(wrap(plain_value))

    def test_config_hash_shape(self):
        digest = config_hash("fig10", MICRO)
        assert len(digest) == 12 and int(digest, 16) >= 0


class TestResultStore:
    def test_save_and_reload(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        result = FigureResult("Figure 10", "t", "Guard", [0.0, 5.0], {"a": [1.0, 2.0]})
        path = store.save("fig10", result, profile=MICRO)
        assert path.is_file()
        assert store.load("fig10") == result
        record = store.load_record("fig10")
        assert record["profile"] == "micro"
        assert record["config"]["n_packets"] == 2
        assert record["config_hash"] == config_hash("fig10", MICRO)
        assert store.names() == ["fig10"]

    def test_unsupported_envelope_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        result = FigureResult("F", "t", "x", [1], {"a": [2.0]})
        store.save("f", result)
        record = json.loads(store.path_for("f").read_text())
        record["schema_version"] = 99
        store.path_for("f").write_text(json.dumps(record))
        with pytest.raises(ValueError):
            store.load("f")

    def test_names_lists_only_result_artifacts(self, tmp_path):
        # A campaign workspace keeps its manifest and summary next to the
        # per-experiment artifacts.
        store = ResultStore(tmp_path)
        store.save("fig11", FigureResult("F", "t", "x", [1], {"a": [2.0]}))
        CampaignManifest(tmp_path / "manifest.json").flush()
        write_json_artifact(tmp_path / "summary.json", {"schema_version": 1, "campaign": "c"})
        assert store.names() == ["fig11"]

    def test_load_record_rejects_a_record_without_result(self, tmp_path):
        write_json_artifact(tmp_path / "summary.json", {"schema_version": 1, "campaign": "c"})
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError, match="summary.json"):
            store.load_record("summary")
        with pytest.raises(ValueError, match="no 'result' object"):
            store.load("summary")


# Module-level (picklable) counting task function for the cache tests.  The
# counter only tracks executions in THIS process, which is exactly what the
# serial cache tests need.
_EXECUTIONS = []


def _tracked_task(value):
    _EXECUTIONS.append(value)
    return {"doubled": value * 2}


class TestPointCache:
    def test_cache_file_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = PointCache(path)
        cache.update({"k1": {"v": 1.5}, "k2": [1, 2]})
        reloaded = PointCache(path)
        assert len(reloaded) == 2
        assert reloaded.get("k1") == {"v": 1.5} and "k2" in reloaded

    def test_concurrent_writers_merge_instead_of_clobber(self, tmp_path):
        path = tmp_path / "cache.json"
        # Two runs sharing one cache file, each loaded before the other flushed.
        run_a = PointCache(path)
        run_b = PointCache(path)
        run_a.update({"a1": 1})
        run_b.update({"b1": 2})
        run_a.update({"a2": 3})
        merged = PointCache(path)
        assert {key: merged.get(key) for key in ("a1", "b1", "a2")} == {"a1": 1, "b1": 2, "a2": 3}

    def test_execute_points_skips_cached(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
        _EXECUTIONS.clear()
        first = execute_points(_tracked_task, [1, 2, 3])
        assert first == [{"doubled": 2}, {"doubled": 4}, {"doubled": 6}]
        assert sorted(_EXECUTIONS) == [1, 2, 3]
        # Re-run: everything served from the cache, nothing re-executed.
        again = execute_points(_tracked_task, [1, 2, 3])
        assert again == first
        assert sorted(_EXECUTIONS) == [1, 2, 3]

    def test_execute_points_resumes_partial_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
        _EXECUTIONS.clear()
        execute_points(_tracked_task, [1, 2])  # "interrupted" run: 2 of 4 points
        full = execute_points(_tracked_task, [1, 2, 3, 4])
        assert full == [{"doubled": v * 2} for v in [1, 2, 3, 4]]
        # Only the missing points executed on resume.
        assert sorted(_EXECUTIONS) == [1, 2, 3, 4]

    def test_cache_disabled_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        _EXECUTIONS.clear()
        execute_points(_tracked_task, [5])
        execute_points(_tracked_task, [5])
        assert _EXECUTIONS == [5, 5]


class TestRunnerPersistence:
    def test_runner_out_and_resume(self, tmp_path, monkeypatch):
        from repro.experiments import runner

        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.setattr(runner, "QUICK_PROFILE", MICRO)
        out = tmp_path / "results"
        assert runner.main(["table1", "--out", str(out), "--format", "json", "--resume"]) == 0
        store = ResultStore(out)
        assert store.names() == ["table1"]
        assert (out / ".cache").is_dir()
        first = store.load("table1")
        # Second run resumes from the cache and reproduces the artifact.
        assert runner.main(["table1", "--out", str(out), "--resume"]) == 0
        assert store.load("table1") == first
        # The env override is restored afterwards.
        assert CACHE_ENV_VAR not in __import__("os").environ

    def test_runner_csv_format(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import runner

        monkeypatch.setattr(runner, "QUICK_PROFILE", MICRO)
        assert runner.main(["table1", "--format", "csv"]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("Standard / bandwidth,")


class TestTwoProcessCacheWriters:
    def test_two_processes_sharing_cache_merge_on_flush(self, tmp_path):
        """A flush read-merge-writes the on-disk record before os.replace, so
        a writer in another process cannot be clobbered by entries this
        process loaded before that writer flushed."""
        import subprocess
        import sys
        from pathlib import Path

        path = tmp_path / "cache.json"
        mine = PointCache(path)  # loaded while the file does not exist yet
        script = (
            "import sys; sys.path.insert(0, sys.argv[2]);"
            "from repro.experiments.store import PointCache;"
            "PointCache(sys.argv[1]).update({'other-process': 42})"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        subprocess.run(
            [sys.executable, "-c", script, str(path), src], check=True
        )
        assert json.loads(path.read_text())["points"] == {"other-process": 42}
        # Flushing this process's (stale) view must keep the other writer's
        # point alongside ours.
        mine.update({"this-process": 1})
        merged = json.loads(path.read_text())["points"]
        assert merged == {"other-process": 42, "this-process": 1}
        assert mine.get("other-process") == 42


class TestChecksumQuarantine:
    def test_saved_records_carry_a_verifiable_checksum(self, tmp_path):
        from repro.experiments.store import _record_checksum

        store = ResultStore(tmp_path)
        store.save("f", FigureResult("F", "t", "x", [1], {"a": [2.0]}))
        record = json.loads(store.path_for("f").read_text())
        assert record["checksum"] == _record_checksum(record)

    def test_legacy_record_without_checksum_accepted(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"schema_version": 1, "points": {"old": 7}}))
        assert PointCache(path).get("old") == 7

    def test_corrupt_artifact_quarantined_and_named(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("f", FigureResult("F", "t", "x", [1], {"a": [2.0]}))
        store.path_for("f").write_text('{"schema_version":')  # torn write
        with pytest.warns(RuntimeWarning, match="corrupt"):
            with pytest.raises(ValueError, match="quarantined"):
                store.load("f")
        assert (tmp_path / "f.json.corrupt").is_file()
        assert store.names() == []  # the quarantined file is not an artifact

    def test_corrupt_cache_on_load_starts_empty_and_recovers(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("not json at all")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            cache = PointCache(path)
        assert len(cache) == 0
        assert (tmp_path / "cache.json.corrupt").is_file()
        cache.update({"fresh": 1})
        assert PointCache(path).get("fresh") == 1

    def test_flush_quarantines_corrupt_file_instead_of_silent_loss(self, tmp_path):
        """Regression: a corrupt on-disk cache used to be silently replaced,
        losing every previously checkpointed point without a trace."""
        path = tmp_path / "cache.json"
        cache = PointCache(path)
        cache.update({"kept": 1})
        path.write_text('{"points": {"kept"')  # torn by a crash mid-write
        with pytest.warns(RuntimeWarning, match="corrupt"):
            cache.update({"later": 2})
        # This process's view survives, and the torn file is preserved for
        # inspection instead of vanishing.
        merged = json.loads(path.read_text())["points"]
        assert merged == {"kept": 1, "later": 2}
        assert (tmp_path / "cache.json.corrupt").is_file()

    def test_tampered_cache_fails_checksum_and_quarantines(self, tmp_path):
        path = tmp_path / "cache.json"
        PointCache(path).update({"a": 1})
        record = json.loads(path.read_text())
        record["points"]["a"] = 999  # bit-flip without restamping
        path.write_text(json.dumps(record))
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            cache = PointCache(path)
        assert "a" not in cache

    def test_corrupt_manifest_quarantined_as_fresh_start(self, tmp_path):
        from repro.experiments.store import CampaignManifest

        path = tmp_path / "manifest.json"
        path.write_text("{{{")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            manifest = CampaignManifest(path)
        assert not manifest.existed
        assert (tmp_path / "manifest.json.corrupt").is_file()


class TestCampaignManifest:
    def _manifest(self, tmp_path):
        from repro.experiments.store import CampaignManifest

        return CampaignManifest(tmp_path / "manifest.json")

    def test_round_trip(self, tmp_path):
        from repro.experiments.store import CampaignManifest

        manifest = self._manifest(tmp_path)
        manifest.begin("camp", "abc123")
        manifest.record_point(
            "k1",
            receivers={"standard": [3, 8]},
            rounds=2,
            converged=True,
            ci_pct={"standard": 12.5},
            experiments=["fig11"],
        )
        manifest.rounds_completed = 2
        manifest.flush()

        reloaded = CampaignManifest(tmp_path / "manifest.json")
        assert reloaded.existed
        assert reloaded.campaign == "camp" and reloaded.campaign_hash == "abc123"
        assert reloaded.rounds_completed == 2
        assert reloaded.counts("k1") == {"standard": [3, 8]}
        assert reloaded.spent_rounds("k1") == 2
        assert reloaded.counts("missing") == {} and reloaded.spent_rounds("missing") == 0
        reloaded.begin("camp", "abc123")  # same campaign: resume allowed

    def test_begin_refuses_foreign_manifest(self, tmp_path):
        from repro.experiments.store import CampaignManifest

        manifest = self._manifest(tmp_path)
        manifest.begin("camp", "abc123")
        manifest.flush()
        reloaded = CampaignManifest(tmp_path / "manifest.json")
        with pytest.raises(ValueError, match="fresh --out"):
            reloaded.begin("other", "def456")

    def test_future_schema_version_rejected(self, tmp_path):
        from repro.experiments.store import CampaignManifest

        (tmp_path / "manifest.json").write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError, match="schema version"):
            CampaignManifest(tmp_path / "manifest.json")
