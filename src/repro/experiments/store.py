"""Persistent result artifacts and point-level sweep caching.

Two durable layers back the experiment harness:

* :class:`ResultStore` — one ``results/<experiment>.json`` artifact per
  figure/table, wrapping the :class:`~repro.experiments.results.FigureResult`
  payload with a schema version and the execution key (profile and a
  content hash of the configuration) so downstream consumers can reload a
  result without re-running the sweep and can tell which configuration
  produced it.
* :class:`PointCache` — a JSON file of completed sweep-point outcomes keyed
  by a stable content hash of each point's task.  The sweep execution layer
  (:func:`repro.experiments.sweeps.execute_points`) consults it so that a
  re-run with the same profile skips finished points and an interrupted
  ``--profile full`` run resumes instead of restarting.

Keys come from :func:`stable_key`: a SHA-256 over a canonical, recursive
serialisation of the task object (dataclasses, ``functools.partial`` objects
and module-level callables are resolved to their structural content, not
their ``id()``), so the same logical point hashes identically across
processes and interpreter runs.

Durability: every record is written atomically (write-temp + ``os.replace``)
and stamped with a ``checksum`` (SHA-256 over the canonical JSON of the
record minus the checksum field).  A file that fails to parse or verify —
torn by a crash mid-rename on a non-atomic filesystem, truncated by a full
disk, hand-edited — is *quarantined*: renamed to ``<name>.corrupt`` with a
warning, after which the run continues from the last good state (an empty
cache, a fresh manifest) instead of raising or silently discarding
checkpointed work.  Files written by older builds carry no checksum and are
still accepted.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import time
import warnings
from pathlib import Path
from typing import Any

import numpy as np

from repro.experiments.results import FigureResult

__all__ = [
    "stable_key",
    "config_hash",
    "write_json_artifact",
    "ResultStore",
    "PointCache",
    "CampaignManifest",
]

#: Version of the on-disk artifact/cache envelope (the FigureResult payload
#: carries its own ``schema_version``).
STORE_SCHEMA_VERSION = 1

#: Environment variable pointing the sweep layer at a point-cache directory.
CACHE_ENV_VAR = "REPRO_RESULT_CACHE"


# --------------------------------------------------------------------------- #
# Stable content hashing                                                      #
# --------------------------------------------------------------------------- #
def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serialisable structure that is stable across
    interpreter runs (no ``id()``-dependent or address-dependent content)."""
    # Numpy scalars must hash like the equivalent Python scalar: tasks built
    # from numpy matrices (e.g. per-link SIRs in repro.network.links) would
    # otherwise key on numpy's version-dependent repr and never match the
    # same logical point built from plain floats.
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        # repr of the plain float is the shortest round-trip representation:
        # exact and stable (np.floating's own repr is "np.float64(...)" on
        # numpy >= 2, and np.float32 does not even subclass float).
        return ["float", repr(float(obj))]
    if isinstance(obj, (list, tuple)):
        return ["seq", [_canonical(item) for item in obj]]
    if isinstance(obj, dict):
        return ["map", sorted((str(key), _canonical(value)) for key, value in obj.items())]
    if isinstance(obj, functools.partial):
        return [
            "partial",
            _canonical(obj.func),
            _canonical(obj.args),
            _canonical(obj.keywords),
        ]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        return ["data", type(obj).__module__, type(obj).__qualname__, _canonical(fields)]
    if callable(obj):
        return ["fn", getattr(obj, "__module__", ""), getattr(obj, "__qualname__", repr(obj))]
    return ["repr", repr(obj)]


def stable_key(obj: Any) -> str:
    """SHA-256 hex digest of the canonical serialisation of ``obj``."""
    payload = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def config_hash(*objects: Any) -> str:
    """Short (12 hex digit) content hash identifying an execution config."""
    return stable_key(list(objects))[:12]


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_json_artifact(path: str | Path, record: dict[str, Any], indent: int | None = 2) -> Path:
    """Write one JSON artifact with a checksum stamp, atomically.

    The public funnel for every module that persists a standalone JSON
    record (campaign summaries, reports): the record gains the same
    ``checksum`` field the store's own artifacts carry, so
    :func:`_read_record` — and anything else that verifies artifacts — can
    detect torn or tampered files and quarantine them on the next read.
    Parent directories are created as needed.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(target, json.dumps(_stamped(record), indent=indent) + "\n")
    return target


# --------------------------------------------------------------------------- #
# Record integrity: checksum stamping and corrupt-file quarantine             #
# --------------------------------------------------------------------------- #
def _record_checksum(record: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of ``record`` minus its checksum."""
    body = {key: value for key, value in record.items() if key != "checksum"}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _stamped(record: dict[str, Any]) -> dict[str, Any]:
    """``record`` with its integrity checksum filled in."""
    return {**record, "checksum": _record_checksum(record)}


def _quarantine(path: Path, what: str, reason: str) -> Path:
    """Move a corrupt file out of the way and warn; never raises.

    The quarantined copy (``<name>.corrupt``) is preserved for post-mortem
    inspection; the caller then proceeds from its last good state.
    """
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
        moved = True
    except OSError:
        moved = False
    warnings.warn(
        f"{what} {path} is corrupt ({reason}); "
        + (f"quarantined to {target.name}" if moved else "it could not be quarantined")
        + " — continuing from the last good state",
        RuntimeWarning,
        stacklevel=4,
    )
    return target


def _read_record(path: Path, what: str) -> dict[str, Any] | None:
    """Read one checksummed JSON record, quarantining anything unreadable.

    Returns ``None`` when the file is absent or was corrupt (already
    quarantined, with a warning).  Records without a ``checksum`` field were
    written by an older build and are accepted as-is.
    """
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    except OSError as error:
        _quarantine(path, what, f"unreadable: {error}")
        return None
    try:
        record = json.loads(text)
    except json.JSONDecodeError as error:
        _quarantine(path, what, f"invalid JSON: {error}")
        return None
    if not isinstance(record, dict):
        _quarantine(path, what, f"expected a JSON object, got {type(record).__name__}")
        return None
    stored = record.get("checksum")
    if stored is not None and stored != _record_checksum(record):
        _quarantine(path, what, "checksum mismatch")
        return None
    return record


# --------------------------------------------------------------------------- #
# Figure/table artifacts                                                      #
# --------------------------------------------------------------------------- #
class ResultStore:
    """Directory of reloadable ``<experiment>.json`` result artifacts."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, name: str) -> Path:
        """Artifact path of one experiment.

        ``name`` must be a single path component — anything else would
        escape (or crash inside) the store directory.
        """
        if not name or Path(name).name != name:
            raise ValueError(
                f"experiment name {name!r} is not a valid artifact name "
                "(it must be a single path component)"
            )
        return self.root / f"{name}.json"

    def save(
        self,
        name: str,
        result: FigureResult,
        profile: Any = None,
        extra: dict[str, Any] | None = None,
        spec_hash: str | None = None,
    ) -> Path:
        """Write the artifact for ``name`` and return its path.

        ``profile`` is the :class:`ExperimentProfile` (or ``None`` for static
        analyses); the artifact records its fields plus a content hash of
        (experiment, profile) so a reloaded artifact identifies the
        run that produced it.  ``spec_hash`` — the content hash of the
        resolved :class:`repro.api.ExperimentSpec` that produced the result —
        is recorded and folded into the config hash when provided, so two
        artifacts under the same name but from different scenario specs are
        distinguishable.
        """
        config = (
            dataclasses.asdict(profile)
            if dataclasses.is_dataclass(profile) and not isinstance(profile, type)
            else None
        )
        key_parts = [name, profile] + ([spec_hash] if spec_hash is not None else [])
        record = {
            "schema_version": STORE_SCHEMA_VERSION,
            "experiment": name,
            "profile": getattr(profile, "name", None),
            "config_hash": config_hash(*key_parts),
            "spec_hash": spec_hash,
            "config": config,
            # repro-lint: disable=RPR002,RPR011 -- provenance timestamp (not a
            # measured interval) recording when the artifact was produced;
            # excluded from config_hash, so results stay pure functions of the
            # configuration.
            "created_unix": round(time.time(), 3),
            "result": result.to_dict(),
        }
        if extra:
            record.update(extra)
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(name)
        _atomic_write(path, json.dumps(_stamped(record), indent=2) + "\n")
        return path

    def load_record(self, name: str) -> dict[str, Any]:
        """Reload the raw artifact record (envelope + result payload).

        A missing artifact raises ``FileNotFoundError`` as before; a corrupt
        one is quarantined to ``<name>.json.corrupt`` and raises
        ``ValueError`` naming the quarantine file (artifacts are re-creatable
        by re-running the experiment, so there is no partial state to resume
        from).  A record without a ``result`` object (a campaign's
        ``manifest.json`` or ``summary.json``) raises ``ValueError`` naming
        the file.
        """
        path = self.path_for(name)
        if not path.is_file():
            raise FileNotFoundError(f"no artifact for experiment {name!r} at {path}")
        record = _read_record(path, "result artifact")
        if record is None:
            raise ValueError(
                f"artifact {name!r} was corrupt and has been quarantined to "
                f"{path.name}.corrupt; re-run the experiment to regenerate it"
            )
        version = record.get("schema_version")
        if not isinstance(version, int) or version > STORE_SCHEMA_VERSION:
            raise ValueError(
                f"artifact {name!r} has unsupported schema version {version!r} "
                f"(this build reads <= {STORE_SCHEMA_VERSION})"
            )
        if not isinstance(record.get("result"), dict):
            raise ValueError(f"{path} is not a result artifact: it has no 'result' object")
        return record

    def load(self, name: str) -> FigureResult:
        """Reload one experiment's :class:`FigureResult`."""
        return FigureResult.from_dict(self.load_record(name)["result"])

    def names(self) -> list[str]:
        """Experiments with a result artifact in the store.

        Other JSON files (a campaign workspace's ``manifest.json`` and
        ``summary.json``) and unreadable ones are not listed.
        """
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.json") if _is_result(path))


def _is_result(path: Path) -> bool:
    """Whether ``path`` holds a JSON record with a ``result`` object."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        return False
    return isinstance(record, dict) and isinstance(record.get("result"), dict)


# --------------------------------------------------------------------------- #
# Point-level sweep cache                                                     #
# --------------------------------------------------------------------------- #
class PointCache:
    """JSON-file-backed map of completed sweep-point outcomes.

    Outcomes must be JSON-serialisable (the sweep task functions return
    dicts/lists of numbers, which round-trip exactly), so a cached value is
    bit-identical to a freshly computed one.  The cache is flushed after
    every chunk of completed points, which is what makes an interrupted run
    resumable.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._entries: dict[str, Any] = {}
        record = _read_record(self.path, "point cache")
        if record is not None and record.get("schema_version") == STORE_SCHEMA_VERSION:
            points = record.get("points")
            if isinstance(points, dict):
                self._entries = points
            elif points is not None:
                _quarantine(
                    self.path, "point cache",
                    f"'points' should be an object, got {type(points).__name__}",
                )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Any:
        """Cached outcome for ``key`` (``None`` when absent)."""
        return self._entries.get(key)

    def update(self, outcomes: dict[str, Any]) -> None:
        """Record completed points and flush the cache file."""
        self._entries.update(outcomes)
        self.flush()

    def flush(self) -> None:
        """Write the cache file atomically, merging concurrent writers' points.

        Another ``--resume`` run may share this cache file (every
        packet-success-rate figure funnels through the same task function),
        so the file is re-read and merged under this process's entries before
        the atomic replace — a flush never discards points another run
        checkpointed in the meantime.  Both writers compute identical
        outcomes for identical keys, so merge order cannot change a value.

        A corrupt on-disk file is quarantined with a warning (it used to be
        silently discarded, losing every previously checkpointed point
        without a trace) and the flush proceeds with this process's entries —
        the last good state.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        record = _read_record(self.path, "point cache")
        if record is not None and record.get("schema_version") == STORE_SCHEMA_VERSION:
            merged = record.get("points")
            if isinstance(merged, dict):
                merged.update(self._entries)
                self._entries = merged
        record = {"schema_version": STORE_SCHEMA_VERSION, "points": self._entries}
        _atomic_write(self.path, json.dumps(_stamped(record)) + "\n")


# --------------------------------------------------------------------------- #
# Campaign manifest (adaptive-sampling checkpoints)                           #
# --------------------------------------------------------------------------- #
class CampaignManifest:
    """Durable state of one adaptive campaign run (checkpoint/resume).

    The campaign scheduler (:mod:`repro.campaigns.scheduler`) checkpoints
    after every sampling round: per deduplicated grid cell the manifest
    records the exact accumulated ``[n_success, n_packets]`` counts per
    receiver, the number of rounds spent, whether the cell met its precision
    target and the achieved Wilson confidence half-width.  A ``--resume``
    run reloads the manifest (the campaign content hash must match — a
    manifest from a *different* campaign refuses to resume instead of
    silently mixing results) and continues from the recorded counts; because
    every round's packets draw from global-packet-index RNG streams, the
    resumed run finishes with counts bit-identical to an uninterrupted one.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.campaign: str | None = None
        self.campaign_hash: str | None = None
        self.rounds_completed = 0
        self.points: dict[str, dict[str, Any]] = {}
        record = _read_record(self.path, "campaign manifest")
        # A corrupt manifest has been quarantined: start fresh.  The campaign
        # re-runs from round 0, and the global-packet-index RNG streams make
        # the recomputed counts bit-identical to the lost checkpoint's.
        self.existed = record is not None
        if record is not None:
            version = record.get("schema_version")
            if not isinstance(version, int) or version > STORE_SCHEMA_VERSION:
                raise ValueError(
                    f"campaign manifest {self.path} has unsupported schema version "
                    f"{version!r} (this build reads <= {STORE_SCHEMA_VERSION})"
                )
            self.campaign = record.get("campaign")
            self.campaign_hash = record.get("campaign_hash")
            self.rounds_completed = int(record.get("rounds_completed", 0))
            points = record.get("points")
            self.points = points if isinstance(points, dict) else {}

    def begin(self, campaign: str, campaign_hash: str) -> None:
        """Bind the manifest to one campaign, validating a resumed file.

        Resuming under a different campaign content hash would merge counts
        from incompatible runs; it raises instead.
        """
        if self.existed and self.campaign_hash != campaign_hash:
            raise ValueError(
                f"manifest {self.path} belongs to campaign "
                f"{self.campaign!r} (hash {self.campaign_hash}), not to "
                f"{campaign!r} (hash {campaign_hash}); use a fresh --out directory"
            )
        self.campaign = campaign
        self.campaign_hash = campaign_hash

    def counts(self, key: str) -> dict[str, list[int]]:
        """Accumulated ``{receiver: [n_success, n_packets]}`` of one cell."""
        record = self.points.get(key)
        if record is None:
            return {}
        return {name: list(pair) for name, pair in record.get("receivers", {}).items()}

    def spent_rounds(self, key: str) -> int:
        """Sampling rounds one cell has already consumed (0 when unknown)."""
        record = self.points.get(key)
        return 0 if record is None else int(record.get("rounds", 0))

    def record_point(
        self,
        key: str,
        receivers: dict[str, list[int]],
        rounds: int,
        converged: bool,
        ci_pct: dict[str, float],
        experiments: list[str],
    ) -> None:
        """Replace one cell's checkpoint (call :meth:`flush` to persist)."""
        self.points[key] = {
            "receivers": {name: list(pair) for name, pair in receivers.items()},
            "rounds": rounds,
            "converged": converged,
            "ci_pct": ci_pct,
            "experiments": sorted(experiments),
        }

    def flush(self) -> None:
        """Write the manifest atomically."""
        record = {
            "schema_version": STORE_SCHEMA_VERSION,
            "campaign": self.campaign,
            "campaign_hash": self.campaign_hash,
            "rounds_completed": self.rounds_completed,
            "points": self.points,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.path, json.dumps(_stamped(record), indent=2) + "\n")
