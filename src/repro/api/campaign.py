"""Declarative campaign specifications.

A *campaign* runs an arbitrary set of experiments — builtin figures,
hand-written :class:`~repro.api.specs.ExperimentSpec`s and
:class:`~repro.api.specs.DeploymentSpec` network runs — as one managed unit
with **adaptive precision-targeted sampling**: instead of burning a fixed
``n_packets`` on every packet-success-rate grid cell, the campaign scheduler
(:mod:`repro.campaigns`) grows each cell's packet budget in geometric rounds
and stops as soon as the cell's Wilson confidence half-width reaches the
campaign's precision target (or its budget runs out).  Identical grid cells
shared by several experiments simulate once per campaign.

Like every other spec in :mod:`repro.api`, a campaign is plain data: frozen
dataclasses of primitives with eager validation (malformed campaigns fail at
construction, naming the offending field) and an exact, schema-versioned
JSON round-trip (:meth:`CampaignSpec.to_json` / :meth:`CampaignSpec.from_json`)
so campaigns are runnable from the command line::

    cprecycle-experiments campaign --spec my-campaign.json --resume

Example::

    from repro.api import CampaignExperiment, CampaignSpec, PrecisionSpec

    campaign = CampaignSpec(
        name="paper-sweep",
        experiments=(
            CampaignExperiment(builtin="fig4"),
            CampaignExperiment(builtin="fig11"),
            CampaignExperiment(spec=my_experiment_spec),
        ),
        precision=PrecisionSpec(ci_halfwidth_pct=1.0, min_packets=50),
    )
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.api.specs import (
    DeploymentSpec,
    ExperimentSpec,
    SpecError,
    _NAME_PATTERN,
    _check_legacy_engine,
    _from_payload,
    _set,
)

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "CampaignExperiment",
    "CampaignSpec",
    "PrecisionSpec",
]

#: Version of the serialised campaign payload (``CampaignSpec.to_json``).
CAMPAIGN_SCHEMA_VERSION = 1

#: Analysis runner that executes a DeploymentSpec campaign entry.
_DEPLOYMENT_ANALYSIS = "fig13-neighbor-cdf-simulated"


@dataclass(frozen=True)
class PrecisionSpec:
    """Per-metric sampling target of an adaptive campaign.

    Every packet-success-rate cell keeps simulating packets (in geometric
    rounds of factor ``growth``, starting at ``min_packets``) until the
    Wilson score interval of *each* receiver's PSR at ``confidence`` has a
    half-width of at most ``ci_halfwidth_pct`` percentage points, or the
    cell has spent ``max_packets``.  ``max_packets`` of ``None`` resolves to
    the execution profile's fixed ``n_packets`` — the budget the
    non-adaptive path would have burned unconditionally — so an adaptive
    campaign never simulates more than the fixed-budget run it replaces.
    """

    ci_halfwidth_pct: float = 1.0
    confidence: float = 0.95
    min_packets: int = 50
    max_packets: int | None = None
    growth: float = 2.0

    def __post_init__(self) -> None:
        if not self.ci_halfwidth_pct > 0:
            raise SpecError(
                f"precision ci_halfwidth_pct must be > 0, got {self.ci_halfwidth_pct}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise SpecError(
                f"precision confidence must be strictly between 0 and 1, got {self.confidence}"
            )
        if self.min_packets < 1:
            raise SpecError(f"precision min_packets must be >= 1, got {self.min_packets}")
        if self.max_packets is not None and self.max_packets < 1:
            raise SpecError(f"precision max_packets must be >= 1, got {self.max_packets}")
        if not self.growth > 1.0:
            raise SpecError(
                f"precision growth must be > 1 (each round must enlarge the budget), "
                f"got {self.growth}"
            )

    def budget(self, fixed_n_packets: int) -> tuple[int, int]:
        """Resolved ``(min_packets, max_packets)`` against the fixed budget.

        ``min_packets`` is clamped to the ceiling so a quick profile (tiny
        fixed budgets) still runs instead of failing the ``min <= max``
        invariant.
        """
        ceiling = self.max_packets if self.max_packets is not None else fixed_n_packets
        return min(self.min_packets, ceiling), ceiling

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict[str, Any], path: str = "precision") -> "PrecisionSpec":
        return cls(**_from_payload(cls, payload, path))


@dataclass(frozen=True)
class CampaignExperiment:
    """One experiment of a campaign: exactly one of three sources.

    * ``builtin`` — a builtin experiment name (``fig11``,
      ``fig13-simulated``, ...), resolved through
      ``repro.experiments.runner.BUILTIN_SPECS`` at build time;
    * ``spec`` — an inline :class:`~repro.api.specs.ExperimentSpec` (in JSON:
      the spec object, exactly as ``--dump-spec`` emits it);
    * ``deployment`` — a :class:`~repro.api.specs.DeploymentSpec`, wrapped
      into a simulated-network analysis run (``n_realizations`` Monte-Carlo
      realizations; requires ``name``).

    ``name`` overrides the experiment's campaign-local name (the artifact
    filename); ``precision`` overrides the campaign-level precision target
    for this experiment's cells.
    """

    builtin: str | None = None
    spec: ExperimentSpec | None = None
    deployment: DeploymentSpec | None = None
    name: str | None = None
    precision: PrecisionSpec | None = None
    n_realizations: int | None = None

    def __post_init__(self) -> None:
        if isinstance(self.spec, dict):
            _set(self, "spec", ExperimentSpec.from_dict(self.spec))
        if isinstance(self.deployment, dict):
            _set(self, "deployment", DeploymentSpec.from_dict(self.deployment))
        if isinstance(self.precision, dict):
            _set(self, "precision", PrecisionSpec.from_dict(self.precision, "experiment precision"))
        sources = [
            source
            for source, value in (
                ("builtin", self.builtin),
                ("spec", self.spec),
                ("deployment", self.deployment),
            )
            if value is not None
        ]
        if len(sources) != 1:
            raise SpecError(
                "a campaign experiment needs exactly one of 'builtin', 'spec' or "
                f"'deployment', got {sources or 'none'}"
            )
        if self.builtin is not None and (
            not isinstance(self.builtin, str) or _NAME_PATTERN.fullmatch(self.builtin) is None
        ):
            raise SpecError(f"campaign experiment builtin {self.builtin!r} is not a valid name")
        if self.name is not None and _NAME_PATTERN.fullmatch(str(self.name)) is None:
            raise SpecError(
                f"campaign experiment name {self.name!r} must start with a letter/digit "
                "and contain only letters, digits, '.', '_' or '-'"
            )
        if self.deployment is not None and self.name is None:
            raise SpecError(
                "a 'deployment' campaign experiment needs a 'name' (it becomes the "
                "artifact filename)"
            )
        if self.n_realizations is not None:
            if self.deployment is None:
                raise SpecError(
                    "campaign experiment n_realizations only applies to 'deployment' entries"
                )
            if self.n_realizations < 1:
                raise SpecError(
                    f"campaign experiment n_realizations must be >= 1, got {self.n_realizations}"
                )

    @property
    def resolved_name(self) -> str:
        """The experiment's campaign-local name (artifact filename)."""
        if self.name is not None:
            return self.name
        if self.builtin is not None:
            return self.builtin
        assert self.spec is not None  # __post_init__: exactly one source set
        return self.spec.name

    def build(self) -> ExperimentSpec:
        """Resolve this entry into a runnable :class:`ExperimentSpec`.

        Builtin names resolve lazily (so plugin experiments registered after
        the campaign was authored still work); an unknown name raises a
        :class:`SpecError` listing the valid choices.
        """
        if self.builtin is not None:
            from repro.experiments.runner import BUILTIN_SPECS

            factory = BUILTIN_SPECS.get(self.builtin)
            if factory is None:
                raise SpecError(
                    f"campaign experiment names unknown builtin {self.builtin!r}; "
                    f"valid: {sorted(BUILTIN_SPECS)}"
                )
            spec = factory()
        elif self.spec is not None:
            spec = self.spec
        else:
            assert self.deployment is not None  # exactly one source set
            params: dict[str, Any] = {"deployment": self.deployment.to_dict()}
            if self.n_realizations is not None:
                params["n_realizations"] = self.n_realizations
            spec = ExperimentSpec(
                name=self.resolved_name,
                figure="Network",
                title=f"Effective interfering neighbours ({self.deployment.topology} deployment)",
                kind="analysis",
                analysis=_DEPLOYMENT_ANALYSIS,
                params=params,
            )
        if spec.name != self.resolved_name:
            spec = replace(spec, name=self.resolved_name)
        return spec

    def to_dict(self) -> dict[str, Any]:
        return {
            "builtin": self.builtin,
            "spec": None if self.spec is None else self.spec.to_dict(),
            "deployment": None if self.deployment is None else self.deployment.to_dict(),
            "name": self.name,
            "precision": None if self.precision is None else self.precision.to_dict(),
            "n_realizations": self.n_realizations,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any], path: str = "experiment") -> "CampaignExperiment":
        data = dict(_from_payload(cls, payload, path))
        if isinstance(data.get("spec"), dict):
            # The inline spec payload carries its own schema version.
            data["spec"] = ExperimentSpec.from_dict(data["spec"])
        return cls(**data)


@dataclass(frozen=True)
class CampaignSpec:
    """One complete, serialisable campaign.

    ``experiments`` lists the member experiments (see
    :class:`CampaignExperiment`); ``precision`` is the campaign-wide adaptive
    sampling target (entries may override it).  ``profile`` pins the
    execution profile (``"quick"``/``"full"``; ``None`` follows
    ``REPRO_PROFILE``), ``n_workers``/``seed`` are the shared execution
    knobs applied to every member experiment — a CLI flag still beats them,
    mirroring ``--spec`` runs.
    """

    name: str
    experiments: tuple[CampaignExperiment, ...] = ()
    precision: PrecisionSpec = field(default_factory=PrecisionSpec)
    profile: str | None = None
    n_workers: int | None = None
    seed: int | None = None
    title: str = ""
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecError(f"campaign name must be a non-empty string, got {self.name!r}")
        if _NAME_PATTERN.fullmatch(self.name) is None:
            raise SpecError(
                f"campaign name {self.name!r} must start with a letter/digit and "
                "contain only letters, digits, '.', '_' or '-'"
            )
        if isinstance(self.precision, dict):
            _set(self, "precision", PrecisionSpec.from_dict(self.precision))
        if not isinstance(self.precision, PrecisionSpec):
            raise SpecError(
                f"campaign precision must be a PrecisionSpec, got {type(self.precision).__name__}"
            )
        if self.experiments is None:
            _set(self, "experiments", ())
        experiments = tuple(
            CampaignExperiment.from_dict(item, f"experiments[{i}]")
            if isinstance(item, dict)
            else item
            for i, item in enumerate(self.experiments)
        )
        if not experiments:
            raise SpecError("a campaign needs at least one experiment")
        for i, item in enumerate(experiments):
            if not isinstance(item, CampaignExperiment):
                raise SpecError(
                    f"experiments[{i}] must be a CampaignExperiment, got {type(item).__name__}"
                )
        _set(self, "experiments", experiments)
        names = [entry.resolved_name for entry in experiments]
        if len(set(names)) != len(names):
            raise SpecError(
                f"campaign experiment names must be unique (they key artifacts), got {names}"
            )
        # The workspace root holds manifest.json and summary.json next to the
        # <experiment>.json artifacts; an experiment with one of those names
        # would overwrite the campaign's own state (and break resume).
        reserved = {"manifest", "summary"} & set(names)
        if reserved:
            raise SpecError(
                f"campaign experiment name(s) {sorted(reserved)} are reserved for the "
                "campaign workspace's own files; rename the experiment (name=...)"
            )
        if self.profile is not None and self.profile not in ("quick", "full"):
            raise SpecError(f"campaign profile must be 'quick' or 'full', got {self.profile!r}")
        if self.n_workers is not None and self.n_workers < 1:
            raise SpecError(f"campaign n_workers must be >= 1, got {self.n_workers}")
        _set(self, "notes", tuple(self.notes or ()))

    # ------------------------------------------------------------------ #
    def precision_for(self, entry: CampaignExperiment) -> PrecisionSpec:
        """The precision target governing one member experiment."""
        return entry.precision if entry.precision is not None else self.precision

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable payload (schema-versioned)."""
        return {
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "name": self.name,
            "title": self.title,
            "experiments": [entry.to_dict() for entry in self.experiments],
            "precision": self.precision.to_dict(),
            "profile": self.profile,
            "n_workers": self.n_workers,
            "seed": self.seed,
            "notes": list(self.notes),
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Serialise to JSON text; :meth:`from_json` restores an equal spec."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "CampaignSpec":
        """Rebuild a campaign from :meth:`to_dict` output, checking the schema."""
        if not isinstance(payload, dict):
            raise SpecError(f"campaign spec must be a JSON object, got {type(payload).__name__}")
        payload = dict(payload)
        version = payload.pop("schema_version", None)
        if not isinstance(version, int) or version > CAMPAIGN_SCHEMA_VERSION:
            raise SpecError(
                f"unsupported campaign-spec schema version {version!r} "
                f"(this build reads <= {CAMPAIGN_SCHEMA_VERSION})"
            )
        # Deliberate legacy read: campaigns written before the engine knob
        # was removed carry this key.
        _check_legacy_engine(payload.pop("engine", None), "campaign spec")
        data = dict(_from_payload(cls, payload, "campaign spec"))
        if data.get("experiments") is not None:
            data["experiments"] = tuple(data["experiments"])
        if data.get("notes") is not None:
            data["notes"] = tuple(data["notes"])
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Inverse of :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"campaign spec is not valid JSON: {error}") from error
        return cls.from_dict(payload)
