"""Campaign orchestration: adaptive rounds, cross-experiment dedup, resume.

:func:`run_campaign` executes a :class:`repro.api.CampaignSpec` as one
managed unit:

1. every member experiment resolves to an :class:`~repro.api.ExperimentSpec`
   against the campaign's profile and shared worker config;
2. the packet-success-rate experiments' grids expand through the same
   :func:`repro.api.experiment.expand_psr_points` path as standalone runs,
   and cells that several experiments share (same scenario, receiver set
   and seed — identified by their
   :func:`repro.experiments.store.stable_key` content hash) collapse into
   one *campaign cell* that simulates once;
3. cells run in geometric sampling rounds through the shared sweep layer
   (:func:`repro.experiments.sweeps.execute_points`, so ``--workers`` and
   the persistent point cache apply): round *r* extends a cell's packet
   window ``[n_done, next_total)`` with packets drawn from global
   packet-index RNG streams, and the exact ``(n_success, n_packets)``
   counts merge losslessly across rounds — the accumulated counts after
   ``N`` packets are bit-identical to one fixed ``N``-packet run;
4. a cell stops as soon as every receiver's Wilson confidence half-width
   reaches the precision target, or its budget (``max_packets``, defaulting
   to the profile's fixed ``n_packets``) is spent;
5. after every round the campaign manifest
   (:class:`repro.experiments.store.CampaignManifest`) checkpoints the
   exact counts, and the sweep layer's point cache checkpoints chunk by
   chunk *within* a round — so ``--resume`` after an interrupt (even mid
   round) completes with bit-identical final counts;
6. analysis experiments (Fig. 4/6/13, Table 1, ``DeploymentSpec`` network
   runs) execute once through :func:`repro.api.run_experiment_spec` under
   the campaign's shared point cache;
7. per-experiment artifacts land in the campaign workspace's
   :class:`~repro.experiments.store.ResultStore` and a summary (series,
   achieved CIs, spent budgets, packet savings vs. the fixed-budget path)
   is written as ``summary.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro import obs
from repro.api.campaign import CampaignSpec, PrecisionSpec
from repro.api.experiment import (
    analysis_runner,
    check_receivers,
    expand_psr_points,
    run_experiment_spec,
    series_from_outcomes,
    spec_hash,
)
from repro.api.specs import ExperimentSpec
from repro.campaigns.adaptive import next_total, wilson_halfwidth
from repro.experiments.cli_env import environment
from repro.experiments.config import (
    FULL_PROFILE,
    QUICK_PROFILE,
    ExperimentProfile,
    default_profile,
)
from repro.experiments.link import psr
from repro.experiments.parallel import supervisor_stats
from repro.experiments.results import FigureResult
from repro.experiments.store import (
    CACHE_ENV_VAR,
    CampaignManifest,
    ResultStore,
    stable_key,
    write_json_artifact,
)
from repro.experiments.sweeps import SweepPoint, execute_points, run_sweep_point_counts

__all__ = ["CampaignRun", "run_campaign", "SUMMARY_SCHEMA_VERSION"]

#: Version of the ``summary.json`` payload.
SUMMARY_SCHEMA_VERSION = 1


@dataclass
class _Cell:
    """One deduplicated packet-success-rate grid cell of the campaign."""

    key: str
    point: SweepPoint  # template; rounds rewrite first_packet/n_packets
    min_packets: int
    max_packets: int
    ci_target_pct: float
    confidence: float
    growth: float
    counts: dict[str, list[int]] = field(default_factory=dict)
    rounds: int = 0
    experiments: set[str] = field(default_factory=set)

    @property
    def n_done(self) -> int:
        """Packets simulated so far (identical for every receiver)."""
        if not self.counts:
            return 0
        return next(iter(self.counts.values()))[1]

    def ci_pct(self) -> dict[str, float]:
        """Achieved Wilson half-width per receiver, in percentage points."""
        return {
            name: 100.0 * wilson_halfwidth(s, n, self.confidence)
            for name, (s, n) in sorted(self.counts.items())
        }

    @property
    def converged(self) -> bool:
        """True once every receiver's half-width meets the target."""
        if not self.counts:
            return False
        return all(hw <= self.ci_target_pct for hw in self.ci_pct().values())

    def absorb(self, outcome: dict[str, list[int]], n_new: int) -> None:
        """Merge one round's exact counts (losslessly, like LinkResult.merge)."""
        for name, (s, n) in outcome.items():
            if n != n_new:
                raise ValueError(
                    f"round outcome for {name!r} covers {n} packets, expected {n_new}"
                )
            done_s, done_n = self.counts.get(name, [0, 0])
            self.counts[name] = [done_s + s, done_n + n]
        self.rounds += 1

    def tighten(self, precision: PrecisionSpec, fixed_n_packets: int) -> None:
        """Fold another experiment's precision target into this shared cell.

        A shared cell must satisfy *every* member experiment, so targets
        combine pessimistically: the tightest half-width and confidence, the
        largest floor and ceiling, the finest growth factor.
        """
        lo, hi = precision.budget(fixed_n_packets)
        self.min_packets = max(self.min_packets, lo)
        self.max_packets = max(self.max_packets, hi)
        self.ci_target_pct = min(self.ci_target_pct, precision.ci_halfwidth_pct)
        self.confidence = max(self.confidence, precision.confidence)
        self.growth = min(self.growth, precision.growth)


@dataclass(frozen=True)
class CampaignRun:
    """Everything one campaign run produced."""

    summary: dict[str, Any]
    results: dict[str, FigureResult]
    workspace: Path
    manifest_path: Path
    summary_path: Path


def _resolve_profile(spec: CampaignSpec, profile: ExperimentProfile | None) -> ExperimentProfile:
    if profile is None:
        profile = (
            {"quick": QUICK_PROFILE, "full": FULL_PROFILE}[spec.profile]
            if spec.profile is not None
            else default_profile()
        )
    if spec.seed is not None:
        profile = profile.scaled(seed=spec.seed)
    return profile


def _cell_key(point: SweepPoint) -> str:
    """Content hash identifying one campaign cell across experiments/runs.

    Excludes the packet window (``n_packets``/``first_packet``) — the
    campaign owns the budget.
    """
    return stable_key((point.scenario, point.receivers, point.seed))


def run_campaign(
    spec: CampaignSpec,
    workspace: str | Path,
    resume: bool = False,
    n_workers: int | None = None,
    profile: ExperimentProfile | None = None,
) -> CampaignRun:
    """Run (or resume) one campaign; returns results, summary and paths.

    ``workspace`` receives the manifest (``manifest.json``), the shared
    point cache (``.cache/``), one reloadable artifact per experiment and
    the campaign summary (``summary.json``).  A workspace holding a
    manifest refuses to run again without ``resume=True`` (and refuses a
    manifest of a different campaign outright); a resumed run continues
    from the checkpointed counts and finishes bit-identical to an
    uninterrupted one.  ``n_workers`` follows the usual precedence:
    explicit argument, then the campaign spec, then the environment.

    The recovery events the run needed (retries, pool respawns, ...) are
    recorded under ``totals.recovery`` in the summary.
    """
    workspace = Path(workspace)
    stats_before = supervisor_stats().snapshot()
    profile = _resolve_profile(spec, profile)
    n_workers = n_workers if n_workers is not None else spec.n_workers

    resolved: dict[str, ExperimentSpec] = {}
    precisions: dict[str, PrecisionSpec] = {}
    for entry in spec.experiments:
        member = entry.build().resolve(profile)
        resolved[entry.resolved_name] = member
        precisions[entry.resolved_name] = spec.precision_for(entry)
        if member.kind == "analysis":
            analysis_runner(member)  # misspelled params fail before the first round
        else:
            check_receivers(expand_psr_points(member)[0])  # so do rejected receivers

    campaign_hash = stable_key((spec, profile, resolved))[:12]

    manifest = CampaignManifest(workspace / "manifest.json")
    if manifest.existed and not resume:
        raise ValueError(
            f"workspace {workspace} already holds a campaign manifest; pass "
            "resume=True (--resume) to continue it, or choose a fresh workspace"
        )
    manifest.begin(spec.name, campaign_hash)

    # Expand every PSR experiment's grid and dedup shared cells.
    cells: dict[str, _Cell] = {}
    grids: dict[str, tuple[list[str], list[dict[str, Any]]]] = {}
    for name, member in resolved.items():
        if member.kind != "psr":
            continue
        points, contexts = expand_psr_points(member)
        precision = precisions[name]
        keys: list[str] = []
        for point in points:
            key = _cell_key(point)
            keys.append(key)
            cell = cells.get(key)
            if cell is None:
                lo, hi = precision.budget(member.n_packets)
                cell = _Cell(
                    key=key,
                    point=point,
                    min_packets=lo,
                    max_packets=hi,
                    ci_target_pct=precision.ci_halfwidth_pct,
                    confidence=precision.confidence,
                    growth=precision.growth,
                    counts=manifest.counts(key),
                    rounds=manifest.spent_rounds(key),
                )
                cells[key] = cell
            else:
                cell.tighten(precision, member.n_packets)
            cell.experiments.add(name)
        grids[name] = (keys, contexts)

    def checkpoint() -> None:
        for cell in cells.values():
            manifest.record_point(
                cell.key,
                receivers=cell.counts,
                rounds=cell.rounds,
                converged=cell.converged,
                ci_pct=cell.ci_pct(),
                experiments=sorted(cell.experiments),
            )
        manifest.flush()

    # The whole campaign — adaptive rounds *and* analysis experiments —
    # shares one point cache, so a chunk that flushed before an interrupt
    # (or an analysis sweep repeated across resumes) simulates once.
    # Cross-experiment sharing happens at the cell level above and only
    # between PSR experiments: adaptive windows and fixed-budget tasks key
    # differently, so e.g. fig13-simulated link sweeps do not reuse campaign
    # cells through this cache.
    with environment({CACHE_ENV_VAR: str(workspace / ".cache")}):
        # One trace root for the whole campaign: sampling rounds,
        # checkpoints and analysis experiments all nest under it (the
        # sweep layer's own roots become nested spans automatically).
        with obs.tracing("campaign", campaign=spec.name, hash=campaign_hash):
            while True:
                batch: list[tuple[_Cell, int, int]] = []
                for cell in cells.values():
                    done = cell.n_done
                    if cell.converged or done >= cell.max_packets:
                        continue
                    target = next_total(done, cell.min_packets, cell.max_packets, cell.growth)
                    if target > done:
                        batch.append((cell, done, target - done))
                if not batch:
                    break
                with obs.span(
                    "campaign.round",
                    round=manifest.rounds_completed + 1,
                    n_cells=len(batch),
                    n_packets=sum(count for _, _, count in batch),
                ):
                    tasks = [
                        replace(cell.point, first_packet=done, n_packets=count)
                        for cell, done, count in batch
                    ]
                    outcomes = execute_points(run_sweep_point_counts, tasks, n_workers=n_workers)
                    for (cell, done, count), outcome in zip(batch, outcomes):
                        cell.absorb(outcome, count)
                        obs.event(
                            "campaign.cell",
                            key=cell.key[:12],
                            rounds=cell.rounds,
                            spent=cell.n_done,
                            converged=cell.converged,
                        )
                manifest.rounds_completed += 1
                with obs.span("campaign.checkpoint", n_cells=len(cells)):
                    checkpoint()

            checkpoint()  # cells may all be converged already on resume

            store = ResultStore(workspace)
            results: dict[str, FigureResult] = {}
            experiment_summaries: list[dict[str, Any]] = []
            adaptive_packets = sum(cell.n_done for cell in cells.values())
            fixed_packets = 0
            for name, member in resolved.items():
                if member.kind == "psr":
                    keys, contexts = grids[name]
                    fixed_packets += len(keys) * member.n_packets
                    rates = [
                        {
                            receiver: 100.0 * psr(*cells[key].counts[receiver])
                            for receiver in cells[key].counts
                        }
                        for key in keys
                    ]
                    ci = [dict(cells[key].ci_pct()) for key in keys]
                    spent = [{r: cells[key].n_done for r in cells[key].counts} for key in keys]
                    result = series_from_outcomes(member, contexts, rates)
                    ci_series = series_from_outcomes(member, contexts, ci).series
                    spent_series = series_from_outcomes(member, contexts, spent).series
                    summary_series = {
                        label: {
                            "psr_percent": values,
                            "ci_halfwidth_pct": ci_series[label],
                            "n_packets": spent_series[label],
                        }
                        for label, values in result.series.items()
                    }
                    extra = {
                        "campaign": spec.name,
                        "adaptive": {
                            "precision": precisions[name].to_dict(),
                            "ci_halfwidth_pct": ci_series,
                            "n_packets": spent_series,
                        },
                    }
                else:
                    with obs.span("campaign.analysis", experiment=name):
                        result = run_experiment_spec(member, profile, n_workers=n_workers)
                    summary_series = {
                        label: {"values": values} for label, values in result.series.items()
                    }
                    extra = {"campaign": spec.name}
                results[name] = result
                store.save(
                    name, result, profile=profile, spec_hash=spec_hash(member), extra=extra
                )
                experiment_summaries.append(
                    {
                        "name": name,
                        "kind": member.kind,
                        "figure": member.figure,
                        "title": member.title,
                        "x_label": result.x_label,
                        "x_values": list(result.x_values),
                        "series": summary_series,
                        "spec_hash": spec_hash(member),
                    }
                )

    converged = sum(1 for cell in cells.values() if cell.converged)
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "campaign": spec.name,
        "title": spec.title,
        "campaign_hash": campaign_hash,
        "profile": profile.name,
        "precision": spec.precision.to_dict(),
        "totals": {
            "n_experiments": len(resolved),
            "n_cells": len(cells),
            "n_grid_points": sum(len(keys) for keys, _ in grids.values()),
            "converged_cells": converged,
            "unconverged_cells": len(cells) - converged,
            "adaptive_packets": adaptive_packets,
            "fixed_packets": fixed_packets,
            "packet_savings": (
                round(1.0 - adaptive_packets / fixed_packets, 4) if fixed_packets else 0.0
            ),
            "rounds": manifest.rounds_completed,
            # Recovery events the supervised executor performed during this
            # run — all zeros on a healthy run; retried/re-dispatched work is
            # bit-identical either way (seeded RNG streams).
            "recovery": supervisor_stats().diff(stats_before).as_dict(),
        },
        "experiments": experiment_summaries,
        "notes": list(spec.notes),
    }
    summary_path = workspace / "summary.json"
    # Stamped like every other artifact: a torn/hand-edited summary is
    # detectable (and quarantinable) by any reader that verifies checksums.
    write_json_artifact(summary_path, summary)
    return CampaignRun(
        summary=summary,
        results=results,
        workspace=workspace,
        manifest_path=manifest.path,
        summary_path=summary_path,
    )
