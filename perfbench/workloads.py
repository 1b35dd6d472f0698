"""The benchmark's workloads: inputs made from a seed, CLI steps, decision digests.

Every workload is closed-loop: one CLI process at a time, driven from one
process.  A seed selects one of :data:`N_VARIANTS` input variants; the
program seed of variant ``v`` is ``BASE_SEED + v``.  ``goldens.json`` holds
the decision digest of every (workload, variant) pair, so any seed can be
checked against a recorded result.

Digests cover decisions only: per-point success rates (exact ratios of
integer counts), the fig13 neighbour CDFs and colouring estimates, and the
campaign's per-cell rates, packet counts and totals.  Timestamps, hashes,
checksums and provenance never enter a digest, and neither do continuous
estimates (interference powers, kernel densities, confidence half-widths),
whose last bits may differ between numpy builds without any decision
changing.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["BASE_SEED", "N_VARIANTS", "WORKLOADS", "Step", "Workload", "variant_of"]

N_VARIANTS = 8
BASE_SEED = 2016


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: Builtin figures whose values are continuous estimates, not decisions:
#: per-segment interference power (fig4) and deviation densities (fig6).
CONTINUOUS_FIGURES = frozenset({"fig4", "fig6"})


def _artifact_decisions(out: Path) -> str:
    """Digest of every decision artifact's figure data, keyed by experiment."""
    decisions = {}
    for path in sorted(out.glob("*.json")):
        record = json.loads(path.read_text())
        if record["experiment"] in CONTINUOUS_FIGURES:
            continue
        result = record["result"]
        decisions[record["experiment"]] = {
            key: result[key] for key in ("x_values", "series", "notes")
        }
    if not decisions:
        raise ValueError(f"no result artifacts in {out}")
    return _digest(decisions)


def _campaign_decisions(workspace: Path) -> str:
    """Digest of the campaign summary's per-cell rates, packet counts and totals."""
    summary = json.loads((workspace / "summary.json").read_text())
    totals = summary["totals"]
    return _digest(
        {
            "experiments": [
                {
                    "name": entry["name"],
                    "x_values": entry["x_values"],
                    "series": {
                        label: {key: values[key] for key in ("psr_percent", "n_packets")}
                        for label, values in entry["series"].items()
                    },
                }
                for entry in summary["experiments"]
            ],
            "totals": {key: totals[key] for key in ("n_cells", "adaptive_packets", "rounds")},
        }
    )


@dataclass(frozen=True)
class Step:
    """One CLI process of a workload invocation."""

    argv: tuple[str, ...]
    #: Seed for the quick profile (builtin-figure runs only).
    profile_seed: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Worker count of the measured invocation; pooled workloads also get a
    #: serial traced rep, from which the compute layers are read.
    workers: int

    def prepare(self, work: Path, seed: int, env: dict[str, str]) -> None:
        """Write the input files this workload feeds the program."""

    def steps(self, work: Path, seed: int, workers: int) -> list[Step]:
        raise NotImplementedError

    def reset(self, work: Path) -> None:
        """Remove the outputs of a previous invocation."""
        shutil.rmtree(work / "out", ignore_errors=True)

    def digest(self, work: Path) -> str:
        return _artifact_decisions(work / "out")


@dataclass(frozen=True)
class QuickSuite(Workload):
    def steps(self, work: Path, seed: int, workers: int) -> list[Step]:
        argv = ("--workers", str(workers), "--out", str(work / "out"))
        return [Step(argv, profile_seed=BASE_SEED + variant_of(seed))]


@dataclass(frozen=True)
class NetworkSim(Workload):
    def steps(self, work: Path, seed: int, workers: int) -> list[Step]:
        argv = ("fig13", "--mode", "simulated", "--workers", str(workers), "--out", str(work / "out"))
        return [Step(argv, profile_seed=BASE_SEED + variant_of(seed))]


#: Paper-link geometry: the fig8 adjacent-channel grid over the paper's MCS
#: set, plus a co-channel interferer at a fixed SIR, at 400-byte packets.
#: 32 packets per point is two full fast-engine batches.
PAPER_LINK_ACI_SIR_DB = (-16.0, -10.0)
PAPER_LINK_CCI_SIR_DB = 18.0
PAPER_LINK_PACKETS = 32
PAPER_LINK_PAYLOAD = 400


@dataclass(frozen=True)
class PaperLink(Workload):
    def prepare(self, work: Path, seed: int, env: dict[str, str]) -> None:
        dumped = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "fig8", "--dump-spec"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        spec = json.loads(dumped)
        co_channel = dict(spec["scenario"]["interferers"][0], kind="cci", sir_db=PAPER_LINK_CCI_SIR_DB)
        spec["scenario"]["interferers"].append(co_channel)
        for axis in spec["sweep"]["axes"]:
            if axis["field"] == "sir_db":
                axis["values"] = list(PAPER_LINK_ACI_SIR_DB)
        spec.update(
            name="paper-link",
            n_packets=PAPER_LINK_PACKETS,
            payload_length=PAPER_LINK_PAYLOAD,
            seed=BASE_SEED + variant_of(seed),
        )
        (work / "paper-link.json").write_text(json.dumps(spec, indent=1))

    def steps(self, work: Path, seed: int, workers: int) -> list[Step]:
        argv = ("--spec", str(work / "paper-link.json"), "--workers", str(workers), "--out", str(work / "out"))
        return [Step(argv)]


#: A 10 percentage-point Wilson half-width at 95% confidence, 4 to 64
#: packets per cell in rounds that double.
CAMPAIGN_PRECISION = {
    "ci_halfwidth_pct": 10.0,
    "confidence": 0.95,
    "min_packets": 4,
    "max_packets": 64,
    "growth": 2.0,
}


@dataclass(frozen=True)
class Campaign(Workload):
    def prepare(self, work: Path, seed: int, env: dict[str, str]) -> None:
        spec = {
            "schema_version": 1,
            "name": "perfbench",
            "experiments": [{"builtin": name} for name in ("fig8", "fig11", "fig12")],
            "precision": CAMPAIGN_PRECISION,
            "profile": "quick",
            "n_workers": self.workers,
            "seed": BASE_SEED + variant_of(seed),
        }
        (work / "campaign.json").write_text(json.dumps(spec, indent=1))

    def steps(self, work: Path, seed: int, workers: int) -> list[Step]:
        argv = ("campaign", "--spec", str(work / "campaign.json"), "--out", str(work / "campaign"))
        return [Step(argv), Step(argv + ("--resume",))]

    def reset(self, work: Path) -> None:
        shutil.rmtree(work / "campaign", ignore_errors=True)

    def digest(self, work: Path) -> str:
        return _campaign_decisions(work / "campaign")


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        QuickSuite(
            "quick-suite",
            "all 11 quick-profile figures on 2 workers: 11 pools, a barrier per figure, import cost",
            workers=2,
        ),
        PaperLink(
            "paper-link",
            "serial 400-byte packets on the paper MCS set with ACI plus CCI: kernel-bound, no pool",
            workers=1,
        ),
        NetworkSim(
            "network-sim",
            "fig13 simulated mode on 2 workers: 96 tiny link points, per-call overhead and dispatch",
            workers=2,
        ),
        Campaign(
            "campaign",
            "serial adaptive campaign to a 10 pp Wilson CI, then resume: store and campaign layers",
            workers=1,
        ),
    )
}
