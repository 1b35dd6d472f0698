"""Campaign orchestration: many experiments, one adaptively-sampled workload.

A campaign (:class:`repro.api.CampaignSpec`) schedules an arbitrary mix of
builtin figures, hand-written experiment specs and network deployment runs
as one managed unit: shared worker configuration, one point cache,
cross-experiment deduplication of identical grid cells, and — the heart of
the subsystem — **adaptive precision-targeted Monte-Carlo sampling**.
Instead of burning a fixed ``n_packets`` per packet-success-rate point,
each cell's budget grows in geometric rounds until its Wilson confidence
half-width meets the campaign's precision target, with exact counts merged
losslessly across rounds and checkpointed in a resumable manifest.

Quick start::

    from pathlib import Path
    from repro.api import CampaignExperiment, CampaignSpec, PrecisionSpec
    from repro.campaigns import run_campaign

    campaign = CampaignSpec(
        name="demo",
        experiments=(
            CampaignExperiment(builtin="fig4"),
            CampaignExperiment(builtin="fig11"),
        ),
        precision=PrecisionSpec(ci_halfwidth_pct=1.0),
    )
    run = run_campaign(campaign, Path("campaigns/demo"))
    print(run.summary["totals"]["packet_savings"])

Command line: ``cprecycle-experiments campaign --spec campaign.json``.
"""

from repro.campaigns.adaptive import (
    next_total,
    normal_quantile,
    wilson_halfwidth,
    wilson_interval,
)
from repro.campaigns.report import (
    format_summary_csv,
    format_summary_json,
    format_summary_markdown,
)
from repro.campaigns.scheduler import CampaignRun, run_campaign

__all__ = [
    "CampaignRun",
    "format_summary_csv",
    "format_summary_json",
    "format_summary_markdown",
    "next_total",
    "normal_quantile",
    "run_campaign",
    "wilson_halfwidth",
    "wilson_interval",
]
