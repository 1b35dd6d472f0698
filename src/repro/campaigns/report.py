"""Campaign summary rendering: markdown comparison tables, CSV, JSON.

The scheduler's ``summary.json`` payload is the single source of truth;
this module only renders it.  The markdown report is the human-facing
comparison table — one table per experiment with the adaptive PSR estimate,
its achieved confidence half-width and the packets spent per point — plus a
campaign-totals header recording the packet savings over the fixed-budget
path.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any

__all__ = ["format_summary_markdown", "format_summary_csv", "format_summary_json"]


def format_summary_json(summary: dict[str, Any]) -> str:
    """The summary payload as indented JSON text."""
    return json.dumps(summary, indent=2)


def _totals_lines(summary: dict[str, Any]) -> list[str]:
    totals = summary["totals"]
    precision = summary["precision"]
    lines = [
        f"# Campaign {summary['campaign']}",
        "",
        f"profile `{summary['profile']}`, hash `{summary['campaign_hash']}`",
        "",
        f"- precision target: ±{precision['ci_halfwidth_pct']:g} pp PSR at "
        f"{100 * precision['confidence']:g}% confidence "
        f"(min {precision['min_packets']}, growth ×{precision['growth']:g})",
        f"- experiments: {totals['n_experiments']}  |  grid points: "
        f"{totals['n_grid_points']}  |  deduplicated cells: {totals['n_cells']}",
        f"- converged cells: {totals['converged_cells']}/{totals['n_cells']} "
        f"in {totals['rounds']} round(s)",
        f"- packets simulated: {totals['adaptive_packets']} adaptive vs "
        f"{totals['fixed_packets']} fixed-budget "
        f"(**{100 * totals['packet_savings']:.1f}% saved**)",
    ]
    return lines


def format_summary_markdown(summary: dict[str, Any]) -> str:
    """Render the campaign summary as a markdown report with CI tables."""
    lines = _totals_lines(summary)
    for experiment in summary["experiments"]:
        lines += ["", f"## {experiment['name']} — {experiment['title']}", ""]
        x_label = experiment["x_label"]
        if experiment["kind"] == "psr":
            lines.append(f"| series | {x_label} | PSR (%) | ± CI (pp) | packets |")
            lines.append("|---|---|---|---|---|")
            for label, columns in experiment["series"].items():
                for x, rate, ci, spent in zip(
                    experiment["x_values"],
                    columns["psr_percent"],
                    columns["ci_halfwidth_pct"],
                    columns["n_packets"],
                ):
                    lines.append(
                        f"| {label} | {x} | {rate:.2f} | ±{ci:.2f} | {spent} |"
                    )
        else:
            lines.append(f"| series | {x_label} | value |")
            lines.append("|---|---|---|")
            for label, columns in experiment["series"].items():
                for x, value in zip(experiment["x_values"], columns["values"]):
                    rendered = f"{value:.4g}" if isinstance(value, float) else str(value)
                    lines.append(f"| {label} | {x} | {rendered} |")
    return "\n".join(lines) + "\n"


def format_summary_csv(summary: dict[str, Any]) -> str:
    """Flat CSV: one row per (experiment, series, x) point with CI columns."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["campaign", "experiment", "kind", "series", "x", "value", "ci_halfwidth_pct", "n_packets"]
    )
    campaign = summary["campaign"]
    for experiment in summary["experiments"]:
        for label, columns in experiment["series"].items():
            if experiment["kind"] == "psr":
                rows = zip(
                    experiment["x_values"],
                    columns["psr_percent"],
                    columns["ci_halfwidth_pct"],
                    columns["n_packets"],
                )
                for x, rate, ci, spent in rows:
                    writer.writerow(
                        [campaign, experiment["name"], "psr", label, x, rate, ci, spent]
                    )
            else:
                for x, value in zip(experiment["x_values"], columns["values"]):
                    writer.writerow(
                        [campaign, experiment["name"], "analysis", label, x, value, "", ""]
                    )
    return buffer.getvalue()
