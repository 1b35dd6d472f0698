"""The ``campaign`` runner subcommand.

Invoked as ``cprecycle-experiments campaign ...``::

    cprecycle-experiments campaign --spec my-campaign.json
    cprecycle-experiments campaign --spec my-campaign.json --resume
    cprecycle-experiments campaign --spec my-campaign.json --resume --report csv

``--spec`` names the :class:`repro.api.CampaignSpec` JSON file; the
workspace (``--out``, default ``campaigns/<name>``) receives the manifest,
the shared point cache, per-experiment artifacts and ``summary.json``.
``--resume`` continues an interrupted (or finished — then it only reloads
and reports) campaign; ``--report`` picks the stdout rendering.  A finished
campaign's summary can thus be re-rendered at any time without resimulating
a single packet.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.api.campaign import CampaignSpec
from repro.api.specs import SpecError
from repro.campaigns.report import (
    format_summary_csv,
    format_summary_json,
    format_summary_markdown,
)
from repro.campaigns.scheduler import run_campaign
from repro.experiments.cli_env import add_execution_flags, environment, execution_env
from repro.experiments.parallel import pool_scope, resolve_workers

__all__ = ["main"]

_REPORTERS = {
    "markdown": format_summary_markdown,
    "csv": format_summary_csv,
    "json": format_summary_json,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``campaign`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="cprecycle-experiments campaign",
        description="Run a set of experiments as one adaptively-sampled campaign",
    )
    parser.add_argument(
        "--spec",
        type=Path,
        required=True,
        metavar="FILE",
        help="campaign spec JSON file (see repro.api.CampaignSpec / examples/campaign.py)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="campaign workspace: manifest, point cache, per-experiment artifacts "
        "and summary.json (default: campaigns/<campaign name>)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue a previously interrupted campaign from its manifest "
        "(bit-identical final counts); required to re-enter a used workspace",
    )
    parser.add_argument(
        "--report",
        choices=sorted(_REPORTERS),
        default="markdown",
        help="stdout rendering of the campaign summary (default: markdown)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool width for sweep points (overrides the campaign spec "
        "and REPRO_WORKERS)",
    )
    add_execution_flags(parser)
    args = parser.parse_args(argv)

    try:
        resolve_workers(args.workers)
        overrides = execution_env(args)
    except ValueError as error:
        parser.error(str(error))

    try:
        spec = CampaignSpec.from_json(args.spec.read_text())
    except OSError as error:
        parser.error(f"cannot read campaign spec {args.spec}: {error}")
    except SpecError as error:
        parser.error(f"invalid campaign spec {args.spec}: {error}")

    workspace = args.out if args.out is not None else Path("campaigns") / spec.name
    # --workers goes to run_campaign, not REPRO_WORKERS: it must outrank the
    # spec's n_workers, which outranks the environment.  Every round borrows
    # one process pool, whose workers are joined when the block exits.
    with environment(overrides), pool_scope():
        try:
            run = run_campaign(spec, workspace, resume=args.resume, n_workers=args.workers)
        except (SpecError, ValueError) as error:
            parser.error(str(error))

    print(_REPORTERS[args.report](run.summary))
    return 0
