"""Command-line entry point regenerating the paper's tables and figures.

``BUILTIN_SPECS`` is the one table of builtin experiments: each name maps to
its figure module's ``build_spec``, and every run goes through the
:func:`repro.api.run_experiment_spec` facade on the shared sweep-execution
layer, so ``--workers`` applies uniformly to all of them, results persist
as reloadable JSON artifacts keyed by profile/spec hash
(:mod:`repro.experiments.store`), and custom scenarios run from a spec file
without any new figure module.  From Python, run a builtin as
``run_experiment_spec(BUILTIN_SPECS["fig8"](), profile, n_workers=2)``.

Usage::

    cprecycle-experiments                 # run every builtin but fig13-simulated
                                          # with the quick profile
    cprecycle-experiments fig8 fig11      # run a subset
    cprecycle-experiments --profile full  # paper-scale run (hours)
    cprecycle-experiments --workers 8     # process-pool parallel sweep points
    cprecycle-experiments --out results   # write results/<figure>.json artifacts
    cprecycle-experiments --format json   # print JSON (or csv) instead of tables
    cprecycle-experiments --profile full --out results --resume
                                          # resume an interrupted run: completed
                                          # sweep points are read from the point
                                          # cache under results/.cache/
    cprecycle-experiments fig8 --dump-spec > my.json
                                          # export a builtin figure as a
                                          # self-contained spec JSON
    cprecycle-experiments --spec my.json --workers 2 --out results
                                          # run an edited / hand-written spec
    cprecycle-experiments fig13 --mode simulated --workers 8
                                          # network-scale per-link simulation:
                                          # every AP pair becomes a co-channel
                                          # scenario instead of the 15 dB
                                          # threshold shift (heavier; see
                                          # repro.network.links)
    cprecycle-experiments --list          # print every registered experiment,
                                          # analysis, receiver and topology
    cprecycle-experiments --progress ...  # one stderr line per completed
                                          # sweep chunk (REPRO_PROGRESS=1)
    cprecycle-experiments campaign --spec my-campaign.json --resume
                                          # run many experiments as one
                                          # adaptively-sampled campaign with
                                          # checkpoint/resume and a summary
                                          # report (see repro.campaigns)
    cprecycle-experiments fig4 --trace traces/fig4 --workers 2
                                          # span-traced run: every sweep,
                                          # dispatch and pool task spools its
                                          # span tree under the directory
                                          # (same as REPRO_TRACE=DIR; bare
                                          # --trace uses ./trace); task spans
                                          # carry payload, outcome and RNG
                                          # stream digests
    cprecycle-experiments trace-report traces/fig4 [DIR...]
                                          # merge trace spools into trace.json
                                          # + a chrome://tracing export and
                                          # print span/wallclock/recovery
                                          # reports (several DIRs compare
                                          # worker counts)
    cprecycle-experiments trace-diff traces/w1 traces/w2 [DIR...]
                                          # digest-compare the task spans of
                                          # runs differing only in worker
                                          # count; exits 1 on any mismatch
                                          # (see repro.obs.merge)
"""

from __future__ import annotations

import argparse
from collections.abc import Callable
from pathlib import Path

from repro.api import ExperimentSpec, SpecError, run_experiment_spec, spec_hash
from repro.experiments import (
    fig04_segments,
    fig05_naive,
    fig06_kde,
    fig08_aci_single,
    fig09_aci_two,
    fig10_guardband,
    fig11_cci_single,
    fig12_cci_two,
    fig13_network,
    fig14_segment_sweep,
    table01_cp,
)
from repro.experiments.cli_env import add_execution_flags, environment, execution_env
from repro.experiments.config import FULL_PROFILE, QUICK_PROFILE
from repro.experiments.parallel import pool_scope, resolve_workers
from repro.experiments.results import format_csv, format_table
from repro.experiments.store import CACHE_ENV_VAR, ResultStore
from repro.obs import TRACE_ENV_VAR

__all__ = ["BUILTIN_SPECS", "OPT_IN", "builtin_spec", "main"]

#: Every builtin experiment, name -> its canonical spec, in the order a bare
#: invocation runs them.
BUILTIN_SPECS: dict[str, Callable[[], ExperimentSpec]] = {
    "table1": table01_cp.build_spec,
    "fig4": fig04_segments.build_spec,
    "fig5": fig05_naive.build_spec,
    "fig6": fig06_kde.build_spec,
    "fig8": fig08_aci_single.build_spec,
    "fig9": fig09_aci_two.build_spec,
    "fig10": fig10_guardband.build_spec,
    "fig11": fig11_cci_single.build_spec,
    "fig12": fig12_cci_two.build_spec,
    "fig13": fig13_network.build_spec,
    "fig14": fig14_segment_sweep.build_spec,
    "fig13-simulated": lambda: fig13_network.build_spec(mode="simulated"),
}

#: Builtins a bare invocation skips: a default "run everything" stays
#: threshold-fast, while `fig13 --mode simulated` (or naming fig13-simulated
#: explicitly) opts into the per-link network simulation.
OPT_IN = frozenset({"fig13-simulated"})


def builtin_spec(name: str) -> ExperimentSpec:
    """The canonical :class:`ExperimentSpec` of one builtin experiment."""
    if name not in BUILTIN_SPECS:
        raise ValueError(f"unknown experiment {name!r}; valid: {sorted(BUILTIN_SPECS)}")
    return BUILTIN_SPECS[name]()


_FORMATTERS = {
    "table": lambda result: format_table(result),
    "json": lambda result: result.to_json(),
    "csv": format_csv,
}


def _print_registries() -> None:
    """The ``--list`` output: every registered name, grouped by registry."""
    from repro.api.registry import (
        available_analyses,
        available_receivers,
        available_topologies,
    )

    print("experiments (run as: cprecycle-experiments <name>):")
    for name in BUILTIN_SPECS:
        spec = BUILTIN_SPECS[name]()
        print(f"  {name:<16} {spec.figure}: {spec.title}")
    print("analyses (ExperimentSpec kind='analysis', field 'analysis'):")
    for name in available_analyses():
        print(f"  {name}")
    print("receivers (ReceiverSpec 'name'):")
    for name in available_receivers():
        print(f"  {name}")
    print("topologies (DeploymentSpec 'topology'):")
    for name in available_topologies():
        print(f"  {name}")
    print("observability (repro.obs):")
    print(
        f"  trace            span-traced runs via --trace [DIR] or {TRACE_ENV_VAR}=1|DIR; "
        "report: cprecycle-experiments trace-report DIR [DIR...]; "
        "determinism: cprecycle-experiments trace-diff DIR DIR [DIR...]"
    )


def _trace_diff_main(argv: list[str]) -> int:
    """``cprecycle-experiments trace-diff DIR DIR [DIR...]``.

    Digest-compares the ``task`` spans of ``REPRO_TRACE`` spool directories
    against the first: task sets, outcome digests and per-task RNG stream
    digests must all be bit-identical, and no directory may hold a corrupt
    spool or two disagreeing executions of one task.  Exit codes mirror
    ``repro lint``: 0 identical, 1 mismatches, 2 usage error.
    """
    import sys

    from repro.obs.merge import diff_traces

    prog = "cprecycle-experiments trace-diff"
    if any(flag in argv for flag in ("-h", "--help")):
        print(f"usage: {prog} DIR1 DIR2 [DIR...]")
        print("  compare the task digests of REPRO_TRACE spool directories")
        return 0
    directories = [Path(raw) for raw in argv]
    if len(directories) < 2:
        print(f"{prog}: need at least two trace directories to compare", file=sys.stderr)
        return 2
    missing = [directory for directory in directories if not directory.is_dir()]
    if missing:
        for directory in missing:
            print(f"{prog}: not a directory: {directory}", file=sys.stderr)
        return 2
    mismatches = diff_traces(directories)
    for line in mismatches:
        print(line)
    if mismatches:
        print(f"{prog}: {len(mismatches)} digest mismatch(es) found", file=sys.stderr)
        return 1
    print(f"{prog}: {len(directories)} traces bit-identical", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    import sys

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "campaign":
        # The campaign subcommand has its own option set (see
        # repro.campaigns.cli); the import is lazy so plain figure runs do
        # not pay for the campaigns package.
        from repro.campaigns.cli import main as campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "trace-diff":
        return _trace_diff_main(argv[1:])
    if argv and argv[0] == "trace-report":
        # Trace merge/report tooling (see repro.obs.report); lazy so plain
        # figure runs do not import the report layer.
        from repro.obs.report import trace_report_main

        return trace_report_main(argv[1:])

    parser = argparse.ArgumentParser(description="Regenerate the CPRecycle evaluation figures")
    parser.add_argument(
        "experiments",
        nargs="*",
        default=None,
        help="experiments to run (default: all but "
        f"{', '.join(sorted(OPT_IN))}). Choices: {', '.join(BUILTIN_SPECS)}",
    )
    parser.add_argument(
        "--profile",
        choices=("quick", "full"),
        default="quick",
        help="quick: seconds per figure; full: paper-scale packet counts",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run independent sweep points on N worker processes "
        "(default: REPRO_WORKERS or serial); results are identical for any N",
    )
    parser.add_argument(
        "--mode",
        choices=("threshold", "simulated"),
        default=None,
        help="fig13 neighbour-count mode: 'threshold' (the paper's fixed 15 dB "
        "shift, the default) or 'simulated' (per-link co-channel scenarios "
        "through the sweep layer; heavier)",
    )
    parser.add_argument(
        "--spec",
        type=Path,
        default=None,
        metavar="FILE",
        help="run a declarative ExperimentSpec JSON file instead of builtin "
        "experiments (author one from scratch or start from --dump-spec)",
    )
    parser.add_argument(
        "--dump-spec",
        action="store_true",
        help="print the named builtin experiment as a self-contained spec JSON "
        "(resolved against the selected profile) and exit without running",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="write one reloadable <experiment>.json artifact per experiment "
        "into DIR (keyed by profile/spec hash)",
    )
    parser.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="stdout rendering of each result (default: table)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="persist completed sweep points under <out>/.cache and skip them "
        "on re-runs, so an interrupted run resumes instead of restarting "
        "(default out dir: results/)",
    )
    add_execution_flags(parser)
    parser.add_argument(
        "--list",
        action="store_true",
        help="print every registered experiment, analysis, receiver and network "
        "topology, then exit",
    )
    args = parser.parse_args(argv)
    if args.list:
        _print_registries()
        return 0
    profile = FULL_PROFILE if args.profile == "full" else QUICK_PROFILE
    unknown = [name for name in args.experiments if name not in BUILTIN_SPECS]
    if unknown:
        # Before anything runs: a typo in the last name must not cost the
        # runs of the names before it.
        parser.error(
            f"unknown experiment(s) {', '.join(unknown)}; valid: {', '.join(BUILTIN_SPECS)}"
        )

    if args.mode is not None:
        # --mode selects the fig13 variant; rewriting the experiment name up
        # front lets every later stage (--dump-spec, artifacts, the spec
        # hash) see the variant as a first-class experiment.
        if args.spec is not None:
            parser.error("--mode selects a fig13 variant; it cannot follow --spec")
        if "fig13" not in (args.experiments or []):
            parser.error("--mode applies to fig13; name it explicitly (e.g. fig13 --mode simulated)")
        if args.mode == "simulated":
            args.experiments = [
                "fig13-simulated" if name == "fig13" else name for name in args.experiments
            ]

    # Fail fast on malformed execution knobs (--workers 0, REPRO_WORKERS=0)
    # instead of erroring deep inside the first sweep.
    try:
        resolve_workers(args.workers)
        overrides = execution_env(args)
    except ValueError as error:
        parser.error(str(error))

    if args.dump_spec:
        if args.spec is not None:
            parser.error("--dump-spec exports a builtin experiment; it cannot follow --spec")
        if not args.experiments or len(args.experiments) != 1:
            parser.error("--dump-spec needs exactly one experiment name (e.g. fig8)")
        print(builtin_spec(args.experiments[0]).resolve(profile).to_json())
        return 0

    spec_file: ExperimentSpec | None = None
    if args.spec is not None:
        if args.experiments:
            parser.error("--spec runs a spec file; don't pass experiment names as well")
        try:
            spec_file = ExperimentSpec.from_json(args.spec.read_text())
        except OSError as error:
            parser.error(f"cannot read spec file {args.spec}: {error}")
        except SpecError as error:
            parser.error(f"invalid spec file {args.spec}: {error}")

    names = args.experiments or [name for name in BUILTIN_SPECS if name not in OPT_IN]
    out_dir: Path | None = args.out
    if args.resume and out_dir is None:
        out_dir = Path("results")
    if args.workers is not None:
        overrides["REPRO_WORKERS"] = str(args.workers)
    if args.resume:
        overrides[CACHE_ENV_VAR] = str(out_dir / ".cache")
    store = ResultStore(out_dir) if out_dir is not None else None

    def emit(name: str, spec: ExperimentSpec) -> None:
        result = run_experiment_spec(spec, profile)
        print(_FORMATTERS[args.format](result))
        print()
        if store is not None:
            store.save(
                name, result, profile=profile, spec_hash=spec_hash(spec.resolve(profile))
            )

    # One process pool serves every sweep of the run; leaving the block
    # joins its workers, so their CPU and memory count before main returns.
    with environment(overrides), pool_scope():
        if spec_file is not None:
            try:
                emit(spec_file.name, spec_file)
            except SpecError as error:
                parser.error(f"invalid spec file {args.spec}: {error}")
        else:
            for name in names:
                emit(name, builtin_spec(name))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
