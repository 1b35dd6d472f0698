"""Run one ``cprecycle-experiments`` invocation and record what only the child sees.

Usage, from the repository root with ``src`` on ``PYTHONPATH``::

    python perfbench/launch.py RECORD [--probe] [--ledger] [--profile-seed N] -- CLI_ARGS...

``CLI_ARGS`` go to ``repro.experiments.runner.main`` unchanged, so the
invocation is exactly the CLI run a user makes.  On exit the launcher writes
``RECORD`` (JSON): the import time of the CLI modules, the monotonic time of
the first ``execute_points`` call (the end of set-up), the sweep tasks and
simulated packets handed to ``execute_points``, the supervisor's recovery
counters and the peak RSS of this process plus its largest reaped worker.

``--probe`` exits at the first ``execute_points`` call: a set-up-only sample.
``--ledger`` installs the per-layer timing hooks of ``ledger.py``.
``--profile-seed`` sets the seed field of the quick profile, which is how the
builtin figures take a seed (the runner has no seed flag).
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _write(path: str, record: dict) -> None:
    record["t_end"] = time.monotonic()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["maxrss_kb"] = self_kb + worker_kb
    with open(path, "w") as handle:
        json.dump(record, handle)


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, cli = argv[:split], argv[split + 1 :]
    record_path = options[0]
    probe = "--probe" in options
    profile_seed = (
        int(options[options.index("--profile-seed") + 1]) if "--profile-seed" in options else None
    )
    record: dict = {"t_start": T_START, "first_execute": None, "tasks": 0, "packets": 0}

    started = time.monotonic()
    from repro.experiments import runner

    if cli and cli[0] == "campaign":
        import repro.campaigns.cli  # noqa: F401 -- part of the campaign CLI's import cost
    record["import_s"] = time.monotonic() - started
    if profile_seed is not None:
        runner.QUICK_PROFILE = runner.QUICK_PROFILE.scaled(seed=profile_seed)

    from ledger import Ledger, rebind
    from repro.experiments import sweeps
    from repro.experiments.parallel import supervisor_stats

    original = sweeps.execute_points

    def execute_points(fn, tasks, *args, **kwargs):
        tasks = list(tasks)
        if record["first_execute"] is None:
            record["first_execute"] = time.monotonic()
            if probe:
                _write(record_path, record)
                os._exit(0)
        record["tasks"] += len(tasks)
        record["packets"] += sum(
            task.n_packets * len(task.receivers)
            for task in tasks
            if isinstance(task, sweeps.SweepPoint)
        )
        return original(fn, tasks, *args, **kwargs)

    rebind(original, execute_points)
    ledger = None
    if "--ledger" in options:
        ledger = Ledger(os.environ.get("REPRO_TRACE"))
        ledger.install()

    record["t_main"] = time.monotonic()
    code = 1
    try:
        code = runner.main(cli)
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else 1
    finally:
        record["t_main_end"] = time.monotonic()
        record["exit_code"] = code
        record["supervisor"] = supervisor_stats().as_dict()
        if ledger is not None:
            record["ledger"] = ledger.snapshot()
        _write(record_path, record)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
