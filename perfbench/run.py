#!/usr/bin/env python3
"""The repository benchmark: run one named workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload quick-suite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload quick-suite --seed 1 --trace 1

``--trace 0`` measures end to end with tracing off: set-up probes plus as
many full CLI invocations as fit in ``--seconds`` (at least two), each in a
fresh interpreter, and reports medians.  ``--trace 1`` makes one untraced
and one or two traced reps and reports the per-layer ledger.  Every
invocation's decisions are digested and compared with ``goldens.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit and sample count, and record the host
(``perfbench-env``), so ``compare.py`` can refuse mismatched hosts.
See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from workloads import N_VARIANTS, WORKLOADS, Step, Workload, variant_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDENS = BENCH / "goldens.json"

#: Set-up-only invocations per end-to-end run (set-up time is their median
#: together with the full invocations').
N_PROBES = 3
#: Full invocations per end-to-end run, whatever ``--seconds`` says.
MIN_INVOCATIONS = 2
STEP_TIMEOUT_S = 150.0

#: (ledger layer, program span) pairs that time the same call sites.
CROSS_CHECKS = (
    ("core.kde_ml", "engine.kde_ml"),
    ("phy.viterbi", "engine.viterbi"),
    ("receiver.frontend", "engine.frontend"),
    ("channel.realize", "engine.realize"),
)


# --------------------------------------------------------------------------- #
# One CLI process                                                             #
# --------------------------------------------------------------------------- #
@dataclass
class StepResult:
    code: int | None
    wall_s: float
    cpu_s: float
    record: dict[str, Any] | None
    t_spawn: float
    digest: str | None = None

    @property
    def setup_s(self) -> float | None:
        if not self.record or self.record.get("first_execute") is None:
            return None
        return self.record["first_execute"] - self.t_spawn


@dataclass
class Invocation:
    """One workload invocation: its CLI steps, run back to back."""

    steps: list[StepResult] = field(default_factory=list)
    expected: str | None = None
    n_steps: int = 1

    @property
    def completed(self) -> bool:
        return len(self.steps) == self.n_steps and all(step.code == 0 for step in self.steps)

    @property
    def ok(self) -> bool:
        """Every step exited 0 and every decision digest matches the golden one."""
        digests = [step.digest for step in self.steps if step.digest is not None]
        return self.completed and bool(digests) and all(d == self.expected for d in digests)

    @property
    def wall_s(self) -> float:
        return sum(step.wall_s for step in self.steps)

    @property
    def cpu_s(self) -> float:
        return sum(step.cpu_s for step in self.steps)

    @property
    def setup_s(self) -> float | None:
        return self.steps[0].setup_s if self.steps else None

    def total(self, key: str) -> float:
        return sum(step.record.get(key, 0) for step in self.steps if step.record)

    @property
    def peak_rss_mb(self) -> float:
        return max((step.record["maxrss_kb"] for step in self.steps if step.record), default=0) * 1024 / 1e6

    @property
    def recoveries(self) -> int:
        return sum(
            step.record["supervisor"]["retries"] + step.record["supervisor"]["timeouts"]
            for step in self.steps
            if step.record and "supervisor" in step.record
        )


def child_env(trace_dir: Path | None = None) -> dict[str, str]:
    """The program's environment: ``src`` importable, no inherited REPRO_* knobs."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    if trace_dir is not None:
        env["REPRO_TRACE"] = str(trace_dir)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_step(
    step: Step, work: Path, probe: bool = False, ledger: bool = False, trace_dir: Path | None = None
) -> StepResult:
    record_path = work / "record.json"
    record_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "launch.py"), str(record_path)]
    if probe:
        cmd.append("--probe")
    if ledger:
        cmd.append("--ledger")
    if step.profile_seed is not None:
        cmd += ["--profile-seed", str(step.profile_seed)]
    cmd += ["--", *step.argv]
    env = child_env(trace_dir)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(work / "cli.log", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True
        )
        try:
            code: int | None = proc.wait(timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.wait()
            code = None
        t_exit = time.monotonic()
    _kill_group(proc.pid)  # no worker may outlive its invocation
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    record = json.loads(record_path.read_text()) if record_path.is_file() else None
    return StepResult(code, t_exit - t_spawn, cpu, record, t_spawn)


def invoke(
    workload: Workload,
    work: Path,
    seed: int,
    workers: int,
    expected: str | None,
    ledger: bool = False,
    trace_root: Path | None = None,
) -> Invocation:
    """Run every step of one workload invocation and digest its decisions."""
    workload.reset(work)
    steps = workload.steps(work, seed, workers)
    invocation = Invocation(expected=expected, n_steps=len(steps))
    for index, step in enumerate(steps):
        trace_dir = None
        if trace_root is not None:
            trace_dir = trace_root / f"step{index}"
            shutil.rmtree(trace_dir, ignore_errors=True)
        result = run_step(step, work, ledger=ledger, trace_dir=trace_dir)
        if result.code == 0:
            try:
                result.digest = workload.digest(work)
            except (OSError, ValueError, KeyError) as error:
                print(f"perfbench: cannot digest {workload.name} outputs: {error}", file=sys.stderr)
        invocation.steps.append(result)
        if result.code != 0:
            print(f"perfbench: step {step.argv} exited with {result.code}; see {work / 'cli.log'}", file=sys.stderr)
            break
    return invocation


# --------------------------------------------------------------------------- #
# Host record and same-run calibration                                        #
# --------------------------------------------------------------------------- #
def _git_commit() -> str:
    """HEAD of the checkout's own ``.git``, read without searching parents."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibrate() -> dict[str, float]:
    """Fixed numpy and pure-Python kernels timed in this run (median ms of 7)."""
    import numpy as np

    rng = np.random.default_rng(0)
    block = rng.standard_normal((64, 4096)) + 1j * rng.standard_normal((64, 4096))

    def numpy_kernel() -> None:
        np.fft.ifft(np.fft.fft(block, axis=1) * block, axis=1)

    def python_kernel() -> None:
        total = 0
        for value in range(200_000):
            total += value * value

    timings = {}
    for name, kernel in (("numpy_ms", numpy_kernel), ("python_ms", python_kernel)):
        samples = []
        for _ in range(7):
            start = time.perf_counter()
            kernel()
            samples.append((time.perf_counter() - start) * 1e3)
        timings[name] = statistics.median(samples)
    return timings


def host_record(calibration: dict[str, float]) -> dict[str, Any]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "calibration": calibration,
    }


# --------------------------------------------------------------------------- #
# End-to-end run                                                              #
# --------------------------------------------------------------------------- #
def measure(workload: Workload, work: Path, seed: int, seconds: float, expected: str | None):
    """Set-up probes, then full invocations until ``seconds`` is spent."""
    start = time.monotonic()
    probe_step = workload.steps(work, seed, workload.workers)[0]
    probes = []
    for _ in range(N_PROBES):
        workload.reset(work)
        probes.append(run_step(probe_step, work, probe=True))
    invocations: list[Invocation] = []
    while True:
        invocations.append(invoke(workload, work, seed, workload.workers, expected))
        typical = statistics.median(inv.wall_s for inv in invocations)
        if len(invocations) >= MIN_INVOCATIONS and time.monotonic() - start + typical > seconds:
            return probes, invocations


def accounting(invocations: list[Invocation]) -> tuple[int, int]:
    """Attempted and failed sweep tasks; every task of a failed invocation fails."""
    full = max((int(inv.total("tasks")) for inv in invocations if inv.ok), default=1)
    attempted = failed = 0
    for inv in invocations:
        tasks = max(int(inv.total("tasks")), full) if not inv.ok else int(inv.total("tasks"))
        attempted += tasks
        failed += tasks if not inv.ok else inv.recoveries
    return max(attempted, 1), failed


def end_to_end(probes: list[StepResult], invocations: list[Invocation]) -> dict[str, tuple[float, str, int]]:
    ok = [inv for inv in invocations if inv.ok] or invocations
    setups = [s for s in [inv.setup_s for inv in ok] + [p.setup_s for p in probes] if s is not None]

    def med(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    return {
        "wall_s": (med([inv.wall_s for inv in ok]), "s", len(ok)),
        "setup_s": (med(setups), "s", len(setups)),
        "packets_per_s": (med([inv.total("packets") / inv.wall_s for inv in ok]), "packets/s", len(ok)),
        "cpu_s": (med([inv.cpu_s for inv in ok]), "s", len(ok)),
        "peak_rss_mb": (med([inv.peak_rss_mb for inv in ok]), "MB", len(ok)),
    }


# --------------------------------------------------------------------------- #
# Traced run: the per-layer ledger                                            #
# --------------------------------------------------------------------------- #
def _ledger(inv: Invocation) -> dict[str, Any]:
    """The ledgers of an invocation's steps, summed."""
    total: dict[str, Any] = {"self_s": {}, "calls": {}, "counts": {}, "scoped": {}, "top_s": 0.0}
    for step in inv.steps:
        part = (step.record or {}).get("ledger")
        if not part:
            continue
        total["top_s"] += part["top_s"]
        for section in ("self_s", "calls", "counts", "scoped"):
            for key, value in part[section].items():
                total[section][key] = total[section].get(key, 0) + value
    return total


def _tiling(inv: Invocation) -> tuple[float, float]:
    """Seconds no layer claims, and the worst tiling error as a share of wall.

    Per step: wall = import + sum of layer self times + other.  The ledger
    also sums the time inside outermost wrapped calls independently; the two
    sums differ only if the accounting has gaps or double counts.
    """
    other = 0.0
    error = 0.0
    for step in inv.steps:
        part = (step.record or {}).get("ledger") or {}
        claimed = sum(part.get("self_s", {}).values())
        step_other = step.wall_s - step.record["import_s"] - claimed if step.record else step.wall_s
        other += step_other
        error = max(error, (abs(claimed - part.get("top_s", 0.0)) + max(0.0, -step_other)) / step.wall_s)
    return other, error


def _trace_events(trace_root: Path) -> list[dict[str, Any]]:
    """Merge each step's spool directory with the program's own merge tool."""
    from repro.obs.merge import merge_trace

    events: list[dict[str, Any]] = []
    for directory in sorted(trace_root.glob("step*")):
        events.extend(merge_trace(directory)["events"])
    return events


def _span_self(events: list[dict[str, Any]]) -> dict[str, float]:
    from repro.obs.report import aggregate_spans

    return {row["name"]: row["self"] for row in aggregate_spans({"events": events})}


def _dispatch(events: list[dict[str, Any]]) -> dict[str, float]:
    """Pool, task and idle figures from the program's spooled spans."""
    tasks = [e for e in events if e["name"] == "task" and e.get("dur") and not e["attrs"].get("error")]
    durations = sorted(e["dur"] * 1e3 for e in tasks)
    maps = [e for e in events if e["name"] == "parallel.map" and e["attrs"].get("pooled")]
    window = sum(e["dur"] * min(e["attrs"]["workers"], e["attrs"]["n_tasks"]) for e in maps)
    compute = sum(e["dur"] for e in tasks if e["attrs"].get("in_pool"))
    first_submit: dict[str, float] = {}
    first_start: dict[str, float] = {}
    for e in events:
        dispatch = e.get("attrs", {}).get("dispatch")
        if e["name"] == "dispatch.submit":
            first_submit[dispatch] = min(first_submit.get(dispatch, e["start"]), e["start"])
        elif e["name"] == "task" and e["attrs"].get("in_pool"):
            first_start[dispatch] = min(first_start.get(dispatch, e["start"]), e["start"])
    spawn = sum(first_start[d] - first_submit[d] for d in first_start if d in first_submit)

    def quantile(q: float) -> float:
        return durations[min(len(durations) - 1, int(q * len(durations)))] if durations else 0.0

    return {
        "task_p50_ms": quantile(0.5),
        "task_p90_ms": quantile(0.9),
        "pools": len(maps),
        "spawn_s": spawn,
        "worker_idle_frac": 1.0 - compute / window if window > 0 else 0.0,
        "pickle_bytes": sum(e["attrs"].get("bytes", 0) for e in events if e["name"] == "dispatch.serialize"),
    }


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def per_layer(
    work: Path,
    untraced: Invocation,
    main: Invocation,
    serial: Invocation,
    main_root: Path,
    serial_root: Path,
    calibration: dict[str, float],
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Every per-layer metric, plus human-readable check lines."""
    sys.path.insert(0, str(SRC))
    comp = _ledger(serial)
    par = _ledger(main)
    cs, cc, cn = comp["self_s"], comp["calls"], comp["counts"]
    ps, pc, pn = par["self_s"], par["calls"], par["counts"]
    main_events = _trace_events(main_root)
    serial_events = main_events if serial is main else _trace_events(serial_root)
    dispatch = _dispatch(main_events)

    kde_s = cs.get("core.kde_ml", 0.0)
    kde_calls = cn.get("core.kde_ml_calls", 0)
    cpr_packets = cn.get("core.cprecycle_packets", 0)
    vit_s = cs.get("phy.viterbi", 0.0)
    steps = cn.get("phy.viterbi_trellis_steps", 0)
    hits, misses = pn.get("store.cache_hits", 0), pn.get("store.cache_misses", 0)

    summary: dict[str, Any] = {}
    summary_path = work / "campaign" / "summary.json"
    if summary_path.is_file():
        summary = json.loads(summary_path.read_text())["totals"]
    resume_s = main.steps[1].wall_s if len(main.steps) > 1 else 0.0

    other, tile_main = _tiling(main)
    serial_other, tile_serial = _tiling(serial)
    spans = _span_self(serial_events)
    checks = []
    xcheck = 0.0
    for layer, span in CROSS_CHECKS:
        outside = comp["scoped"].get(span, 0.0)
        inside = spans.get(span, 0.0)
        error = abs(outside - inside) / inside if inside else (0.0 if not outside else 1.0)
        xcheck = max(xcheck, error)
        checks.append(
            f"  xcheck {layer:<18} ledger {outside:8.4f} s  vs {span:<16} {inside:8.4f} s  "
            f"err {error:6.2%} {'ok' if error <= 0.10 else 'FAIL'}"
        )
    tile = max(tile_main, tile_serial)
    checks.append(
        f"  tiling: layers + other = wall within {tile:.3%} "
        f"(main other {other:.3f} s, serial other {serial_other:.3f} s) {'ok' if tile <= 0.05 else 'FAIL'}"
    )

    metrics: dict[str, tuple[float, str]] = {
        "setup.import_s": (main.steps[0].record["import_s"] if main.steps[0].record else 0.0, "s"),
        "channel.realize_s": (cs.get("channel.realize", 0.0), "s"),
        "channel.realize_ms_per_packet": (
            _ratio(cs.get("channel.realize", 0.0), cn.get("channel.packets", 0), 1e3),
            "ms",
        ),
        "receiver.frontend_s": (cs.get("receiver.frontend", 0.0), "s"),
        "receiver.frontend_ms_per_packet": (
            _ratio(cs.get("receiver.frontend", 0.0), cn.get("receiver.frontend_packets", 0), 1e3),
            "ms",
        ),
        "receiver.demod_self_s": (cs.get("receiver.demod", 0.0), "s"),
        "core.kde_ml_s": (kde_s, "s"),
        "core.kde_ml_calls": (kde_calls, "count"),
        "core.kde_ml_packets_per_call": (_ratio(cpr_packets, kde_calls), "packets"),
        "core.kde_ml_ms_per_packet": (_ratio(kde_s, cpr_packets, 1e3), "ms"),
        "core.kde_evals": (cn.get("core.kde_evals", 0), "count"),
        "core.kde_ns_per_eval": (_ratio(kde_s, cn.get("core.kde_evals", 0), 1e9), "ns"),
        "phy.viterbi_s": (vit_s, "s"),
        "phy.viterbi_calls": (cn.get("phy.viterbi_calls", 0), "count"),
        "phy.viterbi_frames_per_call": (
            _ratio(cn.get("phy.viterbi_frames", 0), cn.get("phy.viterbi_calls", 0)),
            "frames",
        ),
        "phy.viterbi_trellis_steps": (steps, "count"),
        "phy.viterbi_ns_per_step": (_ratio(vit_s, steps, 1e9), "ns"),
        "phy.fec_self_s": (cs.get("phy.fec", 0.0), "s"),
        "link.calls": (cc.get("link", 0), "count"),
        "link.self_s": (cs.get("link", 0.0), "s"),
        "api.build_calls": (cc.get("api.build", 0), "count"),
        "api.build_s": (cs.get("api.build", 0.0), "s"),
        "sweeps.calls": (pc.get("sweeps", 0), "count"),
        "sweeps.tasks": (int(main.total("tasks")), "count"),
        "sweeps.self_s": (ps.get("sweeps", 0.0), "s"),
        "sweeps.task_p50_ms": (dispatch["task_p50_ms"], "ms"),
        "sweeps.task_p90_ms": (dispatch["task_p90_ms"], "ms"),
        "parallel.pools": (dispatch["pools"], "count"),
        "parallel.spawn_s": (dispatch["spawn_s"], "s"),
        "parallel.self_s": (ps.get("parallel", 0.0), "s"),
        "parallel.worker_idle_frac": (dispatch["worker_idle_frac"], "ratio"),
        "parallel.pickle_bytes": (dispatch["pickle_bytes"], "bytes"),
        "parallel.retries": (main.recoveries, "count"),
        "parallel.failed_tasks": (0 if main.completed else int(main.total("tasks")), "count"),
        "store.writes": (pn.get("store.writes", 0), "count"),
        "store.write_s": (ps.get("store.write", 0.0), "s"),
        "store.bytes_written": (pn.get("store.bytes_written", 0), "bytes"),
        "store.cache_hits": (hits, "count"),
        "store.cache_misses": (misses, "count"),
        "store.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "store.read_s": (ps.get("store.read", 0.0), "s"),
        "campaigns.cells": (summary.get("n_cells", 0), "count"),
        "campaigns.rounds": (summary.get("rounds", 0), "count"),
        "campaigns.packets_spent": (summary.get("adaptive_packets", 0), "packets"),
        "campaigns.resume_s": (resume_s, "s"),
        "network.rss_s": (cs.get("network.rss", 0.0), "s"),
        "network.links": (cn.get("network.links", 0), "count"),
        "network.unique_points": (cn.get("network.unique_points", 0), "count"),
        "network.graph_s": (cs.get("network.graph", 0.0), "s"),
        "trace.overhead_frac": (_ratio(main.wall_s, untraced.wall_s) - 1.0, "ratio"),
        "trace.other_s": (serial_other, "s"),
        "trace.tile_err_frac": (tile, "ratio"),
        "trace.xcheck_err_frac": (xcheck, "ratio"),
        "calib.numpy_ms": (calibration["numpy_ms"], "ms"),
        "calib.python_ms": (calibration["python_ms"], "ms"),
    }
    return metrics, checks


def traced(workload: Workload, work: Path, seed: int, expected: str | None, calibration: dict[str, float]):
    untraced = invoke(workload, work, seed, workload.workers, expected)
    main_root = work / "trace-main"
    main = invoke(workload, work, seed, workload.workers, expected, ledger=True, trace_root=main_root)
    serial_root = work / "trace-serial"
    serial = main
    if workload.workers > 1:
        serial = invoke(workload, work, seed, 1, expected, ledger=True, trace_root=serial_root)
    invocations = [untraced, main] + ([serial] if serial is not main else [])
    if not all(inv.completed for inv in invocations):
        return invocations, {}, ["  traced reps failed; no ledger"]
    metrics, checks = per_layer(work, untraced, main, serial, main_root, serial_root, calibration)
    return invocations, metrics, checks


# --------------------------------------------------------------------------- #
# Entry point                                                                 #
# --------------------------------------------------------------------------- #
def load_golden(workload: str, seed: int) -> str | None:
    try:
        goldens = json.loads(GOLDENS.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return goldens.get(workload, {}).get(str(variant_of(seed)))


def prepare(workload: Workload, seed: int) -> Path:
    """Compile the program, clear the work directory and write the inputs."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=300,
    )
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.prepare(work, seed, child_env())
    return work


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def report(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple]) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": _finite(entry[0]), "unit": entry[1]} for name, entry in metrics.items()
                },
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "experiments" / "runner.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    expected = load_golden(workload.name, args.seed)
    if expected is None:
        print(f"perfbench: no golden digest for {workload.name} variant {variant_of(args.seed)}", file=sys.stderr)
    work = prepare(workload, args.seed)
    calibration = calibrate()
    print(
        f"perfbench workload={workload.name} seed={args.seed} "
        f"variant={variant_of(args.seed)}/{N_VARIANTS} trace={args.trace}"
    )

    if args.trace:
        invocations, metrics, checks = traced(workload, work, args.seed, expected, calibration)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<34} {value:>14.6g} {unit}")
        for line in checks:
            print(line)
    else:
        probes, invocations = measure(workload, work, args.seed, args.seconds, expected)
        e2e = end_to_end(probes, invocations)
        for name, (value, unit, count) in e2e.items():
            print(f"  {name:<14} {value:>12.5g} {unit:<10} median of {count}")
        metrics = {name: (value, unit) for name, (value, unit, _) in e2e.items()}

    attempted, failed = accounting(invocations)
    print(f"  {'failed_frac':<14} {failed / attempted:>12.5g} {'ratio':<10} {failed} of {attempted} tasks")
    correct = bool(invocations) and all(inv.ok for inv in invocations)
    digests = sorted({step.digest for inv in invocations for step in inv.steps if step.digest})
    print(f"  decisions: {'match' if correct else 'MISMATCH'} golden {expected} (seen {digests})")
    print("perfbench-env " + json.dumps(host_record(calibration)))
    report(correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
