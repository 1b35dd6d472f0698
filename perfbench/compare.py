#!/usr/bin/env python3
"""Compare two saved benchmark outputs, refusing results from unlike hosts.

    python3 perfbench/run.py --workload paper-link --seed 1 --seconds 25 --trace 0 > base.log
    python3 perfbench/run.py --workload paper-link --seed 1 --seconds 25 --trace 0 > new.log
    python3 perfbench/compare.py base.log new.log

Prints each metric's ratio new/base next to the ratio of the same-run
calibration kernels, so host drift shows apart from code drift.  Exits 2
when the two runs saw a different ``nproc`` (core counts change every
parallel number), 1 when either output is unreadable, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load(path: str) -> tuple[dict, dict]:
    lines = Path(path).read_text().splitlines()
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("perfbench-env "))
    return env, json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    try:
        (base_env, base), (new_env, new) = load(argv[0]), load(argv[1])
    except (OSError, StopIteration, json.JSONDecodeError, IndexError) as error:
        print(f"compare: unreadable benchmark output: {error}", file=sys.stderr)
        return 1
    if base_env["nproc"] != new_env["nproc"]:
        print(
            f"compare: refusing to compare runs on {base_env['nproc']} and {new_env['nproc']} CPUs",
            file=sys.stderr,
        )
        return 2
    for key in ("cpu_model", "python", "numpy", "commit"):
        print(f"{key:<10} {base_env[key]}  ->  {new_env[key]}")
    for name, value in base_env["calibration"].items():
        print(f"host drift {name:<10} x{new_env['calibration'][name] / value:.3f}")
    print(f"correct    {base['correct']} -> {new['correct']}")
    for name, entry in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        before, after = entry["value"], new["metrics"][name]["value"]
        ratio = f"x{after / before:.3f}" if before else "n/a"
        print(f"{name:<34} {before:>14.6g} -> {after:>14.6g} {entry['unit']:<10} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
