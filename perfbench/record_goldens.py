#!/usr/bin/env python3
"""Record the decision digest of every (workload, variant) into ``goldens.json``.

From the repository root::

    python3 perfbench/record_goldens.py [WORKLOAD ...]

Pooled workloads run on 1 and on their own worker count; the recording
fails unless both give the same digest, since results must not depend on
the worker count.  Re-record only when a change is meant to alter decisions.
"""

from __future__ import annotations

import json
import sys

from run import GOLDENS, invoke, prepare
from workloads import N_VARIANTS, WORKLOADS


def main(names: list[str]) -> int:
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        digests = {}
        for variant in range(N_VARIANTS):
            work = prepare(workload, variant)
            seen = set()
            for workers in sorted({1, workload.workers}):
                invocation = invoke(workload, work, variant, workers, expected=None)
                step_digests = {step.digest for step in invocation.steps if step.digest}
                if any(step.code != 0 for step in invocation.steps) or len(step_digests) != 1:
                    print(f"{name} variant {variant} workers {workers}: failed", file=sys.stderr)
                    return 1
                seen |= step_digests
                print(f"{name} variant {variant} workers {workers}: {sorted(step_digests)[0]}")
            if len(seen) != 1:
                print(f"{name} variant {variant}: digests differ across worker counts", file=sys.stderr)
                return 1
            digests[str(variant)] = seen.pop()
        goldens[name] = digests
        GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
