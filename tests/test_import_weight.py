"""The CLIs start on numpy alone: no heavy scientific stack at import time.

Every ``cprecycle-experiments`` invocation pays its entry modules' import
cost, so a dependency pulled in at module level by any figure or analysis
slows every run, whether or not that figure runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])


def test_cli_entry_points_import_neither_scipy_nor_networkx():
    code = (
        "import json, sys\n"
        "import repro.experiments.runner, repro.campaigns.cli\n"
        "print(json.dumps(sorted(m for m in ('scipy', 'networkx') if m in sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(out.stdout) == []
