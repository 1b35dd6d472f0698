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


def test_set_up_path_does_not_import_numpy_ma():
    # np.unique (and np.setdiff1d / np.intersect1d through it) imports
    # numpy.ma on first use, ~13 ms that would land in every run's set-up:
    # building sender allocations and receivers before dispatch, and the
    # SIR grid of fig13's simulated links, must not reach it.
    code = (
        "import sys\n"
        "import repro.experiments.runner\n"
        "from repro.api.experiment import check_receivers, expand_psr_points\n"
        "from repro.experiments import fig13_network\n"
        "from repro.experiments.config import QUICK_PROFILE\n"
        "from repro.experiments.runner import builtin_spec\n"
        "from repro.network import links\n"
        "points, _ = expand_psr_points(builtin_spec('fig8').resolve(QUICK_PROFILE))\n"
        "check_receivers(points)\n"
        "links.execute_points = lambda fn, tasks, n_workers=None: [\n"
        "    {'standard': 100.0, 'cprecycle': 100.0} for _ in tasks\n"
        "]\n"
        "fig13_network.run_simulated_analyses(QUICK_PROFILE, n_realizations=1)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"
