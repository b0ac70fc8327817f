"""A cold experiment imports no scipy.

scipy.optimize costs about half a second and 40 MB per process; only the
production-side fits (``fit_sousa_with_yield``, ``fit_agrawal_n``,
``fit_susceptibility``) import it, inside the function.  The check runs in
a fresh interpreter, because this test process imports scipy elsewhere.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_PROBE = """
import sys

import repro
import repro.__main__
import repro.campaign
import repro.experiments
from repro.campaign.store import result_record
from repro.experiments.pipeline import ExperimentConfig, run_experiment

result_record(run_experiment(ExperimentConfig(benchmark="c17")))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cold_experiment_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", done.stdout
