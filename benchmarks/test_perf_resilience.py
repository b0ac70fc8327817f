"""Wall-clock cost of the resilience layer: checkpointed pipeline resume.

Robustness must not tax the happy path.  This benchmark measures the
**resume speedup** of a checkpointed pipeline re-run over a cold run.

Results are written to ``BENCH_resilience.json`` at the repo root.  Quick
mode — ``RESILIENCE_BENCH_QUICK=1`` — skips the wall-clock floor (shared
runners make ratios flaky); it still checks that the resumed run restores
every stage with identical results and still writes the JSON artifact.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.experiments import ExperimentConfig, run_experiment

QUICK = bool(os.environ.get("RESILIENCE_BENCH_QUICK"))
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_pipeline_resume(tmp_path):
    # Pipeline: cold checkpointed run vs full resume.
    config = ExperimentConfig(benchmark="c17", seed=777)
    ckpt = tmp_path / "ckpt"
    cold, cold_seconds = _timed(
        lambda: run_experiment(config, checkpoint_dir=ckpt)
    )
    resumed, resume_seconds = _timed(
        lambda: run_experiment(config, checkpoint_dir=ckpt, resume=True)
    )
    assert resumed.stages_restored == cold.stages_recomputed
    assert resumed.fit().theta_max == cold.fit().theta_max

    record = {
        "benchmark": config.benchmark,
        "mode": "quick" if QUICK else "full",
        "pipeline_resume": {
            "cold_seconds": round(cold_seconds, 4),
            "resume_seconds": round(resume_seconds, 4),
            "speedup": round(cold_seconds / resume_seconds, 2)
            if resume_seconds > 0
            else None,
        },
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")

    if not QUICK:
        # Restoring four pickles must beat recomputing four stages.
        assert resume_seconds < cold_seconds
