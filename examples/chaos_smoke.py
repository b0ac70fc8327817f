#!/usr/bin/env python3
"""Chaos smoke: crash the pipeline mid-run, resume it, verify bit-exactness.

The deterministic chaos harness (:mod:`repro.resilience.chaos`) injects a
crash immediately after the stuck-at fault-simulation stage of a
checkpointed run.  The script then resumes from the surviving checkpoints
and asserts the recovered result is identical — same test sequence, same
first-detection indices, same fitted ``(R, theta_max)`` — to an
uninterrupted run.

This is the CI chaos-smoke gate.  Run:  PYTHONPATH=src python examples/chaos_smoke.py
"""

import sys
import tempfile

from repro.experiments import ExperimentConfig, run_experiment
from repro.resilience import ChaosInjectedError, ChaosPlan, ChaosRule, chaos


def check_resume_after_crash() -> None:
    config = ExperimentConfig(benchmark="c17", seed=2026)
    reference = run_experiment(config)

    crash_after_stuck_sim = ChaosPlan(
        rules=(
            ChaosRule(point="pipeline.stage", kind="exception", keys={"stuck_sim"}),
        )
    )
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        try:
            with chaos.active(crash_after_stuck_sim):
                run_experiment(config, checkpoint_dir=checkpoint_dir)
        except ChaosInjectedError:
            print("pipeline crashed after stuck_sim (injected), as planned")
        else:
            raise AssertionError("chaos injection did not fire")

        resumed = run_experiment(config, checkpoint_dir=checkpoint_dir, resume=True)

    assert resumed.stages_restored == ["atpg", "stuck_sim"], resumed.stages_restored
    assert resumed.stages_recomputed == ["extraction", "switch_sim"]
    assert resumed.test_patterns == reference.test_patterns
    assert resumed.stuck_result.first_detection == reference.stuck_result.first_detection
    assert resumed.fit().theta_max == reference.fit().theta_max
    assert resumed.fit().susceptibility_ratio == reference.fit().susceptibility_ratio
    print(
        "resume ok: restored "
        + ", ".join(resumed.stages_restored)
        + "; recomputed "
        + ", ".join(resumed.stages_recomputed)
        + "; results bit-identical"
    )


def main() -> int:
    check_resume_after_crash()
    print("chaos smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
