"""Pipeline checkpointing: stage persistence, resume, chaos interruption."""

import pytest

from repro import obs
from repro.experiments import ExperimentConfig, run_experiment
from repro.resilience import (
    ChaosInjectedError,
    ChaosPlan,
    ChaosRule,
    CheckpointStore,
    chaos,
)

STAGES = ["atpg", "stuck_sim", "extraction", "switch_sim"]


@pytest.fixture(autouse=True)
def _clean_state():
    chaos.uninstall()
    obs.disable()
    yield
    chaos.uninstall()
    obs.disable()


CONFIG = ExperimentConfig(benchmark="c17", seed=41)


def _assert_results_identical(a, b):
    """The paper's observables must be bit-identical across recovery paths."""
    assert a.test_patterns == b.test_patterns
    assert a.n_random == b.n_random
    assert a.stuck_faults == b.stuck_faults
    assert a.stuck_result.first_detection == b.stuck_result.first_detection
    assert a.stuck_result.coverage == b.stuck_result.coverage
    assert a.coverage.theta_max == b.coverage.theta_max
    assert a.sample_ks == b.sample_ks
    assert [a.theta_at(k) for k in a.sample_ks] == [
        b.theta_at(k) for k in b.sample_ks
    ]
    assert a.fit().theta_max == b.fit().theta_max
    assert a.fit().susceptibility_ratio == b.fit().susceptibility_ratio


def test_checkpointed_run_persists_every_stage(tmp_path):
    result = run_experiment(CONFIG, checkpoint_dir=tmp_path)
    assert result.stages_recomputed == STAGES
    assert result.stages_restored == []
    assert CheckpointStore(tmp_path, CONFIG).stages() == sorted(STAGES)


def test_resume_restores_every_stage_and_matches(tmp_path):
    first = run_experiment(CONFIG, checkpoint_dir=tmp_path)
    resumed = run_experiment(CONFIG, checkpoint_dir=tmp_path, resume=True)
    assert resumed.stages_restored == STAGES
    assert resumed.stages_recomputed == []
    _assert_results_identical(first, resumed)


def test_resume_after_mid_pipeline_crash(tmp_path):
    """Kill the run right after stuck-at simulation; resume finishes it."""
    reference = run_experiment(CONFIG)  # memoised clean run

    plan = ChaosPlan(
        rules=(
            ChaosRule(point="pipeline.stage", kind="exception", keys={"stuck_sim"}),
        )
    )
    with chaos.active(plan), pytest.raises(ChaosInjectedError):
        run_experiment(CONFIG, checkpoint_dir=tmp_path)
    # The completed stages survived the crash.
    store = CheckpointStore(tmp_path, CONFIG)
    assert store.has("atpg") and store.has("stuck_sim")
    assert not store.has("switch_sim")

    resumed = run_experiment(CONFIG, checkpoint_dir=tmp_path, resume=True)
    assert resumed.stages_restored == ["atpg", "stuck_sim"]
    assert resumed.stages_recomputed == ["extraction", "switch_sim"]
    _assert_results_identical(reference, resumed)


def test_resume_without_prior_run_recomputes_everything(tmp_path):
    result = run_experiment(CONFIG, checkpoint_dir=tmp_path, resume=True)
    assert result.stages_restored == []
    assert result.stages_recomputed == STAGES


def test_checkpoint_run_matches_memoised_run(tmp_path):
    _assert_results_identical(
        run_experiment(CONFIG),
        run_experiment(CONFIG, checkpoint_dir=tmp_path),
    )


def test_resume_counters_and_resilience_info(tmp_path):
    run_experiment(CONFIG, checkpoint_dir=tmp_path)
    _, registry = obs.enable()
    resumed = run_experiment(CONFIG, checkpoint_dir=tmp_path, resume=True)
    assert registry.counter("resilience.stages_restored").value == len(STAGES)
    info = resumed.resilience_info()
    assert info["stages_restored"] == STAGES
    assert info["stages_recomputed"] == []
    assert set(info) == {"stages_restored", "stages_recomputed"}


def test_manifest_records_resilience(tmp_path):
    from repro.obs.manifest import RunManifest, read_manifests

    result = run_experiment(CONFIG, checkpoint_dir=tmp_path, resume=True)
    manifest = RunManifest.from_run(
        CONFIG, resilience=result.resilience_info()
    )
    path = tmp_path / "run.jsonl"
    manifest.write(str(path))
    (parsed,) = read_manifests(str(path))
    assert parsed.resilience["stages_recomputed"] == STAGES
    assert "engine_degraded" not in parsed.resilience


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"target_yield": 0.0}, "target_yield"),
        ({"target_yield": 1.5}, "target_yield"),
        ({"random_coverage_target": -0.1}, "random_coverage_target"),
        ({"max_random_patterns": -1}, "max_random_patterns"),
        ({"backtrack_limit": -5}, "backtrack_limit"),
    ],
)
def test_config_validation_rejects_bad_knobs(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(benchmark="c17", **kwargs)


def test_config_validation_accepts_boundaries():
    ExperimentConfig(
        benchmark="c17",
        target_yield=1.0,
        random_coverage_target=1.0,
        max_random_patterns=0,
        backtrack_limit=0,
    )
