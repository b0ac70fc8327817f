"""Integration tests of the end-to-end experiment pipeline (small circuit)."""


import pytest

from repro.core import williams_brown
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.pipeline import scaled_weight_check


@pytest.fixture(scope="module")
def small_experiment():
    return run_experiment(
        ExperimentConfig(benchmark="c17", max_random_patterns=128, seed=7)
    )


def test_yield_scaled_to_target(small_experiment):
    assert scaled_weight_check(small_experiment) == pytest.approx(0.75)
    assert small_experiment.realistic_faults.predicted_yield() == pytest.approx(0.75)


def test_stuck_at_coverage_complete(small_experiment):
    # c17 is fully testable: no redundant faults, T reaches 1.
    assert not small_experiment.redundant_faults
    assert small_experiment.final_T == 1.0


def test_series_shape(small_experiment):
    rows = small_experiment.series()
    assert rows[0][0] == 1
    assert rows[-1][0] == len(small_experiment.test_patterns)
    for k, T, theta, gamma, dl in rows:
        assert 0 <= T <= 1 and 0 <= theta <= 1 and 0 <= gamma <= 1
        assert dl == pytest.approx(williams_brown(0.75, theta))
    # Monotone non-decreasing coverages.
    for col in (1, 2, 3):
        values = [row[col] for row in rows]
        assert values == sorted(values)


def test_dl_monotone_non_increasing(small_experiment):
    dls = [row[4] for row in small_experiment.series()]
    assert dls == sorted(dls, reverse=True)


def test_fit_runs_and_is_sane(small_experiment):
    fit = small_experiment.fit()
    assert 0.1 <= fit.susceptibility_ratio <= 10.0
    assert 0.5 <= fit.theta_max <= 1.0


def test_memoisation_returns_same_object(small_experiment):
    again = run_experiment(
        ExperimentConfig(benchmark="c17", max_random_patterns=128, seed=7)
    )
    assert again is small_experiment


def test_different_config_different_run(small_experiment):
    other = run_experiment(
        ExperimentConfig(benchmark="c17", max_random_patterns=64, seed=7)
    )
    assert other is not small_experiment


def test_static_analysis_attached_to_result(small_experiment):
    # The default pipeline runs the static-analysis pass and records it.
    analysis = small_experiment.analysis
    assert analysis is not None
    assert analysis.ok
    # c17 is fully testable: the implication screen proves nothing redundant.
    assert small_experiment.static_untestable == []
    assert analysis.untestable is not None
    assert analysis.untestable.n_screened > 0


def test_static_analysis_can_be_disabled(small_experiment):
    plain = run_experiment(
        ExperimentConfig(
            benchmark="c17", max_random_patterns=128, seed=7, static_analysis=False
        )
    )
    # A distinct config keys a distinct (non-memoised) run...
    assert plain is not small_experiment
    assert plain.analysis is None
    assert plain.static_untestable == []
    # ...but the physics is untouched: identical coverage trajectory.
    assert plain.series() == small_experiment.series()


def test_static_analysis_config_hashes_distinctly():
    on = ExperimentConfig(benchmark="c17", static_analysis=True)
    off = ExperimentConfig(benchmark="c17", static_analysis=False)
    assert hash(on) != hash(off)
    assert on != off


def test_detection_technique_config():
    strict = run_experiment(
        ExperimentConfig(
            benchmark="c17", max_random_patterns=128, seed=7, detection="voltage-strict"
        )
    )
    default = run_experiment(
        ExperimentConfig(benchmark="c17", max_random_patterns=128, seed=7)
    )
    assert strict.theta_max <= default.theta_max + 1e-12


def test_prover_attached_by_default(small_experiment):
    # prove_redundancy defaults on: the analysis carries a prover result
    # even when (as on the fully-testable c17) it proves nothing.
    analysis = small_experiment.analysis
    assert analysis is not None
    assert analysis.prover is not None
    assert analysis.prover.proved == []
    assert analysis.prover.certs_failed == 0


def test_prove_redundancy_can_be_disabled(small_experiment):
    plain = run_experiment(
        ExperimentConfig(
            benchmark="c17",
            max_random_patterns=128,
            seed=7,
            prove_redundancy=False,
        )
    )
    assert plain is not small_experiment
    assert plain.analysis is not None
    assert plain.analysis.prover is None
    # Nothing provable on c17, so the physics is untouched either way.
    assert plain.series() == small_experiment.series()


def test_prover_config_hashes_distinctly():
    base = ExperimentConfig(benchmark="c17")
    no_prove = ExperimentConfig(benchmark="c17", prove_redundancy=False)
    assert hash(base) != hash(no_prove) and base != no_prove


def test_podem_stats_recorded_on_topoff_run():
    # alu4 at a tiny random budget forces a deterministic top-off, which
    # runs PODEM with the prover's learned base and records its search
    # statistics on the result.
    result = run_experiment(
        ExperimentConfig(benchmark="alu4", max_random_patterns=8, seed=3)
    )
    assert set(result.podem_stats) == {
        "backtracks",
        "learned_prunes",
        "learned_conflicts",
    }
    prover = result.analysis.prover
    assert prover is not None
    assert len(prover.proved) == 4
    # The proved faults are exactly the statically-excluded ones: they
    # leave the coverage denominator before any vector is generated.
    assert set(prover.proved) <= set(result.static_untestable)
