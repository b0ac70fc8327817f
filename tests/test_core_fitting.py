"""Unit tests for model fitting (R, theta_max, Agrawal n, susceptibility)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    agrawal,
    coverage_at,
    fit_agrawal_n,
    fit_sousa_model,
    fit_susceptibility,
    sousa_defect_level,
    weighted_coverage_at,
)


def test_fit_sousa_recovers_parameters():
    y = 0.75
    r_true, theta_true = 1.9, 0.96
    coverages = np.linspace(0.05, 0.999, 40)
    dls = [sousa_defect_level(y, t, r_true, theta_true) for t in coverages]
    fit = fit_sousa_model(coverages, dls, y)
    assert fit.susceptibility_ratio == pytest.approx(r_true, abs=0.02)
    assert fit.theta_max == pytest.approx(theta_true, abs=0.005)
    assert fit.residual < 1e-6


def test_fit_sousa_with_noise():
    rng = np.random.default_rng(5)
    y = 0.75
    coverages = np.linspace(0.1, 0.99, 60)
    dls = np.array([sousa_defect_level(y, t, 2.2, 0.94) for t in coverages])
    noisy = np.clip(dls * (1 + rng.normal(0, 0.03, dls.shape)), 1e-9, 0.999)
    fit = fit_sousa_model(coverages, noisy, y)
    assert fit.susceptibility_ratio == pytest.approx(2.2, abs=0.3)
    assert fit.theta_max == pytest.approx(0.94, abs=0.02)


def test_fit_sousa_identifies_wb_data_as_r1():
    y = 0.8
    coverages = np.linspace(0.05, 0.999, 30)
    dls = [sousa_defect_level(y, t, 1.0, 1.0) for t in coverages]
    fit = fit_sousa_model(coverages, dls, y)
    assert fit.susceptibility_ratio == pytest.approx(1.0, abs=0.02)
    assert fit.theta_max == pytest.approx(1.0, abs=0.005)


def test_fit_sousa_predict():
    y = 0.75
    coverages = np.linspace(0.1, 0.99, 30)
    dls = [sousa_defect_level(y, t, 1.5, 0.97) for t in coverages]
    fit = fit_sousa_model(coverages, dls, y)
    assert fit.predict(y, 0.5) == pytest.approx(
        sousa_defect_level(y, 0.5, 1.5, 0.97), rel=0.02
    )


def test_fit_sousa_validation():
    with pytest.raises(ValueError):
        fit_sousa_model([0.5], [0.1], 0.75)
    with pytest.raises(ValueError):
        fit_sousa_model([0.5, 0.6], [0.1, 0.2], 1.5)


R_BOUNDS = (0.1, 10.0)
THETA_BOUNDS = (0.5, 1.0)


def _scipy_fit(coverages, dls, y):
    """Eq. 11 fitted by ``scipy.optimize.least_squares``: the oracle.

    Tolerances are tightened to the floor scipy accepts, so the oracle's
    own stopping rule does not widen the comparison.
    """
    from scipy.optimize import least_squares

    q = np.clip(1.0 - np.asarray(coverages, dtype=float), 0.0, 1.0)
    dl = np.asarray(dls, dtype=float)
    theta_obs = 1.0 - np.log(np.clip(1.0 - dl, 1e-15, 1.0)) / math.log(y)
    result = least_squares(
        lambda p: p[1] * (1.0 - q ** p[0]) - theta_obs,
        x0=[1.5, 0.95],
        bounds=([R_BOUNDS[0], THETA_BOUNDS[0]], [R_BOUNDS[1], THETA_BOUNDS[1]]),
        ftol=1e-15,
        xtol=1e-15,
        gtol=1e-15,
    )
    r, theta = result.x
    return r, theta, float(np.sqrt(np.mean(result.fun**2)))


def _assert_matches_oracle(coverages, dls, y):
    fit = fit_sousa_model(coverages, dls, y, R_BOUNDS, THETA_BOUNDS)
    r, theta, residual = _scipy_fit(coverages, dls, y)
    assert R_BOUNDS[0] <= fit.susceptibility_ratio <= R_BOUNDS[1]
    assert THETA_BOUNDS[0] <= fit.theta_max <= THETA_BOUNDS[1]
    # The absolute term only absorbs rounding on noise-free data, where
    # both residuals are around 1e-16.
    assert fit.residual <= residual * (1 + 1e-9) + 1e-12
    interior = (
        R_BOUNDS[0] < fit.susceptibility_ratio < R_BOUNDS[1]
        and THETA_BOUNDS[0] < fit.theta_max < THETA_BOUNDS[1]
    )
    if interior:
        assert fit.susceptibility_ratio == pytest.approx(r, abs=1e-4)
        assert fit.theta_max == pytest.approx(theta, abs=1e-5)


@settings(max_examples=60, deadline=None)
@given(
    r_true=st.floats(0.1, 10.0),
    theta_true=st.floats(0.5, 1.0),
    y=st.floats(0.5, 0.95),
    n=st.integers(5, 40),
    first_T=st.floats(0.01, 0.5),
    last_T=st.sampled_from([0.999, 1.0]),
    noise=st.one_of(st.just(0.0), st.floats(0.001, 0.1)),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_sousa_matches_scipy_oracle(
    r_true, theta_true, y, n, first_T, last_T, noise, seed
):
    coverages = np.linspace(first_T, last_T, n)
    dls = np.array([sousa_defect_level(y, t, r_true, theta_true) for t in coverages])
    if noise:
        rng = np.random.default_rng(seed)
        dls = np.clip(dls * (1 + rng.normal(0, noise, n)), 1e-12, 0.999)
    _assert_matches_oracle(coverages, dls, y)


@pytest.mark.parametrize("name", ["c17", "alu4", "c432"])
def test_fit_sousa_matches_scipy_oracle_on_pipeline_points(name):
    from repro.experiments.pipeline import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(benchmark=name))
    ks = [k for k in result.sample_ks if result.T_at(k) > 0]
    coverages = [result.T_at(k) for k in ks]
    dls = [result.dl_at(k) for k in ks]
    _assert_matches_oracle(coverages, dls, result.config.target_yield)


@pytest.mark.parametrize(
    "r_true, theta_scale, expected",
    [
        (1.5, 1.1, (None, THETA_BOUNDS[1])),
        (0.05, 0.8, (R_BOUNDS[0], None)),
        (20.0, 0.8, (R_BOUNDS[1], None)),
    ],
)
def test_fit_sousa_bound_optimum_returns_the_bound(r_true, theta_scale, expected):
    # theta(T) = theta_scale * (1 - (1-T)^r_true), built on the exponent
    # scale so theta_scale may exceed theta_max's upper bound.
    y = 0.75
    coverages = np.linspace(0.05, 0.75, 25)
    theta = theta_scale * (1.0 - (1.0 - coverages) ** r_true)
    dls = 1.0 - y ** (1.0 - theta)
    fit = fit_sousa_model(coverages, dls, y, R_BOUNDS, THETA_BOUNDS)
    r_bound, theta_bound = expected
    if r_bound is not None:
        assert fit.susceptibility_ratio == r_bound
    if theta_bound is not None:
        assert fit.theta_max == theta_bound
    _assert_matches_oracle(coverages, dls, y)


def test_fit_agrawal_n_recovers():
    y = 0.75
    n_true = 4.0
    coverages = np.linspace(0.05, 0.99, 40)
    dls = [agrawal(y, t, n_true) for t in coverages]
    assert fit_agrawal_n(coverages, dls, y) == pytest.approx(n_true, abs=0.05)


def test_fit_susceptibility_fixed_theta():
    s_true = math.e**2.5
    ks = [2, 4, 8, 32, 128, 1024, 8192]
    curve = [coverage_at(k, s_true) for k in ks]
    s_fit, theta = fit_susceptibility(ks, curve, theta_max=1.0)
    assert math.log(s_fit) == pytest.approx(2.5, abs=1e-6)
    assert theta == 1.0


def test_fit_susceptibility_free_theta():
    s_true, theta_true = math.e**1.4, 0.92
    ks = [2, 4, 8, 32, 128, 1024, 8192, 65536]
    curve = [weighted_coverage_at(k, s_true, theta_true) for k in ks]
    s_fit, theta_fit = fit_susceptibility(ks, curve)
    assert math.log(s_fit) == pytest.approx(1.4, abs=0.02)
    assert theta_fit == pytest.approx(theta_true, abs=0.005)


def test_fit_susceptibility_validation():
    with pytest.raises(ValueError):
        fit_susceptibility([2], [0.5])
    with pytest.raises(ValueError):
        fit_susceptibility([0.5, 2], [0.1, 0.2])
