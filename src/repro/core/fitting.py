"""Curve fitting for the defect-level and coverage-growth models.

The paper determines ``(R, theta_max)`` by fitting eq. 11 to the simulated
``(T(k), DL(theta(k)))`` points (fig. 5: R = 1.9, theta_max = 0.96), and the
Agrawal ``n`` by fitting eq. 2 to fallout data.  These fits, plus
susceptibility estimation from coverage-growth curves, live here.

The eq. 11 fit the pipeline runs needs numpy alone.  The other fits import
``scipy.optimize`` inside the function: that import takes most of a second
and over 40 MB, which an experiment that never calls them should not pay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.defect_level import agrawal, sousa_defect_level

__all__ = [
    "SousaFit",
    "FalloutFit",
    "fit_sousa_model",
    "fit_sousa_with_yield",
    "fit_agrawal_n",
    "fit_susceptibility",
]


@dataclass(frozen=True)
class SousaFit:
    """Result of fitting eq. 11 to (T, DL) data."""

    susceptibility_ratio: float
    theta_max: float
    residual: float

    def predict(self, yield_value: float, coverage: float) -> float:
        """Evaluate the fitted model."""
        return sousa_defect_level(
            yield_value, coverage, self.susceptibility_ratio, self.theta_max
        )


def fit_sousa_model(
    coverages: Sequence[float],
    defect_levels: Sequence[float],
    yield_value: float,
    r_bounds: tuple[float, float] = (0.1, 10.0),
    theta_bounds: tuple[float, float] = (0.5, 1.0),
) -> SousaFit:
    """Bounded least-squares fit of ``(R, theta_max)`` in eq. 11.

    Fitting happens on the *exponent* scale (the realistic coverage
    ``theta = 1 - ln(1 - DL)/ln(Y)``), which weights the high-coverage tail
    where the models actually differ, the way the paper's log-scale DL plots
    do.

    The fit is solved by variable projection.  For a fixed ``R`` the model
    ``theta_max * g`` with ``g = 1 - (1 - T)^R`` is linear in ``theta_max``,
    so the best ``theta_max`` is ``<g, theta> / <g, g>`` clipped to
    ``theta_bounds``.  What remains is a 1-D minimisation over ``R``: a
    log-spaced grid from bound to bound brackets the minimum, and bisection
    on the sign of the profiled cost's slope narrows it to adjacent floats.
    """
    T = np.asarray(coverages, dtype=float)
    dl = np.asarray(defect_levels, dtype=float)
    if T.shape != dl.shape or T.size < 2:
        raise ValueError("need matching coverage/DL arrays with >= 2 points")
    if not 0 < yield_value < 1:
        raise ValueError("yield must be in (0, 1)")

    log_y = math.log(yield_value)
    theta_obs = 1.0 - np.log(np.clip(1.0 - dl, 1e-15, 1.0)) / log_y
    with obs.span("fitting.sousa", n_points=int(T.size)):
        r_fit, theta_fit, resid = _profiled_fit(
            np.clip(1.0 - T, 0.0, 1.0), theta_obs, r_bounds, theta_bounds
        )
    fit = SousaFit(
        susceptibility_ratio=r_fit,
        theta_max=theta_fit,
        residual=float(np.sqrt(np.mean(resid**2))),
    )
    obs.set_gauge("fitting.R", fit.susceptibility_ratio)
    obs.set_gauge("fitting.theta_max", fit.theta_max)
    obs.set_gauge("fitting.residual", fit.residual)
    return fit


_GRID_POINTS = 64


def _profiled_fit(
    q: np.ndarray,
    theta_obs: np.ndarray,
    r_bounds: tuple[float, float],
    theta_bounds: tuple[float, float],
) -> tuple[float, float, np.ndarray]:
    """Minimise ``|theta_max * (1 - q^R) - theta_obs|`` over the bounds.

    Returns ``(R, theta_max, residuals)``.
    """
    t_lo, t_hi = map(float, theta_bounds)
    # d(q^R)/dR = q^R ln q; points with q = 0 contribute nothing.
    log_q = np.log(np.where(q > 0.0, q, 1.0))

    def project(r: float) -> tuple[float, np.ndarray, np.ndarray]:
        q_r = np.power(q, r)
        g = 1.0 - q_r
        gg = float(g @ g)
        theta = float(g @ theta_obs) / gg if gg > 0.0 else t_hi
        theta = min(max(theta, t_lo), t_hi)
        return theta, theta * g - theta_obs, q_r

    def cost(r: float) -> float:
        resid = project(r)[1]
        return float(resid @ resid)

    def slope(r: float) -> float:
        # Envelope theorem: the clipped theta_max is optimal for this R, so
        # the profiled cost's derivative is the partial derivative in R.
        theta, resid, q_r = project(r)
        return -theta * float(resid @ (q_r * log_q))

    grid = np.geomspace(*r_bounds, _GRID_POINTS)
    grid[[0, -1]] = r_bounds
    best = int(np.argmin([cost(r) for r in grid]))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, _GRID_POINTS - 1)])
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if slope(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    # The grid's end points are the bounds themselves, and ties go to the
    # grid point, so an optimum on a bound returns that bound exactly.
    r_fit = min((float(grid[best]), lo, hi), key=cost)
    theta_fit, resid, _ = project(r_fit)
    return r_fit, theta_fit, resid


@dataclass(frozen=True)
class FalloutFit:
    """Joint fit of (Y, R, theta_max) to production fallout data."""

    yield_value: float
    susceptibility_ratio: float
    theta_max: float
    residual: float

    def predict(self, coverage: float) -> float:
        """Evaluate the fitted model at a coverage point."""
        return sousa_defect_level(
            self.yield_value, coverage, self.susceptibility_ratio, self.theta_max
        )


def fit_sousa_with_yield(
    coverages: Sequence[float],
    defect_levels: Sequence[float],
    y_bounds: tuple[float, float] = (0.05, 0.999),
    r_bounds: tuple[float, float] = (0.1, 10.0),
    theta_bounds: tuple[float, float] = (0.5, 1.0),
) -> FalloutFit:
    """Fit (Y, R, theta_max) jointly to measured fallout data.

    The paper notes that "Predictions of Y, DL, R and theta_max can be
    obtained at the design phase, and can be ascertained during test
    application, in IC production" — this is the production-side direction:
    from observed (coverage, fallout) pairs alone, recover all three model
    parameters.  Needs data spanning a decent coverage range; with only a
    high-coverage tail, Y and theta_max trade off against each other.
    """
    T = np.asarray(coverages, dtype=float)
    dl = np.asarray(defect_levels, dtype=float)
    if T.shape != dl.shape or T.size < 3:
        raise ValueError("need matching coverage/DL arrays with >= 3 points")

    from scipy.optimize import least_squares

    log_dl_obs = np.log(np.clip(dl, 1e-15, 1.0))

    def residuals(params: np.ndarray) -> np.ndarray:
        y, r, theta_max = params
        theta = theta_max * (1.0 - np.power(np.clip(1.0 - T, 0.0, 1.0), r))
        model = 1.0 - np.power(y, 1.0 - theta)
        return np.log(np.clip(model, 1e-15, 1.0)) - log_dl_obs

    result = least_squares(
        residuals,
        x0=np.array([0.5, 1.5, 0.95]),
        bounds=(
            np.array([y_bounds[0], r_bounds[0], theta_bounds[0]]),
            np.array([y_bounds[1], r_bounds[1], theta_bounds[1]]),
        ),
    )
    y_fit, r_fit, theta_fit = result.x
    return FalloutFit(
        yield_value=float(y_fit),
        susceptibility_ratio=float(r_fit),
        theta_max=float(theta_fit),
        residual=float(np.sqrt(np.mean(result.fun**2))),
    )


def fit_agrawal_n(
    coverages: Sequence[float],
    defect_levels: Sequence[float],
    yield_value: float,
    n_bounds: tuple[float, float] = (1.0, 50.0),
) -> float:
    """Fit the Agrawal model's average multiplicity ``n`` to (T, DL) data."""
    from scipy.optimize import curve_fit

    T = np.asarray(coverages, dtype=float)
    dl = np.asarray(defect_levels, dtype=float)

    def model(t: np.ndarray, n: float) -> np.ndarray:
        return np.array([agrawal(yield_value, ti, n) for ti in t])

    popt, _ = curve_fit(
        model, T, dl, p0=[2.0], bounds=([n_bounds[0]], [n_bounds[1]])
    )
    return float(popt[0])


def fit_susceptibility(
    ks: Sequence[float],
    coverages: Sequence[float],
    theta_max: float | None = None,
) -> tuple[float, float]:
    """Fit eq. 7/8 to an observed coverage-growth curve.

    Returns ``(susceptibility, theta_max)``.  When ``theta_max`` is given it
    is held fixed (use 1.0 for stuck-at curves); otherwise both parameters
    are fitted.
    """
    k_arr = np.asarray(ks, dtype=float)
    c_arr = np.asarray(coverages, dtype=float)
    if k_arr.shape != c_arr.shape or k_arr.size < 2:
        raise ValueError("need matching k/coverage arrays with >= 2 points")
    if np.any(k_arr < 1):
        raise ValueError("vector counts must be >= 1")

    from scipy.optimize import curve_fit

    if theta_max is not None:

        def model_fixed(k: np.ndarray, log_s: float) -> np.ndarray:
            return theta_max * (1.0 - np.exp(-np.log(k) / log_s))

        popt, _ = curve_fit(
            model_fixed, k_arr, c_arr, p0=[2.0], bounds=([1e-3], [1e3])
        )
        return float(math.exp(popt[0])), float(theta_max)

    def model(k: np.ndarray, log_s: float, tmax: float) -> np.ndarray:
        return tmax * (1.0 - np.exp(-np.log(k) / log_s))

    popt, _ = curve_fit(
        model, k_arr, c_arr, p0=[2.0, 0.95], bounds=([1e-3, 0.1], [1e3, 1.0])
    )
    return float(math.exp(popt[0])), float(popt[1])
