"""Unit tests for defect statistics and the size distribution."""

import math

import pytest

from repro.defects import (
    DefectMechanism,
    DefectStatistics,
    SizeDistribution,
    maly_like_statistics,
    open_heavy_statistics,
)


def test_size_distribution_normalised():
    size = SizeDistribution(x0=1.0, x_max=1e9)
    # Integral of 2 x0^2 / x^3 over [x0, inf) is 1.
    steps = 20000
    total = 0.0
    x = size.x0
    dx = 0.01
    for _ in range(steps):
        total += size.pdf(x) * dx
        x += dx
    assert total == pytest.approx(1.0, abs=0.02)


def test_cdf_matches_pdf():
    size = SizeDistribution(x0=1.0, x_max=50.0)
    assert size.cdf(1.0) == 0.0
    assert size.cdf(2.0) == pytest.approx(1 - 0.25)
    assert size.cdf(1e9) == size.cdf(size.x_max)


def test_inverse_sampling():
    size = SizeDistribution()
    for u in (0.0, 0.3, 0.75, 0.99):
        x = size.sample(u)
        assert x >= size.x0
        # Round-trip through the untruncated CDF.
        assert 1 - (size.x0 / x) ** 2 == pytest.approx(u)
    with pytest.raises(ValueError):
        size.sample(1.0)


def test_mean():
    assert SizeDistribution(x0=1.5).mean() == 3.0


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        SizeDistribution(x0=0)
    with pytest.raises(ValueError):
        SizeDistribution(x0=10, x_max=5)


def test_mechanism_categories():
    assert DefectMechanism.METAL1_SHORT.is_bridge
    assert not DefectMechanism.METAL1_SHORT.is_open
    assert DefectMechanism.CONTACT_OPEN.is_open
    assert DefectMechanism.GATE_OXIDE_SHORT.is_bridge


def test_default_table_is_bridge_heavy():
    stats = maly_like_statistics()
    assert stats.bridge_fraction() > 0.5
    assert stats.density(DefectMechanism.METAL1_SHORT) > stats.density(
        DefectMechanism.METAL1_OPEN
    )


def test_open_heavy_table():
    stats = open_heavy_statistics()
    assert stats.bridge_fraction() < 0.5


def test_scaling():
    stats = maly_like_statistics()
    doubled = stats.scaled(2.0)
    for mech in DefectMechanism:
        assert doubled.density(mech) == pytest.approx(2 * stats.density(mech))
    # Original untouched (frozen semantics).
    assert stats.density(DefectMechanism.METAL1_SHORT) == pytest.approx(8.0e-7)


def test_missing_mechanism_density_zero():
    stats = DefectStatistics(densities={DefectMechanism.METAL1_SHORT: 1e-6})
    assert stats.density(DefectMechanism.VIA_OPEN) == 0.0
    assert stats.bridge_fraction() == 1.0


def test_general_exponent_distribution():
    size = SizeDistribution(x0=1.0, x_max=40.0, exponent=2.5)
    assert size.cdf(2.0) == pytest.approx(1 - 2 ** -1.5)
    for u in (0.1, 0.6, 0.9):
        x = size.sample(u)
        assert 1 - (size.x0 / x) ** 1.5 == pytest.approx(u)
    assert size.mean() == pytest.approx(1.0 * 1.5 / 0.5)
    assert SizeDistribution(exponent=2.0).mean() == math.inf
    with pytest.raises(ValueError):
        SizeDistribution(exponent=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-7])
def test_densities_must_be_finite_and_non_negative(bad):
    densities = dict(DefectStatistics().densities)
    densities[DefectMechanism.METAL1_SHORT] = bad
    with pytest.raises(ValueError, match="finite and >= 0"):
        DefectStatistics(densities=densities)


def test_bad_tables_fail_at_construction_not_downstream():
    # An all-negative table once ran layout and extraction before failing.
    with pytest.raises(ValueError, match="finite and >= 0"):
        DefectStatistics(densities={m: -1e-7 for m in DefectMechanism})
    with pytest.raises(ValueError, match="finite and >= 0"):
        DefectStatistics().scaled(math.nan)
    # Zero densities stay legal: they switch a mechanism off.
    zeros = DefectStatistics(densities={m: 0.0 for m in DefectMechanism})
    assert zeros.density(DefectMechanism.VIA_OPEN) == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [{"exponent": math.nan}, {"exponent": math.inf}, {"x_max": math.inf}, {"x0": math.nan}],
)
def test_size_distribution_needs_finite_parameters(kwargs):
    with pytest.raises(ValueError, match="finite"):
        SizeDistribution(**kwargs)
