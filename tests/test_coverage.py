"""Unit tests for realistic coverage bookkeeping (theta/Gamma curves)."""

import pytest

from repro.defects import BridgeFault, FaultList
from repro.switchsim import SwitchSimResult, build_coverage
from repro.switchsim.coverage import CoverageCurves


def _result(faults, detections, potential=None, iddq=None, n=10):
    res = SwitchSimResult(faults=faults, n_patterns=n)
    for fault, k in detections:
        res.first_detection[id(fault)] = k
    for fault, k in (detections if potential is None else potential):
        res.first_detection_potential[id(fault)] = k
    for fault, k in (iddq or []):
        res.first_detection_iddq[id(fault)] = k
    return res


def _faults(weights):
    fl = FaultList()
    for i, w in enumerate(weights):
        fl.add(BridgeFault(weight=w, net_a=f"a{i}", net_b=f"b{i}"))
    return fl


def test_theta_weighted_vs_gamma_unweighted():
    faults = _faults([9.0, 0.5, 0.5])
    heavy, light1, light2 = faults.faults
    result = _result(faults.faults, [(heavy, 2)])
    curves = build_coverage(faults, result, "voltage")
    assert curves.theta_at(2) == pytest.approx(0.9)
    assert curves.gamma_at(2) == pytest.approx(1 / 3)
    assert curves.theta_at(1) == 0.0


def test_monotone_and_saturation():
    faults = _faults([1, 2, 3, 4])
    f = faults.faults
    result = _result(f, [(f[0], 1), (f[1], 3), (f[2], 7)])
    curves = build_coverage(faults, result, "voltage")
    thetas = [curves.theta_at(k) for k in range(0, 11)]
    assert thetas == sorted(thetas)
    assert curves.theta_max == pytest.approx(6 / 10)
    assert curves.gamma_max == pytest.approx(3 / 4)


def test_techniques_select_maps():
    faults = _faults([1, 1])
    a, b = faults.faults
    result = _result(
        faults.faults,
        [(a, 5)],
        potential=[(a, 2), (b, 9)],
        iddq=[(b, 1)],
    )
    strict = build_coverage(faults, result, "voltage-strict")
    potential = build_coverage(faults, result, "voltage")
    iddq = build_coverage(faults, result, "iddq")
    either = build_coverage(faults, result, "either")
    assert strict.theta_at(5) == pytest.approx(0.5)
    assert potential.theta_at(2) == pytest.approx(0.5)
    assert potential.theta_max == pytest.approx(1.0)
    assert iddq.theta_at(1) == pytest.approx(0.5)
    assert either.theta_at(1) == pytest.approx(0.5)
    assert either.theta_max == pytest.approx(1.0)
    with pytest.raises(ValueError):
        build_coverage(faults, result, "psychic")


def test_unknown_technique_rejected_before_any_fault():
    # An empty fault list never reaches the per-fault selection.
    result = SwitchSimResult(faults=[], n_patterns=10)
    with pytest.raises(ValueError, match="bogus"):
        build_coverage([], result, technique="bogus")


def test_curve_rows():
    faults = _faults([1, 1])
    a, b = faults.faults
    result = _result(faults.faults, [(a, 2), (b, 6)])
    curves = build_coverage(faults, result, "voltage")
    rows = curves.curve()
    assert rows[-1][0] == 10
    ks = [k for k, _, _ in rows]
    assert ks == sorted(ks)
    explicit = curves.curve([1, 2, 6, 10])
    assert explicit[1][1] == pytest.approx(0.5)
    assert explicit[2][1] == pytest.approx(1.0)


def test_empty_fault_list():
    curves = CoverageCurves(n_patterns=5, total_weight=0.0, records=[])
    assert curves.theta_at(3) == 1.0
    assert curves.gamma_at(3) == 1.0
