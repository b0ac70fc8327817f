"""Unit tests for the switch-level fault simulator on small circuits."""

import pytest

from repro.atpg import random_patterns
from repro.defects import (
    BridgeFault,
    FloatingNetFault,
    TransistorGateOpen,
    TransistorStuckOn,
    TransistorStuckOpen,
    extract_faults,
)
from repro.layout.cells import GND, VDD
from repro.switchsim import SwitchLevelFaultSimulator, build_coverage


@pytest.fixture(scope="module")
def c17_sim(c17_design):
    patterns = random_patterns(5, 128, seed=4)
    return SwitchLevelFaultSimulator(c17_design, patterns)


def test_good_values_match_logic_sim(c17_design, c17_sim):
    from repro.simulation import LogicSimulator

    logic = LogicSimulator(c17_design.mapped)
    for k in (0, 17, 63, 100):
        vec = c17_sim.patterns[k]
        values = logic.simulate(vec)
        for net, bits in c17_sim.values.items():
            assert bits[k] == values[net], (net, k)


def test_vdd_gnd_bridge_always_detected(c17_sim):
    fault = BridgeFault(weight=1.0, net_a=VDD, net_b=GND)
    det = c17_sim._dispatch(fault)
    assert det.strict == 1
    assert det.iddq == 1


def test_rail_bridge_behaves_like_stuck_at(c17_design, c17_sim):
    """A signal-GND bridge is detected iff/when that net's sa0 is detected."""
    from repro.simulation import NumpyFaultSimulator, StuckAtFault

    fault = BridgeFault(weight=1.0, net_a="G22", net_b=GND)
    det = c17_sim._dispatch(fault)
    stuck = NumpyFaultSimulator(c17_design.mapped)
    result = stuck.run(c17_sim.patterns, faults=[StuckAtFault("G22", 0)])
    expected = result.first_detection.get(StuckAtFault("G22", 0))
    assert det.strict == expected


def test_bridge_never_excited_undetected(c17_design):
    # Bridge a net with itself-driving pattern: use two nets that are always
    # equal under an all-equal pattern set.
    patterns = [[0, 0, 0, 0, 0]] * 8
    sim = SwitchLevelFaultSimulator(c17_design, patterns)
    fault = BridgeFault(weight=1.0, net_a="G10", net_b="G11")
    det = sim._dispatch(fault)
    # Under constant-zero inputs G10 and G11 are both 1 -> never excited.
    assert det.strict is None
    assert det.iddq is None


def test_potential_not_later_than_strict(c17_design, c17_sim):
    faults = extract_faults(c17_design).faults
    result = c17_sim.run(faults)
    for fault in faults:
        strict = result.detected_voltage(fault)
        potential = result.detected_potential(fault)
        if strict is not None:
            assert potential is not None and potential <= strict


def test_stuck_on_iddq_detected(c17_design, c17_sim):
    device = c17_design.transistors[0].name
    det = c17_sim._dispatch(TransistorStuckOn(weight=1.0, transistor=device))
    # A stuck-on NAND device fights its complement eventually.
    assert det.iddq is not None


def test_stuck_open_needs_two_pattern_sequence(c17_design):
    """A stuck-open is undetectable when the output never has to switch."""
    constant = [[1, 1, 1, 1, 1]] * 10
    sim = SwitchLevelFaultSimulator(c17_design, constant)
    device = next(t.name for t in c17_design.transistors if t.polarity == "p")
    det = sim._dispatch(TransistorStuckOpen(weight=1.0, transistors=(device,)))
    # The output may float but never flips against its retained value.
    assert det.strict is None


def test_gate_open_strict_requires_both_assumptions(c17_design, c17_sim):
    device = c17_design.transistors[0].name
    det = c17_sim._dispatch(TransistorGateOpen(weight=1.0, transistor=device))
    det_on = c17_sim._dispatch(TransistorStuckOn(weight=1.0, transistor=device))
    if det.strict is not None:
        assert det_on.strict is not None
        assert det.strict >= det_on.strict


def test_floating_input_strict_max_semantics(c17_design, c17_sim):
    gate = c17_design.mapped.gates[0]
    fault = FloatingNetFault(
        weight=1.0,
        net=gate.inputs[0],
        floating_inputs=((gate.name, gate.inputs[0]),),
    )
    det = c17_sim._dispatch(fault)
    # With 128 random vectors the pin-stuck faults of c17 are all found:
    assert det.strict is not None
    assert det.potential is not None
    assert det.potential <= det.strict


def test_floating_po_only_potential(c17_design, c17_sim):
    fault = FloatingNetFault(weight=1.0, net="G23", floats_output_port=True)
    det = c17_sim._dispatch(fault)
    assert det.strict is None
    assert det.potential == 1


def test_full_extraction_coverage_sane(c17_design, c17_sim):
    faults = extract_faults(c17_design)
    result = c17_sim.run(faults.faults)
    cov_pot = build_coverage(faults, result, "voltage")
    cov_strict = build_coverage(faults, result, "voltage-strict")
    cov_iddq = build_coverage(faults, result, "either")
    assert 0 < cov_strict.theta_max <= cov_pot.theta_max <= 1
    assert cov_pot.theta_max <= cov_iddq.theta_max + 1e-9
    # theta(k) monotone non-decreasing
    values = [cov_pot.theta_at(k) for k in range(1, result.n_patterns + 1)]
    assert values == sorted(values)
