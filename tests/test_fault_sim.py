"""Unit tests for the python stuck-at oracle against brute-force simulation."""

import random


from repro.circuit import Circuit, GateType
from repro.simulation import (
    FaultSite,
    LogicSimulator,
    StuckAtFault,
    collapse_faults,
    full_fault_universe,
)
from tests.fault_sim_oracle import FaultSimulator


def brute_force_detects(circuit: Circuit, fault: StuckAtFault, vec: list[int]) -> bool:
    """Reference detection via two independent full simulations."""
    sim = LogicSimulator(circuit)
    good = sim.simulate(vec)

    faulty_circuit_values = dict(
        zip(circuit.primary_inputs, vec)
    )
    if fault.site is FaultSite.NET and fault.net in faulty_circuit_values:
        faulty_circuit_values[fault.net] = fault.value
    from repro.circuit.levelize import levelize
    from repro.circuit.library import evaluate_gate

    for gate in levelize(circuit):
        operands = []
        for pin, net in enumerate(gate.inputs):
            if (
                fault.site is FaultSite.GATE_INPUT
                and gate.name == fault.gate
                and pin == fault.pin
            ):
                operands.append(fault.value)
            else:
                operands.append(faulty_circuit_values[net])
        value = evaluate_gate(gate.gate_type, operands)
        if fault.site is FaultSite.NET and gate.output == fault.net:
            value = fault.value
        faulty_circuit_values[gate.output] = value

    return any(
        faulty_circuit_values[po] != good[po] for po in circuit.primary_outputs
    )


def test_detection_matches_brute_force_c17(c17_circuit):
    sim = FaultSimulator(c17_circuit)
    rng = random.Random(3)
    universe = full_fault_universe(c17_circuit)
    for _ in range(40):
        vec = [rng.randint(0, 1) for _ in range(5)]
        for fault in universe:
            assert sim.detects(fault, vec) == brute_force_detects(
                c17_circuit, fault, vec
            ), f"{fault} @ {vec}"


def test_first_detection_indices(c17_circuit):
    sim = FaultSimulator(c17_circuit)
    patterns = [[0, 0, 0, 0, 0], [1, 1, 1, 1, 1], [1, 0, 1, 0, 1]]
    result = sim.run(patterns)
    for fault, k in result.first_detection.items():
        assert 1 <= k <= 3
        assert sim.detects(fault, patterns[k - 1])
        for earlier in range(k - 1):
            assert not sim.detects(fault, patterns[earlier])


def test_drop_detected_equivalent_results(c17_circuit):
    sim = FaultSimulator(c17_circuit)
    rng = random.Random(9)
    patterns = [[rng.randint(0, 1) for _ in range(5)] for _ in range(50)]
    with_drop = sim.run(patterns, drop_detected=True)
    without_drop = sim.run(patterns, drop_detected=False)
    assert with_drop.first_detection == without_drop.first_detection


def test_coverage_curve_monotone(c17_circuit):
    sim = FaultSimulator(c17_circuit)
    rng = random.Random(11)
    patterns = [[rng.randint(0, 1) for _ in range(5)] for _ in range(64)]
    result = sim.run(patterns, faults=collapse_faults(c17_circuit))
    curve = result.coverage_curve()
    values = [cov for _, cov in curve]
    assert values == sorted(values)
    assert result.coverage == result.coverage_at(result.n_patterns)


def test_coverage_curve_matches_per_k_recount(c17_circuit):
    """The single-pass curve equals the old per-k O(F*K) recount."""
    sim = FaultSimulator(c17_circuit)
    rng = random.Random(17)
    patterns = [[rng.randint(0, 1) for _ in range(5)] for _ in range(96)]
    result = sim.run(patterns, faults=collapse_faults(c17_circuit))
    reference = [
        (k, result.coverage_at(k))
        for k in sorted(set(result.first_detection.values()))
    ]
    assert result.coverage_curve() == reference


def test_coverage_curve_empty_universe():
    ckt = Circuit(name="empty_curve")
    ckt.add_input("a")
    ckt.add_gate(GateType.BUF, ["a"], "z")
    ckt.add_output("z")
    sim = FaultSimulator(ckt)
    result = sim.run([[0], [1]], faults=[])
    assert result.coverage_curve() == []
    assert result.coverage == 1.0


def test_full_coverage_c17(c17_circuit):
    """c17 is fully testable; enough random vectors reach 100 %."""
    sim = FaultSimulator(c17_circuit)
    rng = random.Random(1)
    patterns = [[rng.randint(0, 1) for _ in range(5)] for _ in range(200)]
    result = sim.run(patterns, faults=collapse_faults(c17_circuit))
    assert result.coverage == 1.0
    assert result.undetected == []


def test_redundant_fault_never_detected():
    # z = OR(a, AND(a, b)) -- the AND gate is functionally redundant, and
    # m/sa0 cannot be observed.
    ckt = Circuit(name="red")
    ckt.add_input("a")
    ckt.add_input("b")
    ckt.add_gate(GateType.AND, ["a", "b"], "m")
    ckt.add_gate(GateType.OR, ["a", "m"], "z")
    ckt.add_output("z")
    sim = FaultSimulator(ckt)
    fault = StuckAtFault("m", 0)
    for code in range(4):
        vec = [code & 1, (code >> 1) & 1]
        assert not sim.detects(fault, vec)


def test_multi_force_detection_matches_singles(c17_circuit):
    """detection_word_multi on one fault equals detection_word."""
    sim = FaultSimulator(c17_circuit)
    from repro.simulation.logic_sim import pack_patterns

    rng = random.Random(21)
    patterns = [[rng.randint(0, 1) for _ in range(5)] for _ in range(64)]
    words = pack_patterns(patterns, 5)[0]
    good = sim.logic.simulate_packed(words)
    for fault in full_fault_universe(c17_circuit):
        single = sim.detection_word(fault, good)
        multi = sim.detection_word_multi([fault], good)
        assert single == multi


def test_multi_force_two_pins(c17_circuit):
    """Forcing both branch pins of a stem equals the stem fault."""
    sim = FaultSimulator(c17_circuit)
    from repro.simulation.logic_sim import pack_patterns

    rng = random.Random(22)
    patterns = [[rng.randint(0, 1) for _ in range(5)] for _ in range(64)]
    words = pack_patterns(patterns, 5)[0]
    good = sim.logic.simulate_packed(words)

    # Net G11 branches into G16 and G19.
    stem = StuckAtFault("G11", 0)
    pins = [
        StuckAtFault("G11", 0, FaultSite.GATE_INPUT, "G16", 1),
        StuckAtFault("G11", 0, FaultSite.GATE_INPUT, "G19", 0),
    ]
    assert sim.detection_word_multi(pins, good) == sim.detection_word(stem, good)
