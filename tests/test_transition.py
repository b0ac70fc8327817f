"""Unit tests for the transition (gate-delay) fault model."""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, GateType, c17
from repro.circuit.levelize import levelize
from repro.circuit.library import evaluate_gate
from repro.simulation import LogicSimulator
from repro.simulation.transition import (
    TransitionFault,
    TransitionFaultSimulator,
    transition_universe,
)
from tests.strategies import small_circuits


def test_universe_size(c17_circuit):
    universe = transition_universe(c17_circuit)
    assert len(universe) == 2 * len(c17_circuit.nets)
    assert len(set(universe)) == len(universe)


def test_slow_to_validation():
    with pytest.raises(ValueError):
        TransitionFault("n", 2)
    assert str(TransitionFault("n", 1)) == "n/STR"
    assert str(TransitionFault("n", 0)) == "n/STF"


def _buffer_chain():
    ckt = Circuit(name="buf")
    ckt.add_input("a")
    ckt.add_gate(GateType.BUF, ["a"], "z")
    ckt.add_output("z")
    return ckt


def test_known_pair_detection():
    ckt = _buffer_chain()
    sim = TransitionFaultSimulator(ckt)
    str_fault = TransitionFault("a", 1)
    stf_fault = TransitionFault("a", 0)

    # 0 -> 1 on vector 2 launches and detects the slow-to-rise.
    result = sim.run([[0], [1], [0]], faults=[str_fault, stf_fault])
    assert result.first_detection[str_fault] == 2
    # 1 -> 0 on vector 3 detects the slow-to-fall.
    assert result.first_detection[stf_fault] == 3


def test_first_vector_never_detects():
    ckt = _buffer_chain()
    sim = TransitionFaultSimulator(ckt)
    result = sim.run([[1]], faults=[TransitionFault("a", 1)])
    assert not result.first_detection


def test_constant_sequence_detects_nothing():
    ckt = _buffer_chain()
    sim = TransitionFaultSimulator(ckt)
    result = sim.run([[1]] * 20)
    assert not result.first_detection


def test_group_boundary_pairs():
    """Launch/capture pairs straddling the 64-pattern word boundary work."""
    ckt = _buffer_chain()
    sim = TransitionFaultSimulator(ckt)
    patterns = [[0]] * 64 + [[1]] + [[0]] * 5
    result = sim.run(patterns, faults=[TransitionFault("a", 1)])
    assert result.first_detection[TransitionFault("a", 1)] == 65


def test_coverage_on_c17(c17_circuit):
    from repro.atpg import random_patterns

    sim = TransitionFaultSimulator(c17_circuit)
    result = sim.run(random_patterns(5, 300, seed=6))
    # Transition coverage grows but is slower than stuck-at coverage.
    assert 0.8 <= result.coverage <= 1.0
    assert result.coverage_at(10) <= result.coverage_at(100) <= result.coverage


def test_transition_detection_cross_checked(c17_circuit):
    """Each reported detection satisfies the launch+capture definition."""
    from repro.atpg import random_patterns

    patterns = random_patterns(5, 100, seed=8)
    sim = TransitionFaultSimulator(c17_circuit)
    logic = LogicSimulator(c17_circuit)
    result = sim.run(patterns)
    for fault, k in result.first_detection.items():
        assert k >= 2
        before = logic.simulate(patterns[k - 2])[fault.net]
        after = logic.simulate(patterns[k - 1])[fault.net]
        assert before == 1 - fault.slow_to
        assert after == fault.slow_to
        assert _scalar_detects(
            c17_circuit, fault.net, 1 - fault.slow_to, patterns[k - 1]
        )


def _scalar_detects(circuit, net, value, vector) -> bool:
    """Does ``net`` stuck-at ``value`` flip an output on ``vector``?

    Scalar reference: one gate at a time in level order, the stuck net
    overwritten wherever it is produced.
    """
    good = dict(zip(circuit.primary_inputs, vector))
    faulty = dict(good)
    if net in faulty:
        faulty[net] = value
    for gate in levelize(circuit):
        good[gate.output] = evaluate_gate(
            gate.gate_type, [good[n] for n in gate.inputs]
        )
        faulty[gate.output] = (
            value
            if gate.output == net
            else evaluate_gate(gate.gate_type, [faulty[n] for n in gate.inputs])
        )
    return any(good[po] != faulty[po] for po in circuit.primary_outputs)


def _brute_force_first_detections(circuit, patterns) -> dict:
    """Every transition fault's first capture vector, pair by pair."""
    logic = LogicSimulator(circuit)
    values = [logic.simulate(vector) for vector in patterns]
    first = {}
    for fault in transition_universe(circuit):
        for k in range(1, len(patterns)):
            launched = (
                values[k - 1][fault.net] == 1 - fault.slow_to
                and values[k][fault.net] == fault.slow_to
            )
            if launched and _scalar_detects(
                circuit, fault.net, 1 - fault.slow_to, patterns[k]
            ):
                first[fault] = k + 1
                break
    return first


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    ckt=small_circuits(),
    quiet=st.sampled_from([0, 1, 63, 64, 65, 1023, 1024]),
    n_tail=st.integers(0, 140),
    seed=st.integers(0, 2**16),
)
@example(ckt=c17(), quiet=64, n_tail=70, seed=1)
@example(ckt=c17(), quiet=1024, n_tail=70, seed=2)
def test_first_detections_match_brute_force(ckt, quiet, n_tail, seed):
    """The exact first-detection map, against every consecutive pair.

    A constant prefix of ``quiet`` vectors launches nothing, so the first
    launches come from the pair that ends it: at ``quiet`` 64 that pair
    straddles the first 64-vector word boundary, at 1024 the first
    1024-vector block boundary.
    """
    rng = random.Random(seed)
    n_inputs = len(ckt.primary_inputs)
    patterns = [[rng.randint(0, 1) for _ in range(n_inputs)]] * quiet
    patterns += [
        [rng.randint(0, 1) for _ in range(n_inputs)] for _ in range(n_tail)
    ]
    result = TransitionFaultSimulator(ckt).run(patterns)
    assert result.first_detection == _brute_force_first_detections(ckt, patterns)
