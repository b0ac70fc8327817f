"""Unit tests for fault dictionaries and syndrome diagnosis."""

import pytest

from repro.atpg import random_patterns
from repro.circuit.levelize import levelize
from repro.circuit.library import evaluate_gate
from repro.diagnosis import FaultDictionary, Syndrome
from repro.simulation import StuckAtFault, collapse_faults
from repro.simulation.faults import FaultSite


@pytest.fixture(scope="module")
def dictionary(c17_circuit):
    patterns = random_patterns(5, 48, seed=23)
    return FaultDictionary.build(c17_circuit, patterns)


def _faulty_responses(circuit, patterns, fault):
    """Reference faulty machine responses, scalar simulation."""
    rows = []
    order = levelize(circuit)
    for vec in patterns:
        values = dict(zip(circuit.primary_inputs, vec))
        if fault.site is FaultSite.NET and fault.net in values:
            values[fault.net] = fault.value
        for gate in order:
            operands = []
            for pin, net in enumerate(gate.inputs):
                if (
                    fault.site is FaultSite.GATE_INPUT
                    and gate.name == fault.gate
                    and pin == fault.pin
                ):
                    operands.append(fault.value)
                else:
                    operands.append(values[net])
            value = evaluate_gate(gate.gate_type, operands)
            if fault.site is FaultSite.NET and gate.output == fault.net:
                value = fault.value
            values[gate.output] = value
        rows.append([values[po] for po in circuit.primary_outputs])
    return rows


def test_self_diagnosis_top1(dictionary, c17_circuit):
    """Every modelled fault's own syndrome diagnoses back to itself (or an
    indistinguishable equivalent with an identical syndrome)."""
    for fault in dictionary.faults:
        syndrome = dictionary.syndrome_of(fault)
        if not syndrome.failures:
            continue  # undetected by this sequence: nothing to match
        best = dictionary.diagnose(syndrome, top=1)[0]
        assert best.score == 1.0
        assert dictionary.syndrome_of(best.fault).failures == syndrome.failures


def test_observe_matches_simulated_syndrome(dictionary, c17_circuit):
    fault = StuckAtFault("G10", 1)
    responses = _faulty_responses(c17_circuit, dictionary.patterns, fault)
    observed = dictionary.observe(responses)
    assert observed.failures == dictionary.syndrome_of(fault).failures


def test_every_syndrome_matches_scalar_reference(c17_circuit):
    """All collapsed faults, over a sequence that spans three 64-bit words."""
    patterns = random_patterns(5, 150, seed=31)
    dictionary = FaultDictionary.build(c17_circuit, patterns)
    assert dictionary.faults == collapse_faults(c17_circuit)
    for fault in dictionary.faults:
        responses = _faulty_responses(c17_circuit, patterns, fault)
        expected = dictionary.observe(responses).failures
        assert dictionary.syndrome_of(fault).failures == expected, str(fault)
    assert any(
        k > 128 for fault in dictionary.faults
        for k in dictionary.syndrome_of(fault).failing_vectors
    )


def test_observe_length_check(dictionary):
    with pytest.raises(ValueError):
        dictionary.observe([[0, 0]])


def test_good_machine_gives_empty_syndrome(dictionary, c17_circuit):
    from repro.simulation import LogicSimulator

    logic = LogicSimulator(c17_circuit)
    responses = logic.run_patterns(dictionary.patterns)
    observed = dictionary.observe(responses)
    assert len(observed) == 0


def test_jaccard_properties():
    a = Syndrome(frozenset({(1, 0), (2, 1)}))
    b = Syndrome(frozenset({(1, 0)}))
    empty = Syndrome(frozenset())
    assert a.jaccard(a) == 1.0
    assert a.jaccard(b) == pytest.approx(0.5)
    assert empty.jaccard(empty) == 1.0
    assert a.jaccard(empty) == 0.0
    assert a.failing_vectors == {1, 2}


def test_diagnose_ranks_related_faults_high(dictionary, c17_circuit):
    """A corrupted syndrome (one failure dropped) still finds the culprit."""
    fault = StuckAtFault("G16", 0)
    syndrome = dictionary.syndrome_of(fault)
    if len(syndrome) < 2:
        pytest.skip("syndrome too small to corrupt")
    corrupted = Syndrome(frozenset(list(syndrome.failures)[1:]))
    top = dictionary.diagnose(corrupted, top=3)
    assert any(
        dictionary.syndrome_of(m.fault).failures == syndrome.failures for m in top
    )
