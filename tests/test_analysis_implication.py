"""Tests for the implication engine, the prover's fire phase, and dominance.

The load-bearing property throughout: soundness.  Every fault the
redundancy prover's ``fire`` phase (direct implications) proves must be
undetectable by *any* vector (checked exhaustively where the input space
allows), and the dominance-collapsed universe must preserve detection — a
test set covering the survivors covers the dropped classes too.
"""

from itertools import product

import pytest

from repro.analysis import (
    ImplicationEngine,
    analyze_circuit,
    dominance_collapse,
    propagate_constants,
    prove_untestable,
)
from repro.circuit import Circuit, GateType, c17
from repro.circuit.iscas import BENCHMARKS
from repro.simulation.faults import collapse_faults, full_fault_universe
from repro.simulation.numpy_sim import NumpyFaultSimulator


def all_vectors(circuit: Circuit) -> list[list[int]]:
    n = len(circuit.primary_inputs)
    return [list(bits) for bits in product((0, 1), repeat=n)]


def fire_verdicts(circuit: Circuit) -> dict:
    """Fault -> reason tag for every fault the prover's fire phase proves."""
    result = prove_untestable(circuit)
    assert result.certs_failed == 0
    return {f: result.reasons[f] for f in result.proved if result.methods[f] == "fire"}


# ---------------------------------------------------------------------------
# Constant propagation
# ---------------------------------------------------------------------------
def test_tied_xor_is_constant_zero():
    ckt = Circuit(name="t")
    ckt.add_input("a")
    ckt.add_gate(GateType.XOR, ["a", "a"], "z")
    ckt.add_output("z")
    assert propagate_constants(ckt) == {"z": 0}


def test_complemented_and_is_constant_zero():
    ckt = Circuit(name="t")
    ckt.add_input("a")
    ckt.add_gate(GateType.NOT, ["a"], "na")
    ckt.add_gate(GateType.AND, ["a", "na"], "z")
    ckt.add_output("z")
    constants = propagate_constants(ckt)
    assert constants == {"z": 0}


def test_constants_propagate_forward():
    ckt = Circuit(name="t")
    ckt.add_input("a")
    ckt.add_input("b")
    ckt.add_gate(GateType.XNOR, ["a", "a"], "one")   # constant 1
    ckt.add_gate(GateType.OR, ["one", "b"], "z")     # forced 1 by 'one'
    ckt.add_output("z")
    assert propagate_constants(ckt) == {"one": 1, "z": 1}


def test_no_false_constants_on_builtins():
    # Spot-check: declared constants must hold on a vector sample.
    for name in ("c17", "alu4", "mul4"):
        circuit = BENCHMARKS[name]()
        assert propagate_constants(circuit) == {}, name


# ---------------------------------------------------------------------------
# Implication closure
# ---------------------------------------------------------------------------
def test_and_output_one_forces_all_inputs():
    ckt = Circuit(name="t")
    ckt.add_input("a")
    ckt.add_input("b")
    ckt.add_gate(GateType.AND, ["a", "b"], "z")
    ckt.add_output("z")
    closure = ImplicationEngine(ckt).closure([("z", 1)])
    assert closure == {"z": 1, "a": 1, "b": 1}


def test_last_free_input_justification():
    ckt = Circuit(name="t")
    ckt.add_input("a")
    ckt.add_input("b")
    ckt.add_gate(GateType.NOR, ["a", "b"], "z")
    ckt.add_output("z")
    # z = 0 with a = 0 leaves b as the only way to control the NOR: b = 1.
    closure = ImplicationEngine(ckt).closure([("z", 0), ("a", 0)])
    assert closure is not None and closure["b"] == 1


def test_xor_parity_completion():
    ckt = Circuit(name="t")
    ckt.add_input("a")
    ckt.add_input("b")
    ckt.add_gate(GateType.XOR, ["a", "b"], "z")
    ckt.add_output("z")
    closure = ImplicationEngine(ckt).closure([("z", 1), ("a", 1)])
    assert closure is not None and closure["b"] == 0


def test_contradiction_returns_none():
    ckt = Circuit(name="t")
    ckt.add_input("a")
    ckt.add_gate(GateType.NOT, ["a"], "z")
    ckt.add_output("z")
    engine = ImplicationEngine(ckt)
    assert engine.closure([("a", 1), ("z", 1)]) is None
    assert engine.closure([("a", 1), ("z", 0)]) is not None


def test_constant_net_not_justifiable_to_other_value():
    ckt = Circuit(name="t")
    ckt.add_input("a")
    ckt.add_gate(GateType.XOR, ["a", "a"], "z")
    ckt.add_output("z")
    engine = ImplicationEngine(ckt)
    assert engine.unit_closure("z", 1) is None
    assert engine.unit_closure("z", 0) is not None


def test_work_counters_accumulate():
    engine = ImplicationEngine(c17())
    engine.closure([("G22", 0)])
    assert engine.stats["closures"] == 1
    assert engine.stats["steps"] > 0


# ---------------------------------------------------------------------------
# The prover's fire phase: soundness
# ---------------------------------------------------------------------------
def test_tied_input_pin_faults_flagged_and_truly_untestable():
    ckt = Circuit(name="tied")
    ckt.add_input("a")
    ckt.add_input("b")
    ckt.add_gate(GateType.AND, ["a", "a"], "m")
    ckt.add_gate(GateType.OR, ["m", "b"], "z")
    ckt.add_output("z")
    flagged = set(fire_verdicts(ckt))
    # AND(a, a): forcing one pin to 1 while the tied sibling reads a = 0
    # never changes the output, so both pin s-a-1 faults are untestable.
    pin_sa1 = {f for f in full_fault_universe(ckt)
               if f.gate == "m" and f.value == 1}
    assert pin_sa1 <= flagged
    # Exhaustive confirmation: nothing flagged is ever detected.
    sim = NumpyFaultSimulator(ckt)
    detected = set(sim.run(all_vectors(ckt), faults=sorted(flagged, key=str)).detected)
    assert not detected


def test_unreachable_logic_faults_flagged():
    ckt = Circuit(name="island")
    ckt.add_input("a")
    ckt.add_input("b")
    ckt.add_gate(GateType.AND, ["a", "b"], "z")
    ckt.add_gate(GateType.NOT, ["a"], "n1")
    ckt.add_gate(GateType.NOT, ["n1"], "n2")
    ckt.add_output("z")
    reasons = {str(f): r for f, r in fire_verdicts(ckt).items()}
    assert reasons["n1/sa0"] == "unobservable"
    assert reasons["n2/sa1"] == "unobservable"


def test_constant_activation_conflict_flagged():
    ckt = Circuit(name="const")
    ckt.add_input("a")
    ckt.add_input("b")
    ckt.add_gate(GateType.XOR, ["a", "a"], "zero")
    ckt.add_gate(GateType.OR, ["zero", "b"], "z")
    ckt.add_output("z")
    result = prove_untestable(ckt)
    by_name = {str(f): r for f, r in result.reasons.items()}
    # 'zero' is constant 0: stuck-at-0 has no activating vector (the good
    # value can never be 1).  Stuck-at-1 is testable — the faulty value
    # always differs — and must NOT be proved by any phase.
    assert by_name.get("zero/sa0") == "activation"
    assert {str(f): m for f, m in result.methods.items()}["zero/sa0"] == "fire"
    assert "zero/sa1" not in by_name
    sim = NumpyFaultSimulator(ckt)
    detected = set(sim.run(all_vectors(ckt), faults=result.proved).detected)
    assert not detected


@pytest.mark.parametrize("name", ["c17", "rca8", "mux8", "dec4", "alu4", "mul4"])
def test_flagged_faults_never_detected_exhaustively(name):
    """Soundness on every built-in with an enumerable input space."""
    circuit = BENCHMARKS[name]()
    flagged = list(fire_verdicts(circuit))
    if not flagged:
        return
    assert len(circuit.primary_inputs) <= 17
    sim = NumpyFaultSimulator(circuit)
    result = sim.run(all_vectors(circuit), faults=flagged)
    assert result.detected == []


def test_c432_flagged_faults_survive_random_attack():
    """c432's input space is too wide to enumerate; attack with random

    vectors instead — any detection would disprove the untestability proof.
    """
    import random

    circuit = BENCHMARKS["c432_like"]()
    flagged = list(fire_verdicts(circuit))
    assert flagged, "the fire phase should find c432's redundant faults"
    rng = random.Random(99)
    n_pi = len(circuit.primary_inputs)
    vectors = [[rng.randint(0, 1) for _ in range(n_pi)] for _ in range(1024)]
    sim = NumpyFaultSimulator(circuit)
    assert sim.run(vectors, faults=flagged).detected == []


def test_screen_subset_of_universe():
    circuit = BENCHMARKS["alu4"]()
    universe = full_fault_universe(circuit)
    result = prove_untestable(circuit, universe)
    assert result.n_screened == len(universe)
    assert set(result.proved) <= set(universe)
    assert all(f in result for f in result.proved)


# ---------------------------------------------------------------------------
# Dominance collapsing
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_dominance_never_larger_than_equivalence(name):
    circuit = BENCHMARKS[name]()
    equivalence = collapse_faults(circuit)
    dominance = dominance_collapse(circuit)
    assert set(dominance.collapsed) <= set(equivalence)
    assert len(dominance.collapsed) + dominance.n_dropped == len(equivalence)
    # Order of survivors is preserved.
    surviving = set(dominance.collapsed)
    assert dominance.collapsed == [f for f in equivalence if f in surviving]


def test_dominance_rep_of_covers_whole_universe():
    circuit = c17()
    dominance = dominance_collapse(circuit)
    surviving = set(dominance.collapsed)
    for fault in full_fault_universe(circuit):
        assert dominance.rep_of[fault] in surviving


@pytest.mark.parametrize("name", ["c17", "alu4", "mul4"])
def test_dominance_detection_bit_exact_on_shared_faults(name):
    """Per-fault detection must not depend on which universe it sits in."""
    circuit = BENCHMARKS[name]()
    vectors = all_vectors(circuit) if len(circuit.primary_inputs) <= 12 else None
    if vectors is None:
        import random

        rng = random.Random(5)
        n = len(circuit.primary_inputs)
        vectors = [[rng.randint(0, 1) for _ in range(n)] for _ in range(128)]
    sim = NumpyFaultSimulator(circuit)
    eq_result = sim.run(vectors, faults=collapse_faults(circuit))
    dom = dominance_collapse(circuit)
    dom_result = sim.run(vectors, faults=dom.collapsed)
    for fault in dom.collapsed:
        assert (
            eq_result.first_detection.get(fault)
            == dom_result.first_detection.get(fault)
        ), fault


def test_dominance_drop_is_detection_preserving_on_c17():
    """A test set detecting every survivor detects every dropped class."""
    circuit = c17()
    vectors = all_vectors(circuit)
    sim = NumpyFaultSimulator(circuit)
    dom = dominance_collapse(circuit)
    survivor_result = sim.run(vectors, faults=dom.collapsed)
    assert survivor_result.undetected == []  # c17 has no redundancy
    # Build a compact test set: one first-detecting vector per survivor.
    compact = sorted({survivor_result.first_detection[f] for f in dom.collapsed})
    test_set = [vectors[k] for k in compact]
    dropped_result = sim.run(test_set, faults=list(dom.dropped))
    assert dropped_result.undetected == []


def test_dominance_drops_on_c17_are_the_nand_outputs():
    # c17 is all NANDs, so the droppable faults are out/sa0 of internal
    # gates.  G10/sa0 and G19/sa0 survive because equivalence already merged
    # them with PO stem faults (G22/sa1, G23/sa1); G11/sa0 and G16/sa0 are
    # singleton classes and get dropped.
    dom = dominance_collapse(c17())
    dropped_names = {str(f) for f in dom.dropped}
    assert dropped_names == {"G11/sa0", "G16/sa0"}


# ---------------------------------------------------------------------------
# analyze_circuit façade
# ---------------------------------------------------------------------------
def test_analyze_circuit_quick_skips_implications():
    result = analyze_circuit(c17(), quick=True)
    assert result.ok
    assert result.scoap is not None
    assert result.untestable is None
    assert result.prover is None
    assert result.untestable_faults() == []


def test_analyze_circuit_screen_filters_universe():
    circuit = BENCHMARKS["alu4"]()
    result = analyze_circuit(circuit)
    universe = full_fault_universe(circuit)
    screened = result.screen(universe)
    flagged = set(result.untestable_faults())
    assert len(screened) == len(universe) - len(flagged)
    assert not flagged & set(screened)


def test_analyze_circuit_on_broken_circuit_skips_downstream():
    ckt = Circuit(name="broken")
    ckt.add_input("a")
    ckt.add_gate(GateType.AND, ["a", "ghost"], "z")
    ckt.add_output("z")
    result = analyze_circuit(ckt)
    assert not result.ok
    assert result.scoap is None
    assert result.untestable is None
    assert result.prover is None


def test_analyze_to_dict_shape():
    payload = analyze_circuit(c17()).to_dict()
    assert payload["ok"] is True
    assert payload["lint"]["circuit"] == "c17"
    assert payload["untestable"]["n_untestable"] == 0
    assert payload["scoap"]["G10"] == {"cc0": 3, "cc1": 2, "co": 3}
