"""Unit tests for the stuck-at universe and equivalence collapsing."""


import pytest

from repro.circuit import Circuit, GateType, c17
from repro.simulation import (
    FaultSite,
    NumpyFaultSimulator,
    StuckAtFault,
    collapse_faults,
    full_fault_universe,
    pack_bitslice,
)


def test_universe_counts_c17(c17_circuit):
    universe = full_fault_universe(c17_circuit)
    # 11 nets x 2 stem faults, plus pin faults on fanout branches:
    # G1..G7, G10, G11, G16, G19, G22, G23 = 11 nets; G3, G11 and G16 fan
    # out to 2 pins each -> 2 nets... count directly instead:
    stems = [f for f in universe if f.site is FaultSite.NET]
    pins = [f for f in universe if f.site is FaultSite.GATE_INPUT]
    assert len(stems) == 2 * 11
    assert len(pins) % 2 == 0
    assert len(universe) == len(set(universe))


def test_collapsed_count_c17(c17_circuit):
    # The classic result: c17 collapses to 22 equivalence classes.
    assert len(collapse_faults(c17_circuit)) == 22


def test_stuck_value_validation():
    with pytest.raises(ValueError):
        StuckAtFault("n", 2)
    with pytest.raises(ValueError):
        StuckAtFault("n", 0, FaultSite.GATE_INPUT)  # missing gate/pin


def test_fault_str():
    assert str(StuckAtFault("a", 1)) == "a/sa1"
    pin = StuckAtFault("a", 0, FaultSite.GATE_INPUT, "g", 2)
    assert str(pin) == "g.in2(a)/sa0"


def _detection_signature(circuit: Circuit, fault: StuckAtFault) -> tuple:
    """Exhaustive detection signature of a fault (small circuits only)."""
    sim = NumpyFaultSimulator(circuit)
    n = len(circuit.primary_inputs)
    vectors = [[(code >> i) & 1 for i in range(n)] for code in range(2**n)]
    good = sim.good_block(pack_bitslice(vectors, n))
    (words,) = sim.detection_words(good, len(vectors), [(fault,)])
    return tuple(words.tolist())


@pytest.mark.parametrize(
    "builder",
    [
        lambda: c17(),
        lambda: _tiny_tree(),
    ],
)
def test_collapsing_preserves_detection_semantics(builder):
    """Every collapsed-away fault must share its representative's detection set."""
    circuit = builder()
    universe = full_fault_universe(circuit)
    collapsed = collapse_faults(circuit)
    collapsed_set = set(collapsed)

    signatures = {f: _detection_signature(circuit, f) for f in universe}
    collapsed_signatures = {signatures[f] for f in collapsed}
    # Each fault's signature must appear among the representatives.
    for fault, sig in signatures.items():
        assert sig in collapsed_signatures, f"{fault} lost by collapsing"
    assert len(collapsed_set) < len(universe)


def _tiny_tree() -> Circuit:
    ckt = Circuit(name="tiny")
    for net in ("a", "b", "c"):
        ckt.add_input(net)
    ckt.add_gate(GateType.AND, ["a", "b"], "d")
    ckt.add_gate(GateType.NOR, ["d", "c"], "e")
    ckt.add_gate(GateType.NOT, ["e"], "f")
    ckt.add_output("f")
    return ckt


def test_collapse_all_classes_detectable_somewhere():
    """For an irredundant circuit, every representative is detectable."""
    circuit = _tiny_tree()
    sim = NumpyFaultSimulator(circuit)
    n = len(circuit.primary_inputs)
    vectors = [[(code >> i) & 1 for i in range(n)] for code in range(2**n)]
    faults = collapse_faults(circuit)
    result = sim.run(vectors, faults=faults)
    for fault in faults:
        assert fault in result.first_detection, f"{fault} undetectable"


def test_po_stem_faults_kept():
    """A net that is a PO must keep its own stem fault despite masking gates."""
    ckt = Circuit(name="po")
    ckt.add_input("a")
    ckt.add_input("b")
    ckt.add_gate(GateType.AND, ["a", "b"], "m")
    ckt.add_gate(GateType.AND, ["m", "b"], "z")
    ckt.add_output("m")  # m observable directly
    ckt.add_output("z")
    collapsed = collapse_faults(ckt)
    # m/sa0 must survive as its own class or as representative: a/sa0 is NOT
    # equivalent to m/sa0 here only through the AND; but since m is a PO,
    # they are distinguishable... verify semantics with signatures.
    for fault in full_fault_universe(ckt):
        sig = _detection_signature(ckt, fault)
        reps = {f: _detection_signature(ckt, f) for f in collapsed}
        assert sig in reps.values()
