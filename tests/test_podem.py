"""Unit tests for PODEM deterministic ATPG."""


from repro.circuit import Circuit, GateType
from repro.simulation import NumpyFaultSimulator, StuckAtFault, collapse_faults
from repro.atpg import (
    AtpgStatus,
    PodemAtpg,
    generate_deterministic_tests,
    scoap_controllability,
)


def detects(sim, fault, vector) -> bool:
    return fault in sim.run([vector], faults=[fault]).first_detection


def test_podem_covers_c17(c17_circuit):
    atpg = PodemAtpg(c17_circuit)
    sim = NumpyFaultSimulator(c17_circuit)
    for fault in collapse_faults(c17_circuit):
        outcome = atpg.generate(fault)
        assert outcome.status == AtpgStatus.TESTED, str(fault)
        assert detects(sim, fault, outcome.pattern), str(fault)


def test_podem_covers_adder(rca4_circuit):
    atpg = PodemAtpg(rca4_circuit)
    sim = NumpyFaultSimulator(rca4_circuit)
    for fault in collapse_faults(rca4_circuit):
        outcome = atpg.generate(fault)
        assert outcome.status == AtpgStatus.TESTED, str(fault)
        assert detects(sim, fault, outcome.pattern), str(fault)


def test_podem_proves_redundancy():
    # m/sa0 in z = OR(a, AND(a, b)) is undetectable.
    ckt = Circuit(name="red")
    ckt.add_input("a")
    ckt.add_input("b")
    ckt.add_gate(GateType.AND, ["a", "b"], "m")
    ckt.add_gate(GateType.OR, ["a", "m"], "z")
    ckt.add_output("z")
    atpg = PodemAtpg(ckt)
    outcome = atpg.generate(StuckAtFault("m", 0))
    assert outcome.status == AtpgStatus.REDUNDANT


def test_podem_redundancy_claims_sound(c432_circuit):
    """Spot-check: faults PODEM calls redundant resist heavy random testing."""
    import random

    atpg = PodemAtpg(c432_circuit, backtrack_limit=300)
    sim = NumpyFaultSimulator(c432_circuit)
    redundant = []
    for fault in collapse_faults(c432_circuit):
        outcome = atpg.generate(fault)
        if outcome.status == AtpgStatus.REDUNDANT:
            redundant.append(fault)
        if len(redundant) >= 5:
            break
    rng = random.Random(77)
    patterns = [
        [rng.randint(0, 1) for _ in range(36)] for _ in range(2000)
    ]
    result = sim.run(patterns, faults=redundant)
    assert not result.first_detection


def test_backtrack_limit_aborts():
    # A wide parity cone makes PODEM work hard; a tiny limit must abort
    # rather than hang (aborted or tested, never an infinite loop).
    from repro.circuit import parity_tree

    ckt = parity_tree(12)
    atpg = PodemAtpg(ckt, backtrack_limit=1)
    outcome = atpg.generate(StuckAtFault("PAR", 0))
    assert outcome.status in (AtpgStatus.TESTED, AtpgStatus.ABORTED)


def test_deterministic_flow_drops_faults(c17_circuit):
    faults = collapse_faults(c17_circuit)
    result = generate_deterministic_tests(c17_circuit, faults)
    assert not result.redundant
    assert not result.aborted
    assert set(result.tested) == set(faults)
    # Fault dropping keeps the vector count below one-per-fault.
    assert len(result.test_set) < len(faults)
    sim = NumpyFaultSimulator(c17_circuit)
    check = sim.run(result.test_set.patterns, faults=faults)
    assert check.coverage == 1.0


def test_scoap_controllability_basics(c17_circuit):
    cc = scoap_controllability(c17_circuit)
    for pi in c17_circuit.primary_inputs:
        assert cc[pi] == (1, 1)
    for gate in c17_circuit.gates:
        cc0, cc1 = cc[gate.output]
        assert cc0 >= 2 and cc1 >= 2  # strictly deeper than a PI


def test_scoap_nand_asymmetry():
    ckt = Circuit(name="nand4")
    for name in "abcd":
        ckt.add_input(name)
    ckt.add_gate(GateType.NAND, list("abcd"), "z")
    ckt.add_output("z")
    cc0, cc1 = scoap_controllability(ckt)["z"]
    # Output 0 needs ALL inputs high (expensive); output 1 needs one low.
    assert cc0 > cc1


def test_learned_implications_cut_backtracks_on_c432(c432_circuit):
    # The prover's static learned base hands PODEM contrapositive
    # implications; on the c432 LA/LB/LC bus faults every search closes in
    # one backtrack instead of two, with the saving visible in the
    # learned-conflict counter.  Outcomes (and pattern validity) must be
    # identical with and without the learned base.
    from repro.analysis.prover import static_learning

    learned = static_learning(c432_circuit)
    faults = [
        StuckAtFault(f"{group}{i}", 0)
        for group in ("LA", "LB", "LC")
        for i in range(9)
    ]
    plain = PodemAtpg(c432_circuit, backtrack_limit=300)
    smart = PodemAtpg(c432_circuit, backtrack_limit=300, learned=learned)
    sim = NumpyFaultSimulator(c432_circuit)
    total_plain = total_smart = 0
    for fault in faults:
        a = plain.generate(fault)
        b = smart.generate(fault)
        assert a.status == b.status, str(fault)
        assert b.backtracks <= a.backtracks, str(fault)
        total_plain += a.backtracks
        total_smart += b.backtracks
        if b.status == AtpgStatus.TESTED:
            assert detects(sim, fault, b.pattern), str(fault)
    assert total_smart < total_plain
    assert smart.learned_conflicts > 0
    assert plain.learned_conflicts == plain.learned_prunes == 0


def test_learned_implications_preserve_outcomes(c17_circuit):
    from repro.analysis.prover import static_learning

    learned = static_learning(c17_circuit)
    plain = PodemAtpg(c17_circuit)
    smart = PodemAtpg(c17_circuit, learned=learned)
    sim = NumpyFaultSimulator(c17_circuit)
    for fault in collapse_faults(c17_circuit):
        a = plain.generate(fault)
        b = smart.generate(fault)
        assert a.status == b.status == AtpgStatus.TESTED, str(fault)
        assert detects(sim, fault, b.pattern), str(fault)


def test_deterministic_flow_reports_learned_stats(c432_circuit):
    from repro.analysis.prover import static_learning

    learned = static_learning(c432_circuit)
    faults = [
        StuckAtFault(f"{group}{i}", 0)
        for group in ("LA", "LB", "LC")
        for i in range(9)
    ]
    without = generate_deterministic_tests(
        c432_circuit, faults, backtrack_limit=300
    )
    with_learned = generate_deterministic_tests(
        c432_circuit, faults, backtrack_limit=300, learned=learned
    )
    assert without.learned_conflicts == without.learned_prunes == 0
    assert with_learned.backtracks <= without.backtracks
    # Fault dropping retires most targets before PODEM sees them, but the
    # searches that do run report their learned-implication effects.
    assert with_learned.learned_conflicts >= 0
    assert set(with_learned.tested) == set(without.tested)
