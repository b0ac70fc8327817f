"""Oracle for PODEM's event-driven implication.

The search keeps its good and faulty values, its D-frontier and its learned
pins current by propagating each decision over the changed fanout only and
undoing it from a trail.  The reference here is the full re-simulation the
search used before: every gate evaluated in both channels from the partial
primary-input assignment, the D-frontier read off the whole netlist, and the
learned pins closed from every definite good value.  A checked search
compares the two after every decision and every undo.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.prover import static_learning
from repro.atpg.podem import AtpgStatus, PodemAtpg, _Implication
from repro.circuit import GateType
from repro.simulation import NumpyFaultSimulator
from repro.simulation.faults import FaultSite, StuckAtFault, collapse_faults
from tests.strategies import small_circuits

X = 2


def _eval3(gate_type: GateType, values: list[int]) -> int:
    if gate_type in (GateType.AND, GateType.NAND):
        core = 0 if 0 in values else X if X in values else 1
        return _inv(core) if gate_type is GateType.NAND else core
    if gate_type in (GateType.OR, GateType.NOR):
        core = 1 if 1 in values else X if X in values else 0
        return _inv(core) if gate_type is GateType.NOR else core
    if gate_type in (GateType.XOR, GateType.XNOR):
        if X in values:
            return X
        core = 0
        for v in values:
            core ^= v
        return _inv(core) if gate_type is GateType.XNOR else core
    if gate_type is GateType.NOT:
        return _inv(values[0])
    return values[0]


def _inv(value: int) -> int:
    return X if value == X else 1 - value


def full_imply(atpg, fault, assignment):
    """Good and faulty values of every net, simulated from scratch."""
    good: dict[str, int] = {}
    faulty: dict[str, int] = {}
    for pi in atpg.circuit.primary_inputs:
        good[pi] = faulty[pi] = assignment.get(pi, X)
    if fault.site is FaultSite.NET and fault.net in faulty:
        faulty[fault.net] = fault.value
    for gate in atpg.order:
        good[gate.output] = _eval3(gate.gate_type, [good[n] for n in gate.inputs])
        f_ops = [
            fault.value
            if fault.site is FaultSite.GATE_INPUT
            and gate.name == fault.gate
            and pin == fault.pin
            else faulty[net]
            for pin, net in enumerate(gate.inputs)
        ]
        out_f = _eval3(gate.gate_type, f_ops)
        if fault.site is FaultSite.NET and gate.output == fault.net:
            out_f = fault.value
        faulty[gate.output] = out_f
    return good, faulty


def full_d_frontier(atpg, fault, good, faulty) -> list[str]:
    """Outputs of the D-frontier gates, in topological order."""
    frontier = []
    for gate in atpg.order:
        if good[gate.output] != X and faulty[gate.output] != X:
            continue
        has_d = any(
            good[n] != X and faulty[n] != X and good[n] != faulty[n]
            for n in gate.inputs
        )
        if (
            fault.site is FaultSite.GATE_INPUT
            and gate.name == fault.gate
            and good[fault.net] == 1 - fault.value
        ):
            has_d = True
        if has_d:
            frontier.append(gate.output)
    return frontier


def full_learned_pins(atpg, good) -> dict[str, int]:
    """Good values closed under learned implications and forward evaluation."""
    fanout = atpg.circuit.fanout_map()
    pins = dict(good)
    stack = [(n, v) for n, v in pins.items() if v != X]
    while stack:
        net, value = stack.pop()
        for c_net, c_value in atpg.learned.get((net, value), ()):
            if pins[c_net] == X:
                pins[c_net] = c_value
                stack.append((c_net, c_value))
        for gate in fanout.get(net, []):
            if pins[gate.output] != X:
                continue
            out = _eval3(gate.gate_type, [pins[n] for n in gate.inputs])
            if out != X:
                pins[gate.output] = out
                stack.append((gate.output, out))
    return pins


class CheckedImplication(_Implication):
    """The search's implication state, checked against the full reference."""

    def __init__(self, atpg, fault):
        super().__init__(atpg, fault)
        self.fault = fault
        self.checks = 0
        self.check()

    def decide(self, pi, value):
        super().decide(pi, value)
        self.check()

    def undo(self):
        super().undo()
        self.check()

    def check(self):
        atpg = self.atpg
        names = atpg.nets
        assignment = {names[pi]: v for pi, v in self.assignment.items()}
        good, faulty = full_imply(atpg, self.fault, assignment)
        assert dict(zip(names, self.good)) == good
        assert dict(zip(names, self.faulty)) == faulty
        assert [names[g] for g in self.d_frontier()] == full_d_frontier(
            atpg, self.fault, good, faulty
        )
        if self.pins is not None:
            assert dict(zip(names, self.pins)) == full_learned_pins(atpg, good)
        self.checks += 1


class CheckedPodem(PodemAtpg):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.states: list[CheckedImplication] = []

    def _implication(self, fault):
        state = CheckedImplication(self, fault)
        self.states.append(state)
        return state


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    ckt=small_circuits(max_inputs=6, max_gates=14),
    use_learned=st.booleans(),
    limit=st.sampled_from([0, 1, 3, 2000]),
)
def test_event_driven_implication_matches_full_simulation(ckt, use_learned, limit):
    learned = static_learning(ckt) if use_learned else None
    atpg = CheckedPodem(ckt, backtrack_limit=limit, learned=learned)
    sim = NumpyFaultSimulator(ckt)
    for fault in collapse_faults(ckt):
        outcome = atpg.generate(fault)
        assert atpg.states[-1].checks >= 1
        if outcome.status == AtpgStatus.TESTED:
            assert fault in sim.run([outcome.pattern], faults=[fault]).first_detection


def test_checked_search_on_c432_backtracking_faults(c432_circuit):
    # The LA/LB/LC bus faults backtrack and hit learned conflicts, so the
    # check runs across undos with pins in play.
    atpg = CheckedPodem(
        c432_circuit, backtrack_limit=300, learned=static_learning(c432_circuit)
    )
    backtracks = 0
    for fault in [StuckAtFault(f"L{g}{i}", 0) for g in "ABC" for i in (0, 4)]:
        backtracks += atpg.generate(fault).backtracks
    assert backtracks > 0 and atpg.learned_conflicts > 0
    assert sum(state.checks for state in atpg.states) > 2 * len(atpg.states)
