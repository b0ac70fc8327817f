"""Test oracle for the redundancy prover: the uncertified FIRE-style screen.

:func:`find_untestable_faults` flags a stuck-at fault as untestable when a
necessary condition for detecting it is unsatisfiable (Iyer & Abramovici
1996), without writing a certificate:

* **activation** — ``net/sa-v`` needs the good value ``1-v``; if that
  literal's implication closure conflicts, the fault is untestable;
* **unobservable** — no primary output lies in the site's output cone;
* **observation-conflict** — the activation literal, the faulted gate's
  side pins and the dominator side inputs at their non-controlling values
  cannot hold together under direct implication.

It is what ``analyze_circuit`` ran before the certified prover became the
only static analysis.  The prover's ``fire`` phase must flag exactly its
faults, for the same reasons (``tests/test_analysis_prover.py``).  The
oracle shares only :class:`ImplicationEngine`'s closure and dominator
machinery with the prover, not its premise records, proof chains or
certificate checker.
"""

from __future__ import annotations

from repro.analysis.implication import (
    _NONCONTROLLING,
    ImplicationEngine,
    UntestabilityReport,
)
from repro.circuit.netlist import Circuit
from repro.simulation.faults import FaultSite, StuckAtFault, full_fault_universe


def find_untestable_faults(
    circuit: Circuit,
    faults: list[StuckAtFault] | None = None,
    engine: ImplicationEngine | None = None,
) -> UntestabilityReport:
    """Screen ``faults`` (default: the full universe) for provable untestability.

    Every returned fault carries a reason tag in ``reasons``; soundness is
    the contract — a flagged fault is undetectable by *any* input vector.
    """
    if faults is None:
        faults = full_fault_universe(circuit)
    if engine is None:
        engine = ImplicationEngine(circuit)

    report = UntestabilityReport(n_screened=len(faults))
    gate_by_name = {g.name: g for g in circuit.gates}

    def flag(fault: StuckAtFault, reason: str) -> None:
        report.untestable.append(fault)
        report.reasons[fault] = reason

    for fault in faults:
        # --- activation: the site must be drivable to the opposite value ---
        activation = (fault.net, 1 - fault.value)
        if engine.unit_closure(*activation) is None:
            flag(fault, "activation")
            continue

        # --- observation: dominator side inputs + own-gate side pins -------
        required: set[tuple[str, int]] = {activation}
        if fault.site is FaultSite.GATE_INPUT:
            assert fault.gate is not None and fault.pin is not None
            gate = gate_by_name[fault.gate]
            nc = _NONCONTROLLING.get(gate.gate_type)
            if nc is not None:
                for pin, side in enumerate(gate.inputs):
                    if pin != fault.pin:
                        required.add((side, nc))
            source = gate.output
        else:
            source = fault.net
        reachable, details = engine.observation_details(source)
        if not reachable:
            flag(fault, "unobservable")
            continue
        required |= {(side, nc) for _dom, side, nc in details}

        conflict = False
        merged: dict[str, int] = {}
        for literal in required:
            unit = engine.unit_closure(*literal)
            if unit is None:
                conflict = True
                break
            for net, value in unit.items():
                if merged.setdefault(net, value) != value:
                    conflict = True
                    break
            if conflict:
                break
        if not conflict and len(required) > 1:
            conflict = engine.closure(sorted(required)) is None
        if conflict:
            flag(fault, "observation-conflict")

    report.work = dict(engine.stats)
    return report
