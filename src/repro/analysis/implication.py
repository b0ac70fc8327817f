"""Static implication engine: constants, implication closure, dominators.

The machinery the redundancy prover (:mod:`repro.analysis.prover`) builds
its FIRE-style proofs on (Iyer & Abramovici 1996): a stuck-at fault is
untestable when a *necessary condition* for detecting it is unsatisfiable.

* :func:`propagate_constants` finds nets that are constant under every
  input assignment; detecting ``net/sa-v`` needs the good value ``1-v``, so
  a net constant at ``v`` cannot be activated.
* :meth:`ImplicationEngine.closure` asserts net/value literals and closes
  every *sound* direct implication, reporting a contradiction as ``None``.
* :meth:`ImplicationEngine.observation_details` lists the side inputs of
  the dominator gates every path from a net to a primary output passes
  through; each must carry its gate's non-controlling value for a change
  on the net to be observed.  A net with no path to a primary output is
  unobservable outright.

All implications are necessary consequences, so a conflict among the
literals a fault requires proves that no vector detects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.circuit.levelize import levelize
from repro.circuit.library import GateType, evaluate_gate_packed
from repro.circuit.netlist import Circuit, Gate
from repro.simulation.faults import StuckAtFault

__all__ = [
    "propagate_constants",
    "ImplicationEngine",
    "UntestabilityReport",
]

#: Bound on distinct unknown inputs enumerated when proving a gate constant.
_CONST_ENUM_LIMIT = 8

_CONTROLLING = {
    GateType.AND: 0,
    GateType.NAND: 0,
    GateType.OR: 1,
    GateType.NOR: 1,
}
_NONCONTROLLING = {
    GateType.AND: 1,
    GateType.NAND: 1,
    GateType.OR: 0,
    GateType.NOR: 0,
}
_INVERTING = {GateType.NAND, GateType.NOR, GateType.NOT, GateType.XNOR}


#: A net's exact function as (support PIs, truth-table bitmask): bit ``i`` of
#: the mask is the net's value under the support assignment encoded by ``i``.
_Table = tuple[tuple[str, ...], int]


def _expand(table: _Table, merged: tuple[str, ...]) -> int:
    """Re-express ``table``'s truth mask over the wider support ``merged``."""
    support, mask = table
    n_assign = 1 << len(merged)
    if not support:
        return ((1 << n_assign) - 1) if mask else 0
    positions = [merged.index(net) for net in support]
    out = 0
    for idx in range(n_assign):
        sub = 0
        for j, pos in enumerate(positions):
            sub |= ((idx >> pos) & 1) << j
        if (mask >> sub) & 1:
            out |= 1 << idx
    return out


def propagate_constants(circuit: Circuit) -> dict[str, int]:
    """Nets provably constant under every input assignment (net -> 0/1).

    Each net with at most :data:`_CONST_ENUM_LIMIT` primary inputs in its
    support carries an exact truth table (a bitmask over support
    assignments), built forward through the levelized order with the packed
    gate evaluator.  An all-zeros/all-ones table is a proven constant — this
    catches tied pins (``XOR(a, a)``), reconvergent cancellation
    (``AND(a, NOT a)``) and anything else within the support bound.  Wider
    nets fall back to controlling-constant propagation only.
    """
    constants: dict[str, int] = {}
    tables: dict[str, _Table | None] = {
        pi: ((pi,), 0b10) for pi in circuit.primary_inputs
    }
    for gate in levelize(circuit):
        in_tables = [tables[n] for n in gate.inputs]
        merged: tuple[str, ...] | None = None
        if all(t is not None for t in in_tables):
            support: list[str] = []
            for t in in_tables:
                assert t is not None
                for net in t[0]:
                    if net not in support:
                        support.append(net)
            if len(support) <= _CONST_ENUM_LIMIT:
                merged = tuple(support)

        if merged is None:
            # Support too wide for an exact table: only a controlling
            # constant input can still force the output.
            ctrl = _CONTROLLING.get(gate.gate_type)
            if ctrl is not None and any(
                constants.get(n) == ctrl for n in gate.inputs
            ):
                out = ctrl if gate.gate_type not in _INVERTING else 1 - ctrl
                constants[gate.output] = out
                tables[gate.output] = ((), out)
            else:
                tables[gate.output] = None
            continue

        n_assign = 1 << len(merged)
        full = (1 << n_assign) - 1
        masks = [_expand(t, merged) for t in in_tables if t is not None]
        out_mask = evaluate_gate_packed(gate.gate_type, masks, mask=full)
        if out_mask == 0:
            constants[gate.output] = 0
            tables[gate.output] = ((), 0)
        elif out_mask == full:
            constants[gate.output] = 1
            tables[gate.output] = ((), 1)
        else:
            tables[gate.output] = (merged, out_mask)
    return constants


@dataclass
class UntestabilityReport:
    """Faults the prover's ``fire`` phase proved untestable.

    Attributes
    ----------
    untestable:
        Faults proved untestable, in input-universe order.
    reasons:
        Fault -> short reason tag (``"activation"``, ``"unobservable"``,
        ``"observation-conflict"``).
    n_screened:
        Number of faults examined.
    work:
        Implication-engine work counters at the end of the proof run.
    """

    untestable: list[StuckAtFault] = field(default_factory=list)
    reasons: dict[StuckAtFault, str] = field(default_factory=dict)
    n_screened: int = 0
    work: dict[str, int] = field(default_factory=dict)

    def __contains__(self, fault: StuckAtFault) -> bool:
        return fault in self.reasons


class ImplicationEngine:
    """Direct-implication closure over a combinational netlist.

    ``closure(literals)`` asserts net/value literals and propagates every
    *sound* direct consequence — three-valued forward evaluation, forced
    backward implications (AND output 1 forces all inputs 1, ...), last-free
    -input justification and XOR parity completion — returning the implied
    partial assignment, or ``None`` on contradiction.  Provable constants
    from :func:`propagate_constants` seed every closure.

    Work is metered in :attr:`stats` (``"closures"`` started, ``"steps"``
    gate evaluations) so callers can assert static-analysis cost bounds.
    """

    def __init__(self, circuit: Circuit, constants: dict[str, int] | None = None):
        circuit.validate()
        self.circuit = circuit
        self.order = levelize(circuit)
        self.driver: dict[str, Gate] = {g.output: g for g in circuit.gates}
        self.fanout: dict[str, list[Gate]] = circuit.fanout_map()
        self.constants = (
            dict(constants) if constants is not None else propagate_constants(circuit)
        )
        self.stats: dict[str, int] = {"closures": 0, "steps": 0}
        self._unit_cache: dict[tuple[str, int], dict[str, int] | None] = {}
        self._obs_detail_cache: dict[
            str, tuple[bool, tuple[tuple[str, str, int], ...]]
        ] = {}

    # ------------------------------------------------------------------
    # Closure
    # ------------------------------------------------------------------
    def closure(
        self, literals: Iterable[tuple[str, int]]
    ) -> dict[str, int] | None:
        """Implied assignment from asserting ``literals``; None on conflict."""
        self.stats["closures"] += 1
        values: dict[str, int] = dict(self.constants)
        queue: list[str] = list(values)
        for net, value in literals:
            if values.get(net, value) != value:
                return None
            if net not in values:
                values[net] = value
                queue.append(net)
        return self._propagate(values, queue)

    def unit_closure(self, net: str, value: int) -> dict[str, int] | None:
        """Memoised closure of the single literal ``net = value``."""
        key = (net, value)
        if key not in self._unit_cache:
            self._unit_cache[key] = self.closure([key])
        return self._unit_cache[key]

    def _propagate(
        self, values: dict[str, int], queue: list[str]
    ) -> dict[str, int] | None:
        def assign(net: str, value: int) -> bool:
            known = values.get(net)
            if known is None:
                values[net] = value
                queue.append(net)
                return True
            return known == value

        while queue:
            net = queue.pop()
            gates = list(self.fanout.get(net, ()))
            gate = self.driver.get(net)
            if gate is not None:
                gates.append(gate)
            for g in gates:
                self.stats["steps"] += 1
                if not self._imply_gate(g, values, assign):
                    return None
        return values

    def _imply_gate(
        self,
        gate: Gate,
        values: dict[str, int],
        assign: Callable[[str, int], bool],
    ) -> bool:
        gt = gate.gate_type
        ins = [values.get(n) for n in gate.inputs]
        out = values.get(gate.output)
        inverted = gt in _INVERTING

        # Forward: three-valued evaluation of the inputs.
        forward = self._forward(gt, ins)
        if forward is not None and not assign(gate.output, forward):
            return False
        out = values.get(gate.output)
        if out is None:
            return True
        core = 1 - out if inverted else out

        if gt in (GateType.NOT, GateType.BUF):
            return assign(gate.inputs[0], core)
        if gt in (GateType.XOR, GateType.XNOR):
            # Parity completion: all but one input known pins the last.
            unknown = [n for n, v in zip(gate.inputs, ins) if v is None]
            if len(unknown) == 1:
                parity = 0
                for v in ins:
                    if v is not None:
                        parity ^= v
                target = (out ^ parity) if gt is GateType.XOR else (1 - out) ^ parity
                return assign(unknown[0], target)
            return True

        controlling = _CONTROLLING[gt]
        if core == 1 - controlling:
            # Output forced to the all-noncontrolling case: every input known.
            nc = _NONCONTROLLING[gt]
            return all(assign(n, nc) for n in gate.inputs)
        # Output at the controlled value: at least one input controlling.
        # Last-free-input justification: if every other input is known
        # non-controlling, the remaining one must be controlling.
        unknown = [n for n, v in zip(gate.inputs, ins) if v is None]
        if len(unknown) == 1 and all(
            v == _NONCONTROLLING[gt] for v in ins if v is not None
        ):
            return assign(unknown[0], controlling)
        return True

    @staticmethod
    def _forward(gt: GateType, ins: list[int | None]) -> int | None:
        if gt in (GateType.AND, GateType.NAND):
            if any(v == 0 for v in ins):
                core = 0
            elif all(v == 1 for v in ins):
                core = 1
            else:
                return None
            return 1 - core if gt is GateType.NAND else core
        if gt in (GateType.OR, GateType.NOR):
            if any(v == 1 for v in ins):
                core = 1
            elif all(v == 0 for v in ins):
                core = 0
            else:
                return None
            return 1 - core if gt is GateType.NOR else core
        if gt in (GateType.XOR, GateType.XNOR):
            if any(v is None for v in ins):
                return None
            parity = 0
            for v in ins:
                parity ^= v  # type: ignore[operator]
            return 1 - parity if gt is GateType.XNOR else parity
        if ins[0] is None:
            return None
        return 1 - ins[0] if gt is GateType.NOT else ins[0]

    # ------------------------------------------------------------------
    # Observation requirements (dominators)
    # ------------------------------------------------------------------
    def observation_details(
        self, net: str
    ) -> tuple[bool, tuple[tuple[str, str, int], ...]]:
        """Necessary side-input literals for observing a change on ``net``.

        Returns ``(reachable, details)``: ``reachable`` is False when no
        primary output lies in the net's output cone (any fault there is
        untestable).  Each detail is ``(dominator_net, side_net,
        non_controlling_value)`` over the dominator gates strictly
        downstream of ``net`` — the shape the prover's certificates need so
        the independent checker can re-verify each dominator claim
        structurally.
        """
        cached = self._obs_detail_cache.get(net)
        if cached is not None:
            return cached

        cone, cone_order = self._cone_order(net)
        po_set = set(self.circuit.primary_outputs)
        cone_pos = [n for n in cone_order if n in po_set]
        if not cone_pos:
            detail_result: tuple[bool, tuple[tuple[str, str, int], ...]] = (
                False,
                (),
            )
            self._obs_detail_cache[net] = detail_result
            return detail_result

        # Dominators of every source->PO path, by forward dataflow over the
        # cone: dom(n) = {n} | intersection of dom over in-cone predecessors.
        dom: dict[str, frozenset[str]] = {net: frozenset((net,))}
        for n in cone_order:
            if n == net:
                continue
            preds = [
                p for p in self.driver[n].inputs if p in cone
            ]
            inter: frozenset[str] | None = None
            for p in preds:
                d = dom[p]
                inter = d if inter is None else inter & d
            dom[n] = (inter or frozenset()) | {n}
        common: frozenset[str] | None = None
        for po in cone_pos:
            common = dom[po] if common is None else common & dom[po]
        dominators = (common or frozenset()) - {net}

        details: list[tuple[str, str, int]] = []
        for d in sorted(dominators):
            gate = self.driver.get(d)
            if gate is None:
                continue
            nc = _NONCONTROLLING.get(gate.gate_type)
            if nc is None:
                continue  # XOR family / NOT / BUF propagate unconditionally
            for side in gate.inputs:
                if side not in cone:
                    details.append((d, side, nc))
        detail_result = (True, tuple(details))
        self._obs_detail_cache[net] = detail_result
        return detail_result

    def _cone_order(self, net: str) -> tuple[set[str], list[str]]:
        """Output cone of ``net`` and its members in topological order."""
        cone = {net}
        for gate in self.order:
            if any(n in cone for n in gate.inputs):
                cone.add(gate.output)
        order = [net] + [g.output for g in self.order if g.output in cone and g.output != net]
        return cone, order
