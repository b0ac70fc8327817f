"""Per-vector transistor-level reference for the cell-local transistor faults.

For every vector of the sequence it resolves the faulty cell's output level
straight from :func:`~repro.switchsim.strengths.cell_conductances` and the
simulator's v_low/v_high thresholds, forces that level onto the cell output
in a gate-by-gate python evaluation of the mapped circuit, and counts a
strict detection only when a definite (0 or 1) flip reaches a primary
output.  It uses no bitsets, no detection table and no masked stuck-at
injections, so it checks the simulator's reduction of each fault to masked
forces rather than sharing it.

Covered: stuck-on devices (a resistive fight between the networks), stuck-
open devices with charge retention (a floating output holds the level of
the last vector that drove it, X before any), and gate-opens, which must
fail under both the always-on and the always-off assumption.  A stuck-open
set spanning several cells (a supply-rail break) is evaluated cell by cell
and detected by any one of them, which is the simulator's model for it.
"""

from __future__ import annotations

from repro.circuit import GateType
from repro.defects import TransistorGateOpen, TransistorStuckOn, TransistorStuckOpen
from repro.simulation.faults import FaultSite, StuckAtFault
from repro.switchsim.strengths import cell_conductances

X = 2

GATE_FN = {
    GateType.AND: lambda xs: int(all(xs)),
    GateType.NAND: lambda xs: 1 - int(all(xs)),
    GateType.OR: lambda xs: int(any(xs)),
    GateType.NOR: lambda xs: 1 - int(any(xs)),
    GateType.XOR: lambda xs: sum(xs) % 2,
    GateType.XNOR: lambda xs: 1 - sum(xs) % 2,
    GateType.NOT: lambda xs: 1 - xs[0],
    GateType.BUF: lambda xs: xs[0],
}


def net_values(circuit, vector, forces=()) -> dict[str, int]:
    """Every net's value for one vector, gate by gate under stuck-at ``forces``."""
    net_force = {f.net: f.value for f in forces if f.site is FaultSite.NET}
    pin_force = {
        (f.gate, f.pin): f.value for f in forces if f.site is FaultSite.GATE_INPUT
    }
    values = {
        pi: net_force.get(pi, v) for pi, v in zip(circuit.primary_inputs, vector)
    }
    pending = list(circuit.gates)
    while pending:
        later = []
        for gate in pending:
            if all(net in values for net in gate.inputs):
                ins = [
                    pin_force.get((gate.name, pin), values[net])
                    for pin, net in enumerate(gate.inputs)
                ]
                value = GATE_FN[gate.gate_type](ins)
                values[gate.output] = net_force.get(gate.output, value)
            else:
                later.append(gate)
        pending = later
    return values


def forced_outputs(circuit, vector, forces=()) -> list[int]:
    """Primary outputs of one vector, evaluated gate by gate under ``forces``."""
    values = net_values(circuit, vector, forces)
    return [values[po] for po in circuit.primary_outputs]


class TransistorReference:
    """The reference bound to one simulator's circuit, vectors and thresholds."""

    def __init__(self, sim):
        self.circuit = sim.mapped
        self.patterns = sim.patterns
        self.v_low = sim.v_low
        self.v_high = sim.v_high
        self.gates = {gate.name: gate for gate in self.circuit.gates}
        self.good = [net_values(self.circuit, vector) for vector in self.patterns]

    def strict(self, fault) -> int | None:
        """Strict first detection of a cell-local transistor fault."""
        if isinstance(fault, TransistorStuckOn):
            return self._stuck_on(fault.transistor)
        if isinstance(fault, TransistorStuckOpen):
            return self._stuck_open(fault.transistors)
        if isinstance(fault, TransistorGateOpen):
            on = self._stuck_on(fault.transistor)
            off = self._stuck_open((fault.transistor,))
            if on is None or off is None:
                return None
            return max(on, off)
        raise TypeError(f"no transistor-level reference for {type(fault).__name__}")

    def locate(self, device: str):
        """(gate, polarity, device index) of ``device``, or None."""
        instance, dev = device.rsplit(".", 1)
        gate = self.gates.get(instance)
        if gate is None:
            return None
        return gate, dev[0].lower(), int(dev[1:])

    def cell_levels(self, gate, n_mods, p_mods, *, retain: bool) -> list[int]:
        """Per-vector output level of ``gate`` with devices modified.

        With ``retain`` a floating output keeps the last driven level (X
        before any, and a fight leaves the held charge as it was); without,
        a floating output reads X.
        """
        levels = []
        held = X
        for good in self.good:
            bits = tuple(good[net] for net in gate.inputs)
            up, down = cell_conductances(gate.gate_type, bits, n_mods, p_mods)
            level = driven_level(up, down, self.v_low, self.v_high)
            if level is None:
                level = held if retain else X
            elif up <= 0 or down <= 0:
                held = level
            levels.append(level)
        return levels

    def first_strict(self, gate, levels: list[int]) -> int | None:
        """First (1-based) vector where a definite flip of ``gate``'s output
        reaches a primary output."""
        outputs = self.circuit.primary_outputs
        for k, (vector, good, level) in enumerate(
            zip(self.patterns, self.good, levels)
        ):
            if level == X or level == good[gate.output]:
                continue
            force = StuckAtFault(gate.output, level)
            if forced_outputs(self.circuit, vector, [force]) != [
                good[po] for po in outputs
            ]:
                return k + 1
        return None

    def _stuck_on(self, device: str) -> int | None:
        located = self.locate(device)
        if located is None:
            return None
        gate, polarity, index = located
        mods = {index: "on"}
        n_mods, p_mods = (mods, {}) if polarity == "n" else ({}, mods)
        levels = self.cell_levels(gate, n_mods, p_mods, retain=False)
        return self.first_strict(gate, levels)

    def _stuck_open(self, devices) -> int | None:
        by_cell: dict[str, tuple] = {}
        for device in devices:
            located = self.locate(device)
            if located is None:
                continue
            gate, polarity, index = located
            entry = by_cell.setdefault(gate.name, (gate, {}, {}))
            entry[1 if polarity == "n" else 2][index] = "absent"
        firsts = [
            self.first_strict(
                gate, self.cell_levels(gate, n_mods, p_mods, retain=True)
            )
            for gate, n_mods, p_mods in by_cell.values()
        ]
        found = [k for k in firsts if k is not None]
        return min(found) if found else None


def driven_level(up: float, down: float, v_low: float, v_high: float) -> int | None:
    """Level of an output pulled up with ``up`` and down with ``down``.

    None when neither network conducts (the node floats).  A fight resolves
    by the divider voltage: X inside the threshold band, and an exactly
    balanced fight reads 0 (wired-AND).
    """
    if up <= 0 and down <= 0:
        return None
    if down <= 0:
        return 1
    if up <= 0:
        return 0
    v_node = up / (up + down)
    if v_node >= v_high:
        return 1
    if v_node <= v_low or v_node == 0.5:
        return 0
    return X
