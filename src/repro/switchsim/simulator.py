"""Switch-level fault simulation of layout-extracted realistic faults.

Plays the role of the paper's *swift* simulator: applies the stuck-at test
sequence to every extracted fault and records, per fault, the first detecting
vector under three detection criteria:

* **strict voltage** — a guaranteed, fully-resolved logic flip reaches a
  primary output (intermediate/unknown levels never count; floating inputs
  must fail under *both* trapped-charge assumptions);
* **potential voltage** — the classic switch-level-simulator convention: an
  unknown (X) level reaching a sensitised primary output also counts, and a
  floating input counts under *either* charge assumption.  Production
  fault simulators of the paper's era (including the original *swift*)
  report this measure;
* **IDDQ** — a quiescent-current test flags the vector (contention or a
  conducting bridge), regardless of logic values.

Mechanics: each behavioural fault class reduces to masked gate-level
injections —

* a bridge resolves per vector by the two drivers' strengths; winning-side
  vectors become masked stuck-at injections, intermediate-voltage vectors
  count as potential detections when the X reaches an output;
* stuck-on devices create cell-level contention, resolved the same way;
* stuck-open devices make the cell output float on the vectors where the
  broken network should drive, with charge-retention (sequence) semantics;
* floating inputs are evaluated under both trapped-charge assumptions.

A masked injection is "stuck-at force F, counted only on the vectors in mask
M", and F's detection bitset does not depend on M.  The whole sequence is
packed into one word, each distinct force is simulated once into a lazily
filled table, and a fault's first detection is the lowest set bit of the OR
of ``table[F] & M`` over its injections.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.circuit.library import GateType
from repro.circuit.netlist import Gate
from repro.defects.fault_types import (
    BridgeFault,
    FloatingNetFault,
    RealisticFault,
    TransistorGateOpen,
    TransistorStuckOn,
    TransistorStuckOpen,
)
from repro.layout.cells import GND, VDD
from repro.layout.design import LayoutDesign
from repro.simulation.fault_sim import FaultSimulator
from repro.simulation.faults import FaultSite, StuckAtFault
from repro.simulation.logic_sim import pack_patterns
from repro.switchsim.strengths import (
    PI_STRENGTH,
    SUPPLY_STRENGTH,
    V_HIGH,
    V_LOW,
    cell_conductances,
    solve_with_tap,
)

__all__ = ["SwitchSimResult", "SwitchLevelFaultSimulator", "Detection"]

_SUPPLIES = (VDD, GND)


@dataclass(frozen=True)
class Detection:
    """First-detection indices for one fault under each criterion."""

    strict: int | None = None
    potential: int | None = None
    iddq: int | None = None
    #: Peak quiescent current (VDD x conductance units) over the sequence.
    iddq_current: float = 0.0

    def merged_potential(self) -> int | None:
        """Potential never later than strict; normalise just in case."""
        candidates = [k for k in (self.strict, self.potential) if k is not None]
        return min(candidates) if candidates else None


@dataclass
class SwitchSimResult:
    """Per-fault first-detection indices under all detection techniques."""

    faults: list[RealisticFault]
    first_detection: dict[int, int] = field(default_factory=dict)
    first_detection_potential: dict[int, int] = field(default_factory=dict)
    first_detection_iddq: dict[int, int] = field(default_factory=dict)
    #: Peak quiescent current per fault (conductance units x VDD; only
    #: contention-causing faults appear).
    iddq_peak: dict[int, float] = field(default_factory=dict)
    n_patterns: int = 0

    def detected_voltage(self, fault: RealisticFault) -> int | None:
        """First strictly-detecting vector under voltage testing, or None."""
        return self.first_detection.get(id(fault))

    def detected_potential(self, fault: RealisticFault) -> int | None:
        """First (at least potentially) detecting vector, or None."""
        return self.first_detection_potential.get(id(fault))

    def detected_iddq(self, fault: RealisticFault) -> int | None:
        """First detecting vector under IDDQ testing, or None."""
        return self.first_detection_iddq.get(id(fault))

    def iddq_peak_current(self, fault: RealisticFault) -> float:
        """Largest quiescent current the fault draws over the sequence."""
        return self.iddq_peak.get(id(fault), 0.0)


@dataclass
class _CellInfo:
    gate: Gate
    instance: str
    inputs: tuple[str, ...]
    output: str
    gate_type: GateType


class SwitchLevelFaultSimulator:
    """Simulator bound to one layout design and one vector sequence."""

    def __init__(
        self,
        design: LayoutDesign,
        patterns: Sequence[Sequence[int]],
        v_low: float = V_LOW,
        v_high: float = V_HIGH,
    ):
        self.design = design
        self.mapped = design.mapped
        self.patterns = [list(p) for p in patterns]
        self.n_patterns = len(self.patterns)
        # One packed word spans the whole sequence: every stuck-at force is
        # simulated in a single pass (bit k = vector k), and no word carries
        # bits past the last vector.
        self.fault_sim = FaultSimulator(self.mapped, width=max(1, self.n_patterns))
        if not 0 < v_low <= 0.5 <= v_high < 1:
            raise ValueError("thresholds must satisfy 0 < v_low <= 0.5 <= v_high < 1")
        self.v_low = v_low
        self.v_high = v_high

        self.cells: dict[str, _CellInfo] = {}
        self.driver_cell: dict[str, _CellInfo] = {}
        for gate in self.mapped.gates:
            info = _CellInfo(gate, gate.name, gate.inputs, gate.output, gate.gate_type)
            self.cells[gate.name] = info
            self.driver_cell[gate.output] = info

        #: Force tuple -> sequence-wide detection bitset (bit k = vector k):
        #: where those simultaneous stuck-at forces reach a primary output.
        #: Filled lazily; a force is simulated once however many faults and
        #: vector masks use it.
        self._detections: dict[tuple[StuckAtFault, ...], int] = {}
        #: Masked injections evaluated so far (nonempty vector mask).
        self._n_injections = 0
        self._tables: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._combos: dict[str, np.ndarray] = {}
        self._stuck_open_memo: dict[tuple, Detection] = {}
        self._simulate_good()

    # ------------------------------------------------------------------
    # Fault-free preparation
    # ------------------------------------------------------------------
    def _simulate_good(self) -> None:
        logic = self.fault_sim.logic
        #: Fault-free value word of every net, indexed by net id.
        self.good: list[int] = [0] * logic.n_nets
        if self.patterns:
            (words,) = pack_patterns(
                self.patterns, len(self.mapped.primary_inputs), self.fault_sim.width
            )
            self.good = logic.simulate_packed_list(words)

        # Per-net value arrays over all vectors (numpy uint8).
        n_bytes = (self.n_patterns + 7) // 8
        blob = b"".join(word.to_bytes(n_bytes, "little") for word in self.good)
        rows = np.unpackbits(
            np.frombuffer(blob, dtype=np.uint8).reshape(logic.n_nets, n_bytes),
            axis=1,
            count=self.n_patterns,
            bitorder="little",
        )
        self.values: dict[str, np.ndarray] = {
            net: rows[logic.net_id[net]] for net in self.mapped.nets
        }

        # Per-net drive strength arrays (strength holding the current value).
        self.drive: dict[str, np.ndarray] = {}
        for net in self.mapped.nets:
            self.drive[net] = self._net_drive(net)

    def _net_drive(self, net: str) -> np.ndarray:
        if net in _SUPPLIES:
            return np.full(self.n_patterns, SUPPLY_STRENGTH)
        cell = self.driver_cell.get(net)
        if cell is None:  # primary input: tester-driven
            return np.full(self.n_patterns, PI_STRENGTH)
        combos = self._combo_indices(cell)
        g_up, g_down = self._faulty_tables(cell, {}, {})
        value = self.values[net]
        return np.where(value == 1, g_up[combos], g_down[combos])

    def _combo_indices(self, cell: _CellInfo) -> np.ndarray:
        """Per-vector input code of ``cell`` (bit i = input pin i)."""
        combos = self._combos.get(cell.instance)
        if combos is None:
            combos = np.zeros(self.n_patterns, dtype=np.int64)
            for i, net in enumerate(cell.inputs):
                combos |= self.values[net].astype(np.int64) << i
            self._combos[cell.instance] = combos
        return combos

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, faults: Sequence[RealisticFault]) -> SwitchSimResult:
        """Simulate every fault; return first-detection indices."""
        result = SwitchSimResult(faults=list(faults), n_patterns=self.n_patterns)
        faults_by_class: Counter[str] = Counter()
        injections_by_class: Counter[str] = Counter()
        wall_by_class: Counter[str] = Counter()
        n_forces = len(self._detections)
        with obs.span(
            "switch_sim.run", n_faults=len(result.faults), n_patterns=self.n_patterns
        ):
            for fault in result.faults:
                n_injections = self._n_injections
                t0 = time.perf_counter()
                det = self._dispatch(fault)
                name = type(fault).__name__
                wall_by_class[name] += time.perf_counter() - t0
                faults_by_class[name] += 1
                injections_by_class[name] += self._n_injections - n_injections
                if det.strict is not None:
                    result.first_detection[id(fault)] = det.strict
                potential = det.merged_potential()
                if potential is not None:
                    result.first_detection_potential[id(fault)] = potential
                if det.iddq is not None:
                    result.first_detection_iddq[id(fault)] = det.iddq
                if det.iddq_current > 0:
                    result.iddq_peak[id(fault)] = det.iddq_current
        obs.inc("switch_sim.faults_simulated", len(result.faults))
        obs.inc("switch_sim.detected_strict", len(result.first_detection))
        obs.inc(
            "switch_sim.detected_potential", len(result.first_detection_potential)
        )
        obs.inc("switch_sim.detected_iddq", len(result.first_detection_iddq))
        if obs.is_enabled():
            for name, count in faults_by_class.items():
                obs.inc(f"switch_sim.faults.{name}", count)
            for name, count in injections_by_class.items():
                obs.inc(f"switch_sim.injections.{name}", count)
            for name, seconds in wall_by_class.items():
                obs.set_gauge(f"switch_sim.wall_s.{name}", seconds)
            obs.inc("switch_sim.detection_words", len(self._detections) - n_forces)
        return result

    def _dispatch(self, fault: RealisticFault) -> Detection:
        if isinstance(fault, BridgeFault):
            return self._bridge(fault)
        if isinstance(fault, TransistorStuckOn):
            return self._stuck_on(fault.transistor)
        if isinstance(fault, TransistorStuckOpen):
            return self._stuck_open(fault.transistors)
        if isinstance(fault, TransistorGateOpen):
            return self._gate_open(fault.transistor)
        if isinstance(fault, FloatingNetFault):
            return self._floating_net(fault)
        raise TypeError(f"unknown fault class {type(fault).__name__}")

    # ------------------------------------------------------------------
    # Masked packed detection helpers
    # ------------------------------------------------------------------
    def _detection_bits(self, forces: tuple[StuckAtFault, ...]) -> int:
        """Vectors (bit k = vector k) where ``forces`` reach a primary output."""
        bits = self._detections.get(forces)
        if bits is None:
            if len(forces) == 1:
                bits = self.fault_sim.detection_word(forces[0], self.good)
            else:
                bits = self.fault_sim.detection_word_multi(forces, self.good)
            self._detections[forces] = bits
        return bits

    def _first_masked_detection(
        self, injections: list[tuple[tuple[StuckAtFault, ...], np.ndarray]]
    ) -> int | None:
        """First vector where any (forces, vector-mask) injection misbehaves."""
        hit = 0
        for forces, mask in injections:
            mask_bits = _mask_bits(mask)
            if mask_bits:
                self._n_injections += 1
                hit |= self._detection_bits(forces) & mask_bits
        return (hit & -hit).bit_length() if hit else None

    @staticmethod
    def _first_true(mask: np.ndarray) -> int | None:
        indices = np.flatnonzero(mask)
        return int(indices[0]) + 1 if indices.size else None

    def _flip_injections(
        self, net: str, flip0: np.ndarray, flip1: np.ndarray
    ) -> list[tuple[tuple[StuckAtFault, ...], np.ndarray]]:
        """Masked single-net injections for force-to-0/force-to-1 vectors."""
        if net in _SUPPLIES:
            return []
        injections = []
        if flip0.any():
            injections.append(((StuckAtFault(net, 0),), flip0))
        if flip1.any():
            injections.append(((StuckAtFault(net, 1),), flip1))
        return injections

    def _x_injections(
        self, net: str, x_mask: np.ndarray, values: np.ndarray
    ) -> list[tuple[tuple[StuckAtFault, ...], np.ndarray]]:
        """Potential-detection injections: force opposite of good at X vectors."""
        if net in _SUPPLIES or not x_mask.any():
            return []
        return self._flip_injections(net, x_mask & (values == 1), x_mask & (values == 0))

    # ------------------------------------------------------------------
    # Bridge faults
    # ------------------------------------------------------------------
    def _bridge(self, fault: BridgeFault) -> Detection:
        a, b = fault.net_a, fault.net_b
        if {a, b} == set(_SUPPLIES):
            # Power-to-ground short: the die draws massive current and no
            # valid levels exist — any vector fails either test.
            if self.n_patterns:
                return Detection(1, 1, 1, iddq_current=1e3)
            return Detection()
        if "#" in a or "#" in b:
            return self._bridge_internal(fault)

        va = self._rail_or_values(a)
        vb = self._rail_or_values(b)
        diff = va != vb
        if not diff.any():
            return Detection()
        iddq = self._first_true(diff)

        ga = self._rail_or_drive(a)
        gb = self._rail_or_drive(b)
        # Quiescent current of the fight: VDD through the two drive paths in
        # series (zero bridge resistance).
        fight_current = np.where(diff, ga * gb / (ga + gb), 0.0)
        peak_current = float(fight_current.max())
        v_node = (ga * va + gb * vb) / (ga + gb)
        # Wired-AND tie-break: an exactly balanced fight resolves low.
        low_wins = (v_node <= self.v_low) | (v_node == 0.5)
        a_wins = diff & (np.where(va == 1, v_node >= self.v_high, low_wins))
        b_wins = diff & (np.where(vb == 1, v_node >= self.v_high, low_wins))
        x_mask = diff & ~a_wins & ~b_wins

        strict_injections = []
        for net, wins, values in ((b, a_wins, vb), (a, b_wins, va)):
            strict_injections.extend(
                self._flip_injections(net, wins & (values == 1), wins & (values == 0))
            )
        strict = self._first_masked_detection(strict_injections)

        potential_injections = list(strict_injections)
        potential_injections.extend(self._x_injections(a, x_mask, va))
        potential_injections.extend(self._x_injections(b, x_mask, vb))
        potential = self._first_masked_detection(potential_injections)
        return Detection(strict, potential, iddq, iddq_current=peak_current)

    def _rail_or_values(self, net: str) -> np.ndarray:
        if net == VDD:
            return np.ones(self.n_patterns, dtype=np.uint8)
        if net == GND:
            return np.zeros(self.n_patterns, dtype=np.uint8)
        return self.values[net]

    def _rail_or_drive(self, net: str) -> np.ndarray:
        if net in _SUPPLIES:
            return np.full(self.n_patterns, SUPPLY_STRENGTH)
        return self.drive[net]

    def _bridge_internal(self, fault: BridgeFault) -> Detection:
        """Bridge between an external net and a cell-internal chain node."""
        internal = fault.net_a if "#" in fault.net_a else fault.net_b
        external = fault.net_b if internal == fault.net_a else fault.net_a
        if "#" in external:
            # Internal-to-internal bridges across cells: both nodes sit
            # inside series stacks; the vector-level effect is at worst an
            # intermediate level.  Voltage-undetectable; IDDQ flags the
            # conducting pair (conservatively: from the first vector, at a
            # weak stack-limited current).
            if self.n_patterns:
                return Detection(None, None, 1, iddq_current=0.1)
            return Detection()
        instance, tag = internal.split("#", 1)
        cell = self.cells.get(instance)
        if cell is None:
            return Detection()
        tap_index = int(tag[1:])

        out = cell.output
        ext_vals = self._rail_or_values(external)
        ext_drive = self._rail_or_drive(external)
        out_vals = self.values[out]
        out_new, tap_val = self._tap_levels(cell, tap_index, ext_vals, ext_drive)

        out_x = out_new == 2
        out_flip0 = (out_new == 0) & (out_vals == 1)
        out_flip1 = (out_new == 1) & (out_vals == 0)
        # A supply-side tap never injects: the flip helpers drop rails.
        ext_x = tap_val == 2
        ext_flip0 = (tap_val == 0) & (ext_vals == 1)
        ext_flip1 = (tap_val == 1) & (ext_vals == 0)
        iddq_mask = ext_x | (out_new != out_vals)

        strict_injections = self._flip_injections(out, out_flip0, out_flip1)
        strict_injections.extend(self._flip_injections(external, ext_flip0, ext_flip1))
        strict = self._first_masked_detection(strict_injections)

        potential_injections = list(strict_injections)
        potential_injections.extend(self._x_injections(out, out_x, out_vals))
        potential_injections.extend(self._x_injections(external, ext_x, ext_vals))
        potential = self._first_masked_detection(potential_injections)
        peak = 0.0
        if iddq_mask.any():
            # The fight runs through the external driver and the cell stack;
            # bound it by the external drive strength at the worst vector.
            peak = float(np.where(iddq_mask, np.minimum(ext_drive, 4.0), 0.0).max())
        return Detection(strict, potential, self._first_true(iddq_mask), iddq_current=peak)

    def _tap_levels(
        self,
        cell: _CellInfo,
        tap_index: int,
        ext_vals: np.ndarray,
        ext_drive: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-vector (output, tap node) levels of ``cell`` tied at a node.

        :func:`solve_with_tap` runs once per distinct (input combo, external
        value, external drive); the levels are gathered back per vector.
        """
        combos = self._combo_indices(cell)
        drive_levels, drive_code = np.unique(ext_drive, return_inverse=True)
        keys = (combos * 2 + ext_vals) * len(drive_levels) + drive_code
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        n = len(cell.inputs)
        solved = []
        for key in unique_keys.tolist():
            rest, code = divmod(key, len(drive_levels))
            combo, ext_val = divmod(rest, 2)
            bits = tuple((combo >> i) & 1 for i in range(n))
            solved.append(
                solve_with_tap(
                    cell.gate_type,
                    bits,
                    tap_index,
                    float(ext_val),
                    float(drive_levels[code]),
                )
            )
        levels = np.array(solved, dtype=np.int64).reshape(-1, 2)[inverse]
        return levels[:, 0], levels[:, 1]

    # ------------------------------------------------------------------
    # Transistor faults
    # ------------------------------------------------------------------
    def _device(self, name: str) -> tuple[_CellInfo, str, int] | None:
        instance, dev = name.rsplit(".", 1)
        cell = self.cells.get(instance)
        if cell is None:
            return None
        return cell, dev[0].lower(), int(dev[1:])

    def _faulty_tables(
        self,
        cell: _CellInfo,
        n_mods: dict[int, str],
        p_mods: dict[int, str],
    ) -> tuple[np.ndarray, np.ndarray]:
        """(G_up, G_down) per input code, memoised per cell kind and mods."""
        n = len(cell.inputs)
        key = (cell.gate_type, n, _mods_key(n_mods), _mods_key(p_mods))
        tables = self._tables.get(key)
        if tables is None:
            g_up = np.zeros(2**n)
            g_down = np.zeros(2**n)
            for code in range(2**n):
                bits = tuple((code >> i) & 1 for i in range(n))
                up, down = cell_conductances(cell.gate_type, bits, n_mods, p_mods)
                g_up[code], g_down[code] = up, down
            tables = self._tables[key] = (g_up, g_down)
        return tables

    def _stuck_on(self, device: str) -> Detection:
        located = self._device(device)
        if located is None:
            return Detection()
        cell, polarity, index = located
        n_mods = {index: "on"} if polarity == "n" else {}
        p_mods = {index: "on"} if polarity == "p" else {}
        g_up, g_down = self._faulty_tables(cell, n_mods, p_mods)

        combos = self._combo_indices(cell)
        up = g_up[combos]
        down = g_down[combos]
        out_vals = self.values[cell.output]

        contention = (up > 0) & (down > 0)
        iddq = self._first_true(contention)
        with np.errstate(invalid="ignore", divide="ignore"):
            fight = np.where(contention, up * down / np.where(up + down > 0, up + down, 1.0), 0.0)
        peak_current = float(fight.max()) if contention.any() else 0.0

        total = up + down
        with np.errstate(invalid="ignore", divide="ignore"):
            v_node = np.where(total > 0, up / np.where(total > 0, total, 1.0), np.nan)
        flips1 = (v_node >= self.v_high) & (out_vals == 0)
        flips0 = ((v_node <= self.v_low) | (v_node == 0.5)) & (out_vals == 1)
        x_mask = contention & (v_node > self.v_low) & (v_node < self.v_high) & (v_node != 0.5)

        strict_injections = self._flip_injections(cell.output, flips0, flips1)
        strict = self._first_masked_detection(strict_injections)
        potential_injections = list(strict_injections)
        potential_injections.extend(self._x_injections(cell.output, x_mask, out_vals))
        potential = self._first_masked_detection(potential_injections)
        return Detection(strict, potential, iddq, iddq_current=peak_current)

    def _stuck_open(self, devices: tuple[str, ...]) -> Detection:
        by_cell: dict[str, tuple[_CellInfo, dict[int, str], dict[int, str]]] = {}
        for name in devices:
            located = self._device(name)
            if located is None:
                continue
            cell, polarity, index = located
            entry = by_cell.setdefault(cell.instance, (cell, {}, {}))
            if polarity == "n":
                entry[1][index] = "absent"
            else:
                entry[2][index] = "absent"
        if not by_cell:
            return Detection()
        # Multi-cell stuck-open sets (e.g. a supply-rail break) are handled
        # per cell; detection by any cell's misbehaviour counts.
        strict: int | None = None
        potential: int | None = None
        for cell, n_mods, p_mods in by_cell.values():
            det = self._stuck_open_one_cell(cell, n_mods, p_mods)
            strict = _min_opt(strict, det.strict)
            potential = _min_opt(potential, det.merged_potential())
        return Detection(strict, potential, None)  # no quiescent current

    def _stuck_open_one_cell(
        self,
        cell: _CellInfo,
        n_mods: dict[int, str],
        p_mods: dict[int, str],
    ) -> Detection:
        """Memoised per (instance, mods): a gate-open's always-off half is
        the matching single-device stuck-open."""
        key = (cell.instance, _mods_key(n_mods), _mods_key(p_mods))
        memo = self._stuck_open_memo.get(key)
        if memo is not None:
            return memo
        g_up, g_down = self._faulty_tables(cell, n_mods, p_mods)
        combos = self._combo_indices(cell)
        faulty = retained_levels(g_up[combos], g_down[combos])
        out_vals = self.values[cell.output]
        x_mask = faulty == 2
        flips0 = (faulty == 0) & (out_vals == 1)
        flips1 = (faulty == 1) & (out_vals == 0)

        strict_injections = self._flip_injections(cell.output, flips0, flips1)
        strict = self._first_masked_detection(strict_injections)
        potential_injections = list(strict_injections)
        potential_injections.extend(
            self._x_injections(cell.output, x_mask, out_vals)
        )
        potential = self._first_masked_detection(potential_injections)
        det = self._stuck_open_memo[key] = Detection(strict, potential, None)
        return det

    def _gate_open(self, device: str) -> Detection:
        """Floating single gate: unknown but fixed state.

        Strict voltage detection requires failing under both the always-on
        and always-off assumption; potential detection under either.
        """
        located = self._device(device)
        if located is None:
            return Detection()
        cell, polarity, index = located
        off_mods = ({index: "absent"}, {}) if polarity == "n" else ({}, {index: "absent"})

        det_on = self._stuck_on(device)
        det_off = self._stuck_open_one_cell(cell, *off_mods)
        strict = _max_opt(det_on.strict, det_off.strict)
        potential = _min_opt(det_on.merged_potential(), det_off.merged_potential())
        return Detection(
            strict, potential, det_on.iddq, iddq_current=det_on.iddq_current
        )

    # ------------------------------------------------------------------
    # Floating-net (open) faults
    # ------------------------------------------------------------------
    def _floating_net(self, fault: FloatingNetFault) -> Detection:
        if fault.floating_inputs:
            return self._floating_inputs(fault)
        if fault.stuck_open:
            return self._stuck_open(fault.stuck_open)
        # Only a primary-output observer floats: the tester cannot *rely* on
        # the unknown level (strict: undetected) but will very likely see a
        # wrong value at some point (potential: first vector).
        if fault.floats_output_port and self.n_patterns:
            return Detection(None, 1, None)
        return Detection()

    def _floating_inputs(self, fault: FloatingNetFault) -> Detection:
        net = fault.net
        if net not in self.values:
            return Detection()
        forces_template: list[tuple[str, int]] = []
        for instance, _ in fault.floating_inputs:
            cell = self.cells.get(instance)
            if cell is None:
                continue
            for pin, pin_net in enumerate(cell.inputs):
                if pin_net == net:
                    forces_template.append((instance, pin))
        if not forces_template:
            return Detection()

        firsts: list[int | None] = []
        net_vals = self.values[net]
        for assumption in (0, 1):
            forces = tuple(
                StuckAtFault(net, assumption, FaultSite.GATE_INPUT, inst, pin)
                for inst, pin in forces_template
            )
            mask = net_vals == (1 - assumption)
            if not mask.any():
                firsts.append(None)
                continue
            firsts.append(self._first_masked_detection([(forces, mask)]))

        strict = None
        if firsts[0] is not None and firsts[1] is not None:
            strict = max(firsts[0], firsts[1])
        potential = _min_opt(firsts[0], firsts[1])
        return Detection(strict, potential, None)


def retained_levels(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Per-vector level (0, 1 or X = 2) of a node with charge retention.

    A node pulled one way only takes that level.  A floating node (neither
    network conducts) holds the level of the last vector that pulled it one
    way, and reads X before any such vector.  A node pulled both ways reads
    X and leaves the held charge as it was.
    """
    high = (up > 0) & (down <= 0)
    resolved = high | ((down > 0) & (up <= 0))
    floating = (up <= 0) & (down <= 0)
    last = np.maximum.accumulate(np.where(resolved, np.arange(len(up)), -1))
    held = floating & (last >= 0)
    levels = np.full(len(up), 2, dtype=np.int8)
    levels[resolved] = high[resolved]
    levels[held] = high[last[held]]
    return levels


def _mask_bits(mask: np.ndarray) -> int:
    """A boolean vector mask as a bitset (bit k = vector k)."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _mods_key(mods: dict[int, str]) -> tuple[tuple[int, str], ...]:
    return tuple(sorted(mods.items()))


def _min_opt(a: int | None, b: int | None) -> int | None:
    candidates = [x for x in (a, b) if x is not None]
    return min(candidates) if candidates else None


def _max_opt(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return max(a, b)
