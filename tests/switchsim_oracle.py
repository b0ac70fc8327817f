"""The per-fault switch-level planner, kept as a test oracle.

:class:`PerFaultSimulator` is the planner :class:`SwitchLevelFaultSimulator`
used before every fault class went to class-wide array passes over state
bitsets: each fault is planned on its own into python-int bitset masks
(bit k = vector k), gathered into queries with :meth:`_Plan.query`, and
turned into a :class:`Detection` by a per-fault ``Pending`` closure.  It
shares the simulator's fault-free values, detection-table fill and batched
resolve, so comparing the two checks the array planner's state tables,
slot masks, cell plans and column reductions fault for fault
(``tests/test_switchsim_oracle.py``).
"""

from __future__ import annotations

import math
import time
from collections import Counter
from functools import partial
from typing import Callable, Sequence, TypeGuard

import numpy as np

from repro import obs
from repro.defects.fault_types import (
    BridgeFault,
    FloatingNetFault,
    RealisticFault,
    TransistorGateOpen,
    TransistorStuckOn,
    TransistorStuckOpen,
)
from repro.layout.cells import GND, VDD
from repro.simulation.faults import FaultSite, StuckAtFault
from repro.switchsim.simulator import (
    Detection,
    SwitchLevelFaultSimulator,
    SwitchSimResult,
    _CellInfo,
    _pack_masks,
)
from repro.switchsim.strengths import (
    PI_STRENGTH,
    SUPPLY_STRENGTH,
    cell_conductances,
    solve_with_tap,
)

_SUPPLIES = (VDD, GND)
_SUPPLY_PAIR = frozenset(_SUPPLIES)

#: Cells (rows x vectors) of one chunk of planning arrays.
_CHUNK_CELLS = 1 << 17

#: External-bridge injection slots, in the per-fault order: strict flips of
#: net b, strict flips of net a, then the X forces of a and of b.  Slot ->
#: (forced net is b, stuck value).
_SLOT_ON_B = np.array([1, 1, 0, 0, 0, 0, 1, 1], dtype=bool)
_SLOT_VALUE = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int64)
_N_STRICT_SLOTS = 4

#: (forces, vector mask as a bitset: bit k = vector k).
Injection = tuple[tuple[StuckAtFault, ...], int]

#: A planned fault: builds its :class:`Detection` from the first detection
#: (or None) of every query of the plan, indexed by query id.
Pending = Callable[[Sequence[int | None]], Detection]

class _Plan:
    """Masked injections of a set of faults, grouped into queries.

    A query asks for the first vector where any of its injections reaches a
    primary output.  Injections are kept as blocks of ``(query ids, force
    ids, packed masks)`` with each query's injections contiguous inside one
    block, so the resolve pass ORs them with one ``reduceat`` per block.
    Only injections with a nonempty mask are kept.
    """

    def __init__(self, n_patterns: int):
        self.n_patterns = n_patterns
        self.n_words = -(-n_patterns // 64)
        self.n_queries = 0
        #: Injections kept, counted once per query that uses them.
        self.n_injections = 0
        #: Distinct force tuple -> force id, in first-use order.
        self.force_ids: dict[tuple[StuckAtFault, ...], int] = {}
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: Single-cell stuck-open plans by (instance, mods): a gate-open's
        #: always-off half is the matching single-device stuck-open.
        self.stuck_open: dict[tuple, Pending] = {}
        self._queries: list[int] = []
        self._forces: list[int] = []
        self._masks: list[int] = []

    def new_queries(self, n: int) -> int:
        """Reserve ``n`` consecutive query ids; returns the first."""
        first = self.n_queries
        self.n_queries += n
        return first

    def force_id(self, forces: tuple[StuckAtFault, ...]) -> int:
        return self.force_ids.setdefault(forces, len(self.force_ids))

    def query(self, injections: Sequence[Injection]) -> int:
        """One query over ``injections``; returns its id."""
        q = self.new_queries(1)
        for forces, mask in injections:
            if mask:
                self._queries.append(q)
                self._forces.append(self.force_id(forces))
                self._masks.append(mask)
                self.n_injections += 1
        if len(self._masks) * self.n_patterns >= _CHUNK_CELLS:
            self.flush()
        return q

    def add_block(
        self, queries: np.ndarray, forces: np.ndarray, masks: np.ndarray
    ) -> None:
        """Injections already packed, with ``queries`` nondecreasing."""
        if len(queries):
            self.blocks.append((queries, forces, masks))
            self.n_injections += len(queries)

    def flush(self) -> None:
        """Pack the pending per-fault injections into one block."""
        if self._masks:
            n_bytes = 8 * self.n_words
            packed = np.frombuffer(
                b"".join(mask.to_bytes(n_bytes, "little") for mask in self._masks),
                dtype="<u8",
            )
            self.blocks.append(
                (
                    np.array(self._queries, dtype=np.intp),
                    np.array(self._forces, dtype=np.intp),
                    packed.reshape(-1, self.n_words).astype(np.uint64),
                )
            )
            self._queries, self._forces, self._masks = [], [], []


class _BridgePlan:
    """External bridges planned as one array pass.

    Bridge ``i`` asks query ``query + 2i`` (strict) and ``query + 2i + 1``
    (potential); its IDDQ detection and peak current need no query.
    """

    def __init__(self, query: int):
        self.query = query
        self.iddq: list[int | None] = []
        self.peak: list[float] = []

    def detection(self, i: int, firsts: Sequence[int | None]) -> Detection:
        strict = self.query + 2 * i
        return Detection(
            firsts[strict], firsts[strict + 1], self.iddq[i], self.peak[i]
        )

    def pending(self, i: int) -> Pending:
        return lambda firsts: self.detection(i, firsts)


class PerFaultSimulator:
    """The per-fault planner over one :class:`SwitchLevelFaultSimulator`.

    Reads the simulator's fault-free state (levels, rows, cells) and shares
    its detection table; keeps its own bitset and table memos.
    """

    def __init__(self, sim: SwitchLevelFaultSimulator):
        self.sim = sim
        self.driver_cell = {cell.output: cell for cell in sim.cells.values()}
        self._tables: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._combos: dict[str, np.ndarray] = {}
        self._drive_code_memo: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._devices: dict[str, tuple[_CellInfo, str, int]] = {}
        self._code_masks: dict[str, list[tuple[int, int]]] = {}
        #: Every vector, and each net's fault-free value, as a bitset.
        self._all = (1 << self.n_patterns) - 1
        self._high: dict[str, int] = {
            net: _mask_bits(values) for net, values in self.values.items()
        }

        # Per-net drive strength rows (strength holding the current value).
        n_nets = self.engine.logic.n_nets
        drives = np.full((n_nets + 2, self.n_patterns), SUPPLY_STRENGTH)
        for net in self.mapped.nets:
            drives[self._row[net]] = self._net_drive(net)
        self._drives = drives

    def __getattr__(self, name: str):
        return getattr(self.sim, name)

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

    def _code_bits(self, cell: _CellInfo) -> list[tuple[int, int]]:
        """(input code, bitset of the vectors applying it) for every code
        the sequence applies to ``cell``."""
        masks = self._code_masks.get(cell.instance)
        if masks is None:
            combos = self._combo_indices(cell)
            masks = self._code_masks[cell.instance] = [
                (code, _mask_bits(combos == code))
                for code in np.unique(combos).tolist()
            ]
        return masks

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
        n_forces = len(self._rows)
        with obs.span(
            "switch_sim.run", n_faults=len(result.faults), n_patterns=self.n_patterns
        ):
            with obs.span("switch_sim.plan"):
                plan = _Plan(self.n_patterns)
                # None marks an external bridge, planned by the array pass.
                pending: list[Pending | None] = []
                external: list[BridgeFault] = []
                for fault in result.faults:
                    name = type(fault).__name__
                    faults_by_class[name] += 1
                    if _is_external_bridge(fault):
                        external.append(fault)
                        pending.append(None)
                        continue
                    n_injections = plan.n_injections
                    t0 = time.perf_counter()
                    pending.append(self._plan(fault, plan))
                    wall_by_class[name] += time.perf_counter() - t0
                    injections_by_class[name] += plan.n_injections - n_injections
                n_injections = plan.n_injections
                t0 = time.perf_counter()
                bridges = self._external_bridges(external, plan)
                if external:
                    name = BridgeFault.__name__
                    wall_by_class[name] += time.perf_counter() - t0
                    injections_by_class[name] += plan.n_injections - n_injections
            with obs.span("switch_sim.fill", n_forces=len(plan.force_ids)):
                rows = self._fill(plan)
            with obs.span("switch_sim.resolve", n_queries=plan.n_queries):
                firsts = self._resolve(plan, rows)
                bridge = 0
                for fault, finish in zip(result.faults, pending):
                    if finish is None:
                        det = bridges.detection(bridge, firsts)
                        bridge += 1
                    else:
                        det = finish(firsts)
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
            obs.inc("switch_sim.detection_words", len(self._rows) - n_forces)
        return result

    def _dispatch(self, fault: RealisticFault) -> Detection:
        """Plan, fill and resolve one fault on its own."""
        plan = _Plan(self.n_patterns)
        finish = self._plan(fault, plan)
        return finish(self._resolve(plan, self._fill(plan)))

    def _plan(self, fault: RealisticFault, plan: _Plan) -> Pending:
        if isinstance(fault, BridgeFault):
            return self._bridge(fault, plan)
        if isinstance(fault, TransistorStuckOn):
            return self._stuck_on(fault.transistor, plan)
        if isinstance(fault, TransistorStuckOpen):
            return self._stuck_open(fault.transistors, plan)
        if isinstance(fault, TransistorGateOpen):
            return self._gate_open(fault.transistor, plan)
        if isinstance(fault, FloatingNetFault):
            return self._floating_net(fault, plan)
        raise TypeError(f"unknown fault class {type(fault).__name__}")

    # ------------------------------------------------------------------
    # Fill and resolve
    # ------------------------------------------------------------------
    def _fill(self, plan: _Plan) -> np.ndarray:
        plan.flush()
        return self.sim._fill(plan)

    def _resolve(self, plan: _Plan, rows: np.ndarray) -> list[int | None]:
        """First detection (1-based) of every query of ``plan``, or None."""
        return [k or None for k in self.sim._resolve(plan, rows).tolist()]


    @staticmethod
    def _first_true(mask: np.ndarray) -> int | None:
        indices = np.flatnonzero(mask)
        return int(indices[0]) + 1 if indices.size else None

    def _flip_injections(self, net: str, flip0: int, flip1: int) -> list[Injection]:
        """Masked single-net injections for force-to-0/force-to-1 vectors."""
        if net in _SUPPLIES:
            return []
        injections = []
        if flip0:
            injections.append((self._net_force(net, 0), flip0))
        if flip1:
            injections.append((self._net_force(net, 1), flip1))
        return injections

    def _x_injections(self, net: str, x_mask: int) -> list[Injection]:
        """Potential-detection injections: force opposite of good at X vectors."""
        if net in _SUPPLIES or not x_mask:
            return []
        high = self._high[net]
        return self._flip_injections(net, x_mask & high, x_mask & ~high)

    def _strict_and_potential(
        self, plan: _Plan, strict: list[Injection], x_forces: list[Injection]
    ) -> tuple[int, int]:
        """Queries over the strict flips, and over the flips plus X forces."""
        return plan.query(strict), plan.query(strict + x_forces)

    # ------------------------------------------------------------------
    # Bridge faults
    # ------------------------------------------------------------------
    def _bridge(self, fault: BridgeFault, plan: _Plan) -> Pending:
        a, b = fault.net_a, fault.net_b
        if {a, b} == _SUPPLY_PAIR:
            # Power-to-ground short: the die draws massive current and no
            # valid levels exist — any vector fails either test.
            if self.n_patterns:
                return _fixed(Detection(1, 1, 1, iddq_current=1e3))
            return _UNDETECTED
        if "#" in a or "#" in b:
            return self._bridge_internal(fault, plan)
        return self._external_bridges([fault], plan).pending(0)

    def _external_bridges(
        self, faults: Sequence[BridgeFault], plan: _Plan
    ) -> _BridgePlan:
        """Plan bridges between two external nets (or a net and a rail)."""
        bridges = _BridgePlan(plan.new_queries(2 * len(faults)))
        if not self.n_patterns:
            bridges.iddq = [None] * len(faults)
            bridges.peak = [0.0] * len(faults)
            return bridges
        rows = max(1, _CHUNK_CELLS // self.n_patterns)
        for start in range(0, len(faults), rows):
            chunk = faults[start : start + rows]
            iddq, peak = self._external_chunk(chunk, bridges.query + 2 * start, plan)
            bridges.iddq.extend(iddq)
            bridges.peak.extend(peak)
        return bridges

    def _external_chunk(
        self, faults: Sequence[BridgeFault], base: int, plan: _Plan
    ) -> tuple[list[int | None], list[float]]:
        """One ``(bridges, vectors)`` array pass of :meth:`_external_bridges`.

        Bridge ``i`` of the chunk asks queries ``base + 2i`` (strict) and
        ``base + 2i + 1`` (potential); returns the chunk's IDDQ first
        detections and peak currents.

        Row by row this is the per-bridge resolution: the two drivers fight
        through a zero-resistance bridge; the side whose level survives
        forces the other net, and an intermediate level is an X.
        """
        row = self._row
        ia = np.array([row[f.net_a] for f in faults], dtype=np.intp)
        ib = np.array([row[f.net_b] for f in faults], dtype=np.intp)
        va = self._levels[ia]
        vb = self._levels[ib]
        diff = va != vb
        ga = self._drives[ia]
        gb = self._drives[ib]
        # Quiescent current of the fight: VDD through the two drive paths in
        # series (zero bridge resistance).
        peak = np.where(diff, ga * gb / (ga + gb), 0.0).max(axis=1)
        v_node = (ga * va + gb * vb) / (ga + gb)
        # Wired-AND tie-break: an exactly balanced fight resolves low.
        low_wins = (v_node <= self.v_low) | (v_node == 0.5)
        a_high = va == 1
        b_high = vb == 1
        a_wins = diff & np.where(a_high, v_node >= self.v_high, low_wins)
        b_wins = diff & np.where(b_high, v_node >= self.v_high, low_wins)
        x_mask = diff & ~a_wins & ~b_wins
        del ga, gb, v_node, low_wins  # free the float rows before the stack
        masks = np.stack(
            (
                a_wins & b_high,
                a_wins & ~b_high,
                b_wins & a_high,
                b_wins & ~a_high,
                x_mask & a_high,
                x_mask & ~a_high,
                x_mask & b_high,
                x_mask & ~b_high,
            ),
            axis=1,
        )
        # A rail is never forced.
        masks[ia >= self._row[VDD]] &= _SLOT_ON_B[:, None]
        masks[ib >= self._row[VDD]] &= ~_SLOT_ON_B[:, None]
        bridge, slot = np.nonzero(masks.any(axis=2))
        packed = _pack_masks(masks[bridge, slot], self.n_words)
        del masks

        # Force ids of the nonempty slots, one dict lookup per distinct force.
        keys = np.where(_SLOT_ON_B[slot], ib[bridge], ia[bridge]) * 2 + _SLOT_VALUE[slot]
        distinct, inverse = np.unique(keys, return_inverse=True)
        net_names = self.engine.logic.net_names
        fids = np.array(
            [
                plan.force_id(self._net_force(net_names[key // 2], key % 2))
                for key in distinct.tolist()
            ],
            dtype=np.intp,
        )[inverse]

        # The strict query takes slots 0-3, the potential query every slot.
        strict = slot < _N_STRICT_SLOTS
        queries = np.concatenate((base + 2 * bridge[strict], base + 2 * bridge + 1))
        entries = np.concatenate((np.flatnonzero(strict), np.arange(len(slot))))
        order = np.argsort(queries, kind="stable")
        entries = entries[order]
        plan.add_block(queries[order], fids[entries], packed[entries])

        iddq = np.where(diff.any(axis=1), diff.argmax(axis=1) + 1, 0)
        return [k or None for k in iddq.tolist()], peak.tolist()

    def _rail_or_values(self, net: str) -> np.ndarray:
        return self._levels[self._row[net]]

    def _rail_or_drive(self, net: str) -> np.ndarray:
        return self._drives[self._row[net]]

    def _bridge_internal(self, fault: BridgeFault, plan: _Plan) -> Pending:
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
                return _fixed(Detection(None, None, 1, iddq_current=0.1))
            return _UNDETECTED
        instance, tag = internal.split("#", 1)
        cell = self.cells.get(instance)
        if cell is None:
            return _UNDETECTED
        tap_index = int(tag[1:])

        out = cell.output
        ext_vals = self._rail_or_values(external)
        ext_drive = self._rail_or_drive(external)
        out_vals = self.values[out]
        out_new, tap_val = self._tap_levels(cell, tap_index, external)

        out_x = out_new == 2
        out_flip0 = (out_new == 0) & (out_vals == 1)
        out_flip1 = (out_new == 1) & (out_vals == 0)
        # A supply-side tap never injects: the flip helpers drop rails.
        ext_x = tap_val == 2
        ext_flip0 = (tap_val == 0) & (ext_vals == 1)
        ext_flip1 = (tap_val == 1) & (ext_vals == 0)
        iddq_mask = ext_x | (out_new != out_vals)

        bits = _mask_bits
        strict_injections = self._flip_injections(
            out, bits(out_flip0), bits(out_flip1)
        )
        strict_injections.extend(
            self._flip_injections(external, bits(ext_flip0), bits(ext_flip1))
        )
        x_injections = self._x_injections(out, bits(out_x))
        x_injections.extend(self._x_injections(external, bits(ext_x)))
        strict, potential = self._strict_and_potential(
            plan, strict_injections, x_injections
        )
        peak = 0.0
        if iddq_mask.any():
            # The fight runs through the external driver and the cell stack;
            # bound it by the external drive strength at the worst vector.
            peak = float(np.where(iddq_mask, np.minimum(ext_drive, 4.0), 0.0).max())
        return _detection(strict, potential, self._first_true(iddq_mask), peak)

    def _tap_levels(
        self, cell: _CellInfo, tap_index: int, external: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-vector (output, tap node) levels of ``cell`` tied at a node
        to net (or rail) ``external``.

        :func:`solve_with_tap` runs once per distinct (input combo, external
        value, external drive); the levels are gathered back per vector.
        """
        drive_levels, drive_code = self._drive_codes(external)
        combos = self._combo_indices(cell)
        keys = (combos * 2 + self._rail_or_values(external)) * len(
            drive_levels
        ) + drive_code
        # Keys are small: rank them through a bin count rather than a sort.
        present = np.bincount(keys) > 0
        unique_keys = np.flatnonzero(present)
        inverse = (np.cumsum(present) - 1)[keys]
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

    def _drive_codes(self, net: str) -> tuple[np.ndarray, np.ndarray]:
        """Distinct drive strengths of ``net`` and each vector's index into
        them, memoised per net."""
        codes = self._drive_code_memo.get(net)
        if codes is None:
            codes = self._drive_code_memo[net] = np.unique(
                self._rail_or_drive(net), return_inverse=True
            )
        return codes

    # ------------------------------------------------------------------
    # Transistor faults
    # ------------------------------------------------------------------
    def _device(self, name: str) -> tuple[_CellInfo, str, int] | None:
        located = self._devices.get(name)
        if located is None:
            instance, dev = name.rsplit(".", 1)
            cell = self.cells.get(instance)
            if cell is None:
                return None
            located = self._devices[name] = (cell, dev[0].lower(), int(dev[1:]))
        return located

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

    def _stuck_on(self, device: str, plan: _Plan) -> Pending:
        located = self._device(device)
        if located is None:
            return _UNDETECTED
        cell, polarity, index = located
        n_mods = {index: "on"} if polarity == "n" else {}
        p_mods = {index: "on"} if polarity == "p" else {}
        g_up, g_down = self._faulty_tables(cell, n_mods, p_mods)

        # The fight and the node voltage depend on the input code only.
        contention = to_high = to_low = x_mask = 0
        peak_current = 0.0
        for code, vectors in self._code_bits(cell):
            up = float(g_up[code])
            down = float(g_down[code])
            total = up + down
            v_node = up / total if total > 0 else math.nan
            if up > 0 and down > 0:
                contention |= vectors
                peak_current = max(peak_current, up * down / total)
                if self.v_low < v_node < self.v_high and v_node != 0.5:
                    x_mask |= vectors
            if v_node >= self.v_high:
                to_high |= vectors
            # Wired-AND tie-break: an exactly balanced fight resolves low.
            if v_node <= self.v_low or v_node == 0.5:
                to_low |= vectors

        high = self._high[cell.output]
        strict, potential = self._strict_and_potential(
            plan,
            self._flip_injections(cell.output, to_low & high, to_high & ~high),
            self._x_injections(cell.output, x_mask),
        )
        return _detection(strict, potential, _lowest_bit(contention), peak_current)

    def _stuck_open(self, devices: tuple[str, ...], plan: _Plan) -> Pending:
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
            return _UNDETECTED
        # Multi-cell stuck-open sets (e.g. a supply-rail break) are handled
        # per cell; detection by any cell's misbehaviour counts.
        cells = [
            self._stuck_open_one_cell(cell, n_mods, p_mods, plan)
            for cell, n_mods, p_mods in by_cell.values()
        ]

        def finish(firsts: Sequence[int | None]) -> Detection:
            strict: int | None = None
            potential: int | None = None
            for cell_finish in cells:
                det = cell_finish(firsts)
                strict = _min_opt(strict, det.strict)
                potential = _min_opt(potential, det.merged_potential())
            return Detection(strict, potential, None)  # no quiescent current

        return finish

    def _stuck_open_one_cell(
        self,
        cell: _CellInfo,
        n_mods: dict[int, str],
        p_mods: dict[int, str],
        plan: _Plan,
    ) -> Pending:
        """Planned once per (instance, mods) in ``plan``."""
        key = (cell.instance, _mods_key(n_mods), _mods_key(p_mods))
        memo = plan.stuck_open.get(key)
        if memo is not None:
            return memo
        g_up, g_down = self._faulty_tables(cell, n_mods, p_mods)
        pulled_high = pulled_low = floating = 0
        for code, vectors in self._code_bits(cell):
            if g_up[code] > 0:
                if g_down[code] <= 0:
                    pulled_high |= vectors
            elif g_down[code] > 0:
                pulled_low |= vectors
            else:
                floating |= vectors
        level1, level0 = retained_bits(pulled_high, pulled_low, floating, self._all)
        x_mask = self._all & ~(level1 | level0)
        high = self._high[cell.output]

        strict, potential = self._strict_and_potential(
            plan,
            self._flip_injections(cell.output, level0 & high, level1 & ~high),
            self._x_injections(cell.output, x_mask),
        )
        finish = plan.stuck_open[key] = _detection(strict, potential, None, 0.0)
        return finish

    def _gate_open(self, device: str, plan: _Plan) -> Pending:
        """Floating single gate: unknown but fixed state.

        Strict voltage detection requires failing under both the always-on
        and always-off assumption; potential detection under either.
        """
        located = self._device(device)
        if located is None:
            return _UNDETECTED
        cell, polarity, index = located
        off_mods = ({index: "absent"}, {}) if polarity == "n" else ({}, {index: "absent"})

        on = self._stuck_on(device, plan)
        off = self._stuck_open_one_cell(cell, *off_mods, plan)

        def finish(firsts: Sequence[int | None]) -> Detection:
            det_on = on(firsts)
            det_off = off(firsts)
            strict = _max_opt(det_on.strict, det_off.strict)
            potential = _min_opt(det_on.merged_potential(), det_off.merged_potential())
            return Detection(
                strict, potential, det_on.iddq, iddq_current=det_on.iddq_current
            )

        return finish

    # ------------------------------------------------------------------
    # Floating-net (open) faults
    # ------------------------------------------------------------------
    def _floating_net(self, fault: FloatingNetFault, plan: _Plan) -> Pending:
        if fault.floating_inputs:
            return self._floating_inputs(fault, plan)
        if fault.stuck_open:
            return self._stuck_open(fault.stuck_open, plan)
        # Only a primary-output observer floats: the tester cannot *rely* on
        # the unknown level (strict: undetected) but will very likely see a
        # wrong value at some point (potential: first vector).
        if fault.floats_output_port and self.n_patterns:
            return _fixed(Detection(None, 1, None))
        return _UNDETECTED

    def _floating_inputs(self, fault: FloatingNetFault, plan: _Plan) -> Pending:
        net = fault.net
        if net not in self.values:
            return _UNDETECTED
        forces_template: list[tuple[str, int]] = []
        for instance, _ in fault.floating_inputs:
            cell = self.cells.get(instance)
            if cell is None:
                continue
            for pin, pin_net in enumerate(cell.inputs):
                if pin_net == net:
                    forces_template.append((instance, pin))
        if not forces_template:
            return _UNDETECTED

        # Trapped charge at ``assumption`` misbehaves where the net is not.
        high = self._high[net]
        queries = [
            plan.query(
                [
                    (
                        tuple(
                            StuckAtFault(net, assumption, FaultSite.GATE_INPUT, inst, pin)
                            for inst, pin in forces_template
                        ),
                        self._all & ~high if assumption else high,
                    )
                ]
            )
            for assumption in (0, 1)
        ]

        def finish(firsts: Sequence[int | None]) -> Detection:
            low, high = (firsts[q] for q in queries)
            strict = None
            if low is not None and high is not None:
                strict = max(low, high)
            return Detection(strict, _min_opt(low, high), None)

        return finish



def retained_bits(
    pulled_high: int, pulled_low: int, floating: int, every: int
) -> tuple[int, int]:
    """Vectors (bitsets, bit k = vector k) where a node with charge
    retention reads 1 and reads 0; the rest of ``every`` reads X.

    A node pulled one way only takes that level.  A floating node (neither
    network conducts) holds the level of the last vector that pulled it one
    way, and reads X before any such vector.  A node pulled both ways reads
    X and leaves the held charge as it was.  Adding ``pulled << 1`` to the
    bitset of unpulled vectors (floating or fought over) carries through
    each run of them that follows a pulled vector; the XOR recovers the run.
    """
    unpulled = every & ~(pulled_high | pulled_low)
    held_high = ((unpulled + (pulled_high << 1)) ^ unpulled) & floating
    held_low = ((unpulled + (pulled_low << 1)) ^ unpulled) & floating
    return pulled_high | held_high, pulled_low | held_low


def _is_external_bridge(fault: RealisticFault) -> TypeGuard[BridgeFault]:
    """A bridge :meth:`SwitchLevelFaultSimulator._external_bridges` plans."""
    return (
        isinstance(fault, BridgeFault)
        and "#" not in fault.net_a
        and "#" not in fault.net_b
        and {fault.net_a, fault.net_b} != _SUPPLY_PAIR
    )


def _fixed(detection: Detection) -> Pending:
    """A planned fault whose detection needs no query."""
    return lambda firsts: detection


#: A planned fault that no vector detects.
_UNDETECTED = _fixed(Detection())


def _queried(
    strict: int,
    potential: int,
    iddq: int | None,
    iddq_current: float,
    firsts: Sequence[int | None],
) -> Detection:
    return Detection(firsts[strict], firsts[potential], iddq, iddq_current)


def _detection(
    strict: int, potential: int, iddq: int | None, iddq_current: float
) -> Pending:
    """A planned fault whose strict and potential detections are queries."""
    return partial(_queried, strict, potential, iddq, iddq_current)


def _mask_bits(mask: np.ndarray) -> int:
    """A boolean vector mask as a bitset (bit k = vector k)."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _lowest_bit(bits: int) -> int | None:
    """1-based index of the lowest set bit, or None for 0."""
    return (bits & -bits).bit_length() or None


def _mods_key(mods: dict[int, str]) -> tuple[tuple[int, str], ...]:
    return tuple(sorted(mods.items()))


def _min_opt(a: int | None, b: int | None) -> int | None:
    candidates = [x for x in (a, b) if x is not None]
    return min(candidates) if candidates else None


def _max_opt(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return max(a, b)

