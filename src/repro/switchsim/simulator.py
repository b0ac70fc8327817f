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
M", and F's detection bitset does not depend on M.  A fault's behaviour on a
vector depends only on a few discrete states of that vector: a cell's input
code, or a net's (value, drive level).  The simulator keeps one packed
``uint64`` bitset (bit k = vector k) per state each net and each cell takes
over the sequence, so every fault class is evaluated once per distinct state
(or state pair), and a fault's masks are ORs of intersected state bitsets.
:meth:`run` works in three phases, each a child span of ``switch_sim.run``:

* **plan** (``switch_sim.plan``) — one array pass per fault class emits
  every fault's injections as packed rows, grouped into queries ("first
  vector where any of these injections is detected"): bridges over their
  (state of a, state of b) pairs, internal-node bridges over (cell code,
  external state) pairs with one memoised :func:`solve_with_tap` per
  distinct key, stuck-on devices per cell code, stuck-open cells per
  (cell, devices) with charge retention carried across the packed words,
  and floating inputs from the net's value bitset;
* **fill** (``switch_sim.fill``) — each distinct force with a nonempty mask
  is simulated once, as lanes of the numpy bitslice engine
  (:meth:`~repro.simulation.numpy_sim.NumpyFaultSimulator.detection_words`)
  over one block holding the whole sequence, into the detection table;
* **resolve** (``switch_sim.resolve``) — a query's first detection is the
  lowest set bit of the OR of ``table[F] & M`` over its injections, taken
  for all queries at once; per-fault strict, potential and IDDQ columns
  follow by array reductions (the earliest cell of a multi-cell stuck-open,
  the both/either rule of gate-opens and floating inputs).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

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
from repro.simulation.faults import FaultSite, StuckAtFault
from repro.simulation.numpy_sim import NumpyFaultSimulator, pack_bitslice
from repro.switchsim.strengths import (
    PI_STRENGTH,
    SUPPLY_STRENGTH,
    V_HIGH,
    V_LOW,
    cell_conductances,
    solve_with_tap,
)

__all__ = ["SwitchSimResult", "SwitchLevelFaultSimulator", "Detection"]

_SUPPLY_PAIR = frozenset((VDD, GND))

#: Cells (rows x vectors) of one chunk of unpacked planning arrays, and
#: words (rows x 64-vector words) of one chunk of packed rows.  Either
#: keeps each temporary near 1 MB and a pass's working set under 8 MB.
_CHUNK_CELLS = 1 << 17
_CHUNK_WORDS = 1 << 17

#: Injection slots of a fault that may force two nets, a and b: strict
#: flips of b, strict flips of a, then the X forces of a and of b.  Slot ->
#: (forces net b, stuck value).  The strict query takes slots 0-3, the
#: potential query every slot.
_SLOT_ON_B = np.array([1, 1, 0, 0, 0, 0, 1, 1], dtype=bool)
_SLOT_VALUE = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int64)
_N_STRICT_SLOTS = 4

#: How a cell output with open devices is driven under one input code.
_FOUGHT, _PULLED_HIGH, _PULLED_LOW, _FLOATING = 0, 1, 2, 3

#: Flat gate kind of a memoised tap solve: (cell type, fan-in, tapped node).
_TapKind = tuple[GateType, int, int]
#: A device of a cell: (polarity "n"/"p", index in its network).
_Device = tuple[str, int]
#: Per state row: slot bits, whether it draws quiescent current, how much.
_Outcome = tuple[np.ndarray, np.ndarray, np.ndarray]


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


@dataclass
class _StateSet:
    """The distinct per-vector states of a set of rows (nets or cells).

    Row ``r`` takes states ``state[start[r] : start[r] + count[r]]``
    (ascending); ``bits`` holds each entry's vectors as a packed bitset.
    """

    start: np.ndarray
    count: np.ndarray
    state: np.ndarray
    bits: np.ndarray


class _Plan:
    """Masked injections of a set of faults, grouped into queries.

    A query asks for the first vector where any of its injections reaches a
    primary output.  Injections are kept as blocks of ``(query ids, force
    ids, packed masks)`` with each query's injections contiguous inside one
    block, so the resolve pass ORs them with one ``reduceat`` per block.
    Callers add only injections with a nonempty mask.
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

    def new_queries(self, n: int) -> int:
        """Reserve ``n`` consecutive query ids; returns the first."""
        first = self.n_queries
        self.n_queries += n
        return first

    def force_id(self, forces: tuple[StuckAtFault, ...]) -> int:
        return self.force_ids.setdefault(forces, len(self.force_ids))

    def add_block(
        self, queries: np.ndarray, forces: np.ndarray, masks: np.ndarray
    ) -> None:
        """Injections already packed, with ``queries`` nondecreasing."""
        if len(queries):
            self.blocks.append((queries, forces, masks))
            self.n_injections += len(queries)


class _Planned:
    """Planned faults by class: what resolve needs to build their columns.

    Indices are positions in the fault list; a query pair ``(q, q + 1)`` is
    a strict and a potential query.  A stuck-open *cell plan* is the
    charge-retention behaviour of one cell with a set of devices open,
    planned once however many faults (stuck-opens, supply breaks,
    gate-opens' always-off halves) share it.
    """

    def __init__(self, n_faults: int):
        self.n_faults = n_faults
        #: (faults, strict query, IDDQ first detection, peak) per pass.
        self.paired: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        #: (fault, strict, potential, iddq, peak) needing no query; 0 = none.
        self.fixed: list[tuple[int, int, int, int, float]] = []
        #: Cell plans: (cell, open devices) -> id; per id its cell, devices,
        #: first fault using it, strict query and injection count.
        self.cell_plans: dict[tuple[int, tuple[_Device, ...]], int] = {}
        self.plan_cell: list[int] = []
        self.plan_devices: list[tuple[_Device, ...]] = []
        self.plan_first: list[int] = []
        self.plan_query: list[int] = []
        self.plan_injections: list[int] = []
        #: Stuck-open faults and the cell plans of each.
        self.opens: list[int] = []
        self.open_plans: list[list[int]] = []
        #: (faults, stuck-on strict query, IDDQ, peak, always-off cell plan).
        self.gate_opens: list[tuple[np.ndarray, ...]] = []
        #: (faults, query of the held-0 assumption; held 1 is the next).
        self.floating: list[tuple[np.ndarray, np.ndarray]] = []
        #: Injections and pass wall time per fault class; the planner's
        #: work: distinct tap solves and state pairs intersected.
        self.injections: Counter[str] = Counter()
        self.walls: Counter[str] = Counter()
        self.tap_solves = 0
        self.state_pairs = 0

    def cell_plan(self, cell: int, devices: tuple[_Device, ...], fault: int) -> int:
        """Id of the plan of ``cell`` with ``devices`` (sorted) open."""
        plan = self.cell_plans.get((cell, devices))
        if plan is None:
            plan = self.cell_plans[cell, devices] = len(self.plan_cell)
            self.plan_cell.append(cell)
            self.plan_devices.append(devices)
            self.plan_first.append(fault)
        elif fault < self.plan_first[plan]:
            self.plan_first[plan] = fault
        return plan

    def columns(
        self, firsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-fault (strict, potential, iddq, peak) from query detections.

        Detections are 1-based vector indices, 0 for none.  Potential is as
        planned, before it is merged with strict.
        """
        n = self.n_faults
        strict = np.zeros(n, dtype=np.int64)
        potential = np.zeros(n, dtype=np.int64)
        iddq = np.zeros(n, dtype=np.int64)
        peak = np.zeros(n)
        for faults, query, first_iddq, current in self.paired:
            strict[faults] = firsts[query]
            potential[faults] = firsts[query + 1]
            iddq[faults] = first_iddq
            peak[faults] = current
        plan_query = np.array(self.plan_query, dtype=np.intp)
        plan_strict = firsts[plan_query]
        plan_potential = _earliest(plan_strict, firsts[plan_query + 1])
        if self.opens:
            faults = np.array(self.opens, dtype=np.intp)
            sizes = [len(plans) for plans in self.open_plans]
            plans = np.fromiter(
                (p for ps in self.open_plans for p in ps), np.intp, sum(sizes)
            )
            starts = np.cumsum([0, *sizes[:-1]])
            strict[faults] = _earliest_reduce(plan_strict[plans], starts)
            potential[faults] = _earliest_reduce(plan_potential[plans], starts)
        for faults, query, first_iddq, current, off in self.gate_opens:
            on_strict = firsts[query]
            on_potential = _earliest(on_strict, firsts[query + 1])
            strict[faults] = _both(on_strict, plan_strict[off])
            potential[faults] = _earliest(on_potential, plan_potential[off])
            iddq[faults] = first_iddq
            peak[faults] = current
        for faults, query in self.floating:
            low, high = firsts[query], firsts[query + 1]
            strict[faults] = _both(low, high)
            potential[faults] = _earliest(low, high)
        for i, s, p, q, current in self.fixed:
            strict[i], potential[i], iddq[i], peak[i] = s, p, q, current
        return strict, potential, iddq, peak


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
        self.n_words = -(-self.n_patterns // 64)
        # One block spans the whole sequence: every force is simulated in a
        # single pass (bit k = vector k).
        self.engine = NumpyFaultSimulator(self.mapped, width=64 * max(1, self.n_words))
        if not 0 < v_low <= 0.5 <= v_high < 1:
            raise ValueError("thresholds must satisfy 0 < v_low <= 0.5 <= v_high < 1")
        self.v_low = v_low
        self.v_high = v_high

        self.cells: dict[str, _CellInfo] = {
            g.name: _CellInfo(g, g.name, g.inputs, g.output, g.gate_type)
            for g in self.mapped.gates
        }

        #: Force tuple -> row of the detection table.  A force is simulated
        #: once however many faults, vector masks and runs use it.
        self._rows: dict[tuple[StuckAtFault, ...], int] = {}
        #: Detection table: row = sequence-wide bitset of where those
        #: simultaneous stuck-at forces reach a primary output.
        self._table = np.zeros((0, self.n_words), dtype=np.uint64)
        self._tables: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        #: (tap kind, input code, external state) -> (output, tap) levels.
        self._taps: dict[tuple[_TapKind, int, int], tuple[int, int]] = {}
        self._devices: dict[str, tuple[int, _Device] | None] = {}
        self._net_forces: dict[tuple[str, int], tuple[StuckAtFault]] = {}
        self._simulate_good()

    # ------------------------------------------------------------------
    # Fault-free preparation
    # ------------------------------------------------------------------
    def _simulate_good(self) -> None:
        logic = self.engine.logic
        n_nets = logic.n_nets
        #: Fault-free ``(words, n_nets)`` block of the whole sequence.
        self.good = self.engine.good_block(
            pack_bitslice(self.patterns, len(self.mapped.primary_inputs))
        )
        #: Net (or supply rail) -> row of the per-vector level and drive
        #: matrices; the two rails follow the net ids.
        self._row: dict[str, int] = dict(logic.net_id)
        self._row[VDD] = n_nets
        self._row[GND] = n_nets + 1
        self._n_nets = n_nets

        # Per-net value rows over all vectors (numpy uint8).
        levels = np.zeros((n_nets + 2, self.n_patterns), dtype=np.uint8)
        levels[:n_nets] = np.unpackbits(
            np.ascontiguousarray(self.good.T).astype("<u8", copy=False).view(np.uint8),
            axis=1,
            count=self.n_patterns,
            bitorder="little",
        )
        levels[self._row[VDD]] = 1
        self._levels = levels
        self.values: dict[str, np.ndarray] = {
            net: levels[logic.net_id[net]] for net in self.mapped.nets
        }

        # Per-vector input code of every cell (bit i = input pin i).
        cells = list(self.cells.values())
        self._cell_index = {cell.instance: i for i, cell in enumerate(cells)}
        self._cell_out = np.array([self._row[c.output] for c in cells], dtype=np.intp)
        width = max((len(cell.inputs) for cell in cells), default=0)
        self._code_width = width
        codes = np.zeros(
            (len(cells), self.n_patterns), dtype=np.min_scalar_type((1 << width) - 1)
        )
        for pin in range(width):
            pin_rows = [
                self._row[c.inputs[pin]] if pin < len(c.inputs) else self._row[GND]
                for c in cells
            ]
            codes |= levels[pin_rows].astype(codes.dtype) << pin
        self._codes = codes

        #: (cell type, fan-in) of every cell.
        self._cell_kinds = [(cell.gate_type, len(cell.inputs)) for cell in cells]
        # Per-net drive strength (holding the current value), as an index
        # into the few distinct strengths the library's cells produce.
        kinds: dict[tuple[GateType, int], list[int]] = {}
        for i, kind in enumerate(self._cell_kinds):
            kinds.setdefault(kind, []).append(i)
        tables = {kind: self._faulty_tables(*kind, "", ()) for kind in kinds}
        strengths = np.unique(
            np.concatenate(
                [[PI_STRENGTH, SUPPLY_STRENGTH]]
                + [table for pair in tables.values() for table in pair]
            )
        )
        #: Distinct drive strengths; a net's state is value + 2 * strength
        #: index.
        self._drive_levels = strengths
        drive = np.full(
            (n_nets + 2, self.n_patterns),
            np.searchsorted(strengths, PI_STRENGTH),
            dtype=np.min_scalar_type(2 * len(strengths)),
        )
        drive[n_nets:] = np.searchsorted(strengths, SUPPLY_STRENGTH)
        for kind, members in kinds.items():
            g_up, g_down = (np.searchsorted(strengths, g) for g in tables[kind])
            code = codes[members]
            out = self._cell_out[members]
            drive[out] = np.where(levels[out] == 1, g_up[code], g_down[code])
        self._drive_code = drive

    @cached_property
    def _net_states(self) -> _StateSet:
        """Distinct (value, drive strength) states of every net and rail."""
        states = self._levels + 2 * self._drive_code
        return _state_set(states, 2 * len(self._drive_levels), self.n_words)

    @cached_property
    def _cell_states(self) -> tuple[_StateSet, np.ndarray]:
        """Distinct input codes of every cell, and each entry's good output."""
        states = _state_set(self._codes, 1 << self._code_width, self.n_words)
        owner = np.repeat(np.arange(len(states.count)), states.count)
        first = _first_set_bits(states.bits) - 1
        return states, self._levels[self._cell_out[owner], first]

    @cached_property
    def _net_high(self) -> np.ndarray:
        """Each net's (and rail's) fault-free value rows, packed."""
        return _pack_masks(self._levels, self.n_words)

    @cached_property
    def _whole(self) -> _StateSet:
        """One row whose one state is the whole sequence."""
        return _state_set(np.zeros((1, self.n_patterns), np.uint8), 1, self.n_words)

    @property
    def _every(self) -> np.ndarray:
        """Packed bitset of every vector of the sequence (the VDD row)."""
        return self._net_high[self._row[VDD]]

    @cached_property
    def _bridge_outcomes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per pair of net states (a, b): slot bits, fight, quiescent current.

        The two drivers fight through a zero-resistance bridge; the side
        whose level survives forces the other net, and an intermediate
        level is an X.
        """
        state = np.arange(2 * len(self._drive_levels))
        value = (state % 2).astype(np.float64)
        drive = self._drive_levels[state // 2]
        va, vb = value[:, None], value[None, :]
        ga, gb = drive[:, None], drive[None, :]
        diff = va != vb
        with np.errstate(invalid="ignore"):  # no net holds a level undriven
            # Quiescent current of the fight: VDD through the two drive
            # paths in series (zero bridge resistance).
            current = np.where(diff, ga * gb / (ga + gb), 0.0)
            v_node = (ga * va + gb * vb) / (ga + gb)
        # Wired-AND tie-break: an exactly balanced fight resolves low.
        low_wins = (v_node <= self.v_low) | (v_node == 0.5)
        a_high = va == 1
        b_high = vb == 1
        a_wins = diff & np.where(a_high, v_node >= self.v_high, low_wins)
        b_wins = diff & np.where(b_high, v_node >= self.v_high, low_wins)
        x = diff & ~a_wins & ~b_wins
        slots = _slot_bits(
            a_wins & b_high,
            a_wins & ~b_high,
            b_wins & a_high,
            b_wins & ~a_high,
            x & a_high,
            x & ~a_high,
            x & b_high,
            x & ~b_high,
        )
        return slots, diff, current

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, faults: Sequence[RealisticFault]) -> SwitchSimResult:
        """Simulate every fault; return first-detection indices."""
        result = SwitchSimResult(faults=list(faults), n_patterns=self.n_patterns)
        n_forces = len(self._rows)
        with obs.span(
            "switch_sim.run", n_faults=len(result.faults), n_patterns=self.n_patterns
        ):
            with obs.span("switch_sim.plan"):
                plan = _Plan(self.n_patterns)
                planned = self._plan(result.faults, plan)
            with obs.span("switch_sim.fill", n_forces=len(plan.force_ids)):
                rows = self._fill(plan)
            with obs.span("switch_sim.resolve", n_queries=plan.n_queries):
                strict, potential, iddq, peak = planned.columns(
                    self._resolve(plan, rows)
                )
                ids = [id(fault) for fault in result.faults]
                _fill_dict(result.first_detection, ids, strict)
                _fill_dict(
                    result.first_detection_potential, ids, _earliest(strict, potential)
                )
                _fill_dict(result.first_detection_iddq, ids, iddq)
                _fill_dict(result.iddq_peak, ids, peak)
        obs.inc("switch_sim.faults_simulated", len(result.faults))
        obs.inc("switch_sim.detected_strict", len(result.first_detection))
        obs.inc(
            "switch_sim.detected_potential", len(result.first_detection_potential)
        )
        obs.inc("switch_sim.detected_iddq", len(result.first_detection_iddq))
        if obs.is_enabled():
            by_class = Counter(type(fault).__name__ for fault in result.faults)
            for name, count in by_class.items():
                obs.inc(f"switch_sim.faults.{name}", count)
            for name, count in planned.injections.items():
                obs.inc(f"switch_sim.injections.{name}", count)
            for name, seconds in planned.walls.items():
                obs.set_gauge(f"switch_sim.wall_s.{name}", seconds)
            obs.inc("switch_sim.detection_words", len(self._rows) - n_forces)
            obs.inc("switch_sim.tap_solves", planned.tap_solves)
            obs.inc("switch_sim.state_pairs", planned.state_pairs)
        return result

    def _dispatch(self, fault: RealisticFault) -> Detection:
        """Plan, fill and resolve one fault on its own."""
        plan = _Plan(self.n_patterns)
        planned = self._plan([fault], plan)
        strict, potential, iddq, peak = planned.columns(
            self._resolve(plan, self._fill(plan))
        )
        return Detection(
            int(strict[0]) or None,
            int(potential[0]) or None,
            int(iddq[0]) or None,
            float(peak[0]),
        )

    def _plan(self, faults: Sequence[RealisticFault], plan: _Plan) -> _Planned:
        """Plan ``faults`` in one class-wide pass per fault class.

        Each pass's wall time and injections are charged to its class,
        except a stuck-open cell plan's injections, which go to the class
        of the first fault (in list order) that uses it.
        """
        by_type: dict[type, list[int]] = {}
        for i, fault in enumerate(faults):
            by_type.setdefault(type(fault), []).append(i)
        by_class: dict[type, list[int]] = {cls: [] for cls in _PASSES}
        for cls, indices in by_type.items():
            by_class[_fault_class(cls)].extend(indices)
        planned = _Planned(len(faults))
        for cls, indices in by_class.items():
            if not indices:
                continue
            injections = plan.n_injections
            cell_plans = len(planned.plan_query)
            t0 = time.perf_counter()
            _PASSES[cls](self, [faults[i] for i in indices], indices, plan, planned)
            planned.walls[cls.__name__] += time.perf_counter() - t0
            shared = sum(planned.plan_injections[cell_plans:])
            planned.injections[cls.__name__] += plan.n_injections - injections - shared
        for first, count in zip(planned.plan_first, planned.plan_injections):
            if count:
                planned.injections[_fault_class(type(faults[first])).__name__] += count
        return planned

    # ------------------------------------------------------------------
    # Fill and resolve
    # ------------------------------------------------------------------
    def _fill(self, plan: _Plan) -> np.ndarray:
        """Table row of each of the plan's force ids.

        Forces not yet in the table are simulated, all in one call to the
        numpy engine, and appended to it.
        """
        rows = np.empty(len(plan.force_ids), dtype=np.intp)
        new: list[tuple[StuckAtFault, ...]] = []
        for fid, forces in enumerate(plan.force_ids):
            row = self._rows.get(forces)
            if row is None:
                row = self._rows[forces] = len(self._rows)
                new.append(forces)
            rows[fid] = row
        if new:
            words = self.engine.detection_words(self.good, self.n_patterns, new)
            self._table = np.concatenate((self._table, words))
        return rows

    def _resolve(self, plan: _Plan, rows: np.ndarray) -> np.ndarray:
        """First detection (1-based; 0 for none) of every query of ``plan``."""
        hit = np.zeros((plan.n_queries, plan.n_words), dtype=np.uint64)
        for queries, forces, masks in plan.blocks:
            detected = self._table[rows[forces]] & masks
            starts = np.flatnonzero(np.diff(queries, prepend=-1))
            hit[queries[starts]] |= np.bitwise_or.reduceat(detected, starts, axis=0)
        return _first_set_bits(hit)

    # ------------------------------------------------------------------
    # Injections from state bitsets
    # ------------------------------------------------------------------
    def _net_force(self, net: str, value: int) -> tuple[StuckAtFault]:
        """The (shared) single stuck-at force tuple of ``net`` at ``value``."""
        forces = self._net_forces.get((net, value))
        if forces is None:
            forces = self._net_forces[net, value] = (StuckAtFault(net, value),)
        return forces

    def _emit_slots(
        self,
        plan: _Plan,
        base: int,
        owner: np.ndarray,
        slot: np.ndarray,
        masks: np.ndarray,
        nets: np.ndarray,
    ) -> np.ndarray:
        """Add slot injections to ``plan``; returns injections per owner.

        Row ``i`` is the nonempty mask of slot ``slot[i]`` of owner
        ``owner[i]`` (nondecreasing), whose strict and potential queries are
        ``base + 2 * owner`` and the next.  ``nets`` holds each owner's
        (net a, net b) rows.  A rail is never forced.
        """
        net = nets[owner, _SLOT_ON_B[slot].astype(np.intp)]
        keep = np.flatnonzero(net < self._n_nets)
        owner, slot, net = owner[keep], slot[keep], net[keep]
        # Force ids, one dict lookup per distinct force.
        distinct, inverse = np.unique(net * 2 + _SLOT_VALUE[slot], return_inverse=True)
        names = self.engine.logic.net_names
        fids = np.array(
            [
                plan.force_id(self._net_force(names[key >> 1], key & 1))
                for key in distinct.tolist()
            ],
            dtype=np.intp,
        )[inverse.reshape(-1)]
        strict = np.flatnonzero(slot < _N_STRICT_SLOTS)
        queries = np.concatenate((base + 2 * owner[strict], base + 2 * owner + 1))
        entries = np.concatenate((strict, np.arange(len(slot))))
        order = np.argsort(queries, kind="stable")
        entries = entries[order]
        plan.add_block(queries[order], fids[entries], masks[keep[entries]])
        n_owners = len(nets)
        return np.bincount(owner[strict], minlength=n_owners) + np.bincount(
            owner, minlength=n_owners
        )

    def _plan_pairs(
        self,
        plan: _Plan,
        planned: _Planned,
        a: tuple[_StateSet, np.ndarray],
        b: tuple[_StateSet, np.ndarray],
        outcome: Callable[[np.ndarray, np.ndarray, np.ndarray], _Outcome],
        nets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Faults planned over every pair of states of two rows.

        Fault ``i`` reads row ``a[1][i]`` of state set ``a[0]`` and row
        ``b[1][i]`` of ``b[0]``; each pair of their states that shares a
        vector is one state row, and ``outcome(fault, entry a, entry b)``
        gives its slot bits, whether it draws quiescent current and how
        much.  A slot's mask is the OR of the fault's state rows that set
        it; ``nets`` holds each fault's (net a, net b) rows.  Returns each
        fault's strict query (potential is the next), IDDQ first detection
        and peak current.
        """
        (set_a, rows_a), (set_b, rows_b) = a, b
        n = len(rows_a)
        base = plan.new_queries(2 * n)
        iddq = np.zeros(n, dtype=np.int64)
        peak = np.zeros(n)
        count_a, count_b = set_a.count[rows_a], set_b.count[rows_b]
        for lo, hi in _spans(count_a * count_b * self.n_words, _CHUNK_WORDS):
            owner, j, k = _pairs(count_a[lo:hi], count_b[lo:hi])
            ea = set_a.start[rows_a[lo:hi]][owner] + j
            eb = set_b.start[rows_b[lo:hi]][owner] + k
            planned.state_pairs += len(owner)
            bits = set_a.bits[ea] & set_b.bits[eb]
            keep = np.flatnonzero(bits.any(axis=1))
            owner, bits = owner[keep], bits[keep]
            slots, fight, current = outcome(lo + owner, ea[keep], eb[keep])
            # Each slot's mask: the OR of the owner's rows that set it.
            row, slot = np.nonzero(
                np.unpackbits(slots[:, None], axis=1, bitorder="little")
            )
            if len(row):
                key = owner[row] * 8 + slot
                order = np.argsort(key, kind="stable")
                key = key[order]
                starts = np.flatnonzero(np.diff(key, prepend=-1))
                masks = np.bitwise_or.reduceat(bits[row[order]], starts, axis=0)
                group, slot = np.divmod(key[starts], 8)
                self._emit_slots(plan, base + 2 * lo, group, slot, masks, nets[lo:hi])
            iddq[lo:hi], peak[lo:hi] = _iddq(owner, bits, fight, current, hi - lo)
        return base + 2 * np.arange(n), iddq, peak

    # ------------------------------------------------------------------
    # Bridge faults
    # ------------------------------------------------------------------
    def _plan_bridges(
        self,
        faults: list[BridgeFault],
        indices: list[int],
        plan: _Plan,
        planned: _Planned,
    ) -> None:
        external: list[tuple[int, int, int]] = []
        internal: list[tuple[int, int, int, int]] = []
        row = self._row
        for i, fault in zip(indices, faults):
            a, b = fault.net_a, fault.net_b
            if "#" not in a and "#" not in b:
                if a in _SUPPLY_PAIR and b in _SUPPLY_PAIR and a != b:
                    # Power-to-ground short: the die draws massive current
                    # and no valid levels exist — any vector fails either
                    # test.
                    if self.n_patterns:
                        planned.fixed.append((i, 1, 1, 1, 1e3))
                else:
                    external.append((i, row[a], row[b]))
                continue
            tapped = a if "#" in a else b
            other = b if tapped == a else a
            if "#" in other:
                # Internal-to-internal bridges across cells: both nodes sit
                # inside series stacks; the vector-level effect is at worst
                # an intermediate level.  Voltage-undetectable; IDDQ flags
                # the conducting pair (conservatively: from the first
                # vector, at a weak stack-limited current).
                if self.n_patterns:
                    planned.fixed.append((i, 0, 0, 1, 0.1))
                continue
            instance, tag = tapped.split("#", 1)
            cell = self._cell_index.get(instance)
            if cell is not None:
                internal.append((i, cell, int(tag[1:]), row[other]))
        if external:
            self._external_bridges(np.array(external, dtype=np.intp), plan, planned)
        if internal:
            self._internal_bridges(np.array(internal, dtype=np.intp), plan, planned)

    def _external_bridges(
        self, bridges: np.ndarray, plan: _Plan, planned: _Planned
    ) -> None:
        """Bridges between two external nets (or a net and a rail).

        Rows are ``(fault, net a row, net b row)``; each pair of states the
        two nets take on a common vector resolves by the two drivers'
        strengths (:attr:`_bridge_outcomes`).
        """
        nets = self._net_states
        slot_of, fight_of, current_of = self._bridge_outcomes

        def outcome(owner: np.ndarray, ea: np.ndarray, eb: np.ndarray) -> _Outcome:
            sa, sb = nets.state[ea], nets.state[eb]
            return slot_of[sa, sb], fight_of[sa, sb], current_of[sa, sb]

        columns = self._plan_pairs(
            plan,
            planned,
            (nets, bridges[:, 1]),
            (nets, bridges[:, 2]),
            outcome,
            bridges[:, 1:],
        )
        planned.paired.append((bridges[:, 0], *columns))

    def _internal_bridges(
        self, bridges: np.ndarray, plan: _Plan, planned: _Planned
    ) -> None:
        """Bridges between a cell-internal chain node and an external net.

        Rows are ``(fault, cell, tapped node, external net row)``.  The
        cell's output and the external net are solved per (input code,
        external state) pair, each distinct (cell kind, node, code, state)
        once per simulator.  The fight runs through the external driver and
        the cell stack; its current is bounded by the external drive.
        """
        cell_states, out_value = self._cell_states
        nets = self._net_states
        kinds: dict[_TapKind, int] = {}
        kind = np.array(
            [
                kinds.setdefault((*self._cell_kinds[cell], tap), len(kinds))
                for cell, tap in bridges[:, 1:3].tolist()
            ],
            dtype=np.int64,
        )
        kind_list = list(kinds)
        n_codes = 1 << self._code_width
        n_states = 2 * len(self._drive_levels)

        def outcome(owner: np.ndarray, ec: np.ndarray, en: np.ndarray) -> _Outcome:
            code = cell_states.state[ec].astype(np.int64)
            state = nets.state[en].astype(np.int64)
            keys = (kind[owner] * n_codes + code) * n_states + state
            distinct, inverse = np.unique(keys, return_inverse=True)
            solved = np.array(
                [
                    self._tap(
                        kind_list[key // (n_codes * n_states)],
                        key // n_states % n_codes,
                        key % n_states,
                        planned,
                    )
                    for key in distinct.tolist()
                ],
                dtype=np.int64,
            ).reshape(-1, 2)[inverse.reshape(-1)]
            out_new, tap_val = solved[:, 0], solved[:, 1]
            good = out_value[ec]
            value = state % 2
            # A supply-side tap never injects: the emitter drops rails.
            slots = _slot_bits(
                (tap_val == 0) & (value == 1),
                (tap_val == 1) & (value == 0),
                (out_new == 0) & (good == 1),
                (out_new == 1) & (good == 0),
                (out_new == 2) & (good == 1),
                (out_new == 2) & (good == 0),
                (tap_val == 2) & (value == 1),
                (tap_val == 2) & (value == 0),
            )
            fight = (tap_val == 2) | (out_new != good)
            return slots, fight, np.minimum(self._drive_levels[state // 2], 4.0)

        columns = self._plan_pairs(
            plan,
            planned,
            (cell_states, bridges[:, 1]),
            (nets, bridges[:, 3]),
            outcome,
            np.stack((self._cell_out[bridges[:, 1]], bridges[:, 3]), axis=1),
        )
        planned.paired.append((bridges[:, 0], *columns))

    def _tap(
        self, kind: _TapKind, code: int, state: int, planned: _Planned
    ) -> tuple[int, int]:
        """(output, tap node) levels of a cell of ``kind`` under input
        ``code``, tied at a node to an external driver in net ``state``."""
        memo = (kind, code, state)
        levels = self._taps.get(memo)
        if levels is None:
            gate_type, n, tap_index = kind
            planned.tap_solves += 1
            levels = self._taps[memo] = solve_with_tap(
                gate_type,
                tuple((code >> i) & 1 for i in range(n)),
                tap_index,
                float(state % 2),
                float(self._drive_levels[state // 2]),
            )
        return levels

    # ------------------------------------------------------------------
    # Transistor faults
    # ------------------------------------------------------------------
    def _device(self, name: str) -> tuple[int, _Device] | None:
        """(cell index, device) of a device name, or None."""
        located = self._devices.get(name, False)
        if located is False:
            instance, dev = name.rsplit(".", 1)
            cell = self._cell_index.get(instance)
            located = self._devices[name] = (
                None if cell is None else (cell, (dev[0].lower(), int(dev[1:])))
            )
        return located

    def _faulty_tables(
        self, gate_type: GateType, n: int, mod: str, devices: tuple[_Device, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(G_up, G_down) per input code with ``devices`` set to ``mod``,
        memoised per cell kind and devices."""
        key = (gate_type, n, mod, devices)
        tables = self._tables.get(key)
        if tables is None:
            n_mods = {index: mod for polarity, index in devices if polarity == "n"}
            p_mods = {index: mod for polarity, index in devices if polarity == "p"}
            g_up = np.zeros(2**n)
            g_down = np.zeros(2**n)
            for code in range(2**n):
                bits = tuple((code >> i) & 1 for i in range(n))
                up, down = cell_conductances(gate_type, bits, n_mods, p_mods)
                g_up[code], g_down[code] = up, down
            tables = self._tables[key] = (g_up, g_down)
        return tables

    def _code_tables(
        self, cells: np.ndarray, mod: str, devices: Sequence[tuple[_Device, ...]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat (G_up, G_down) tables of each cell with its devices set to
        ``mod``, and each cell's offset into them."""
        offsets: dict[tuple, int] = {}
        ups: list[np.ndarray] = [np.zeros(0)]
        downs: list[np.ndarray] = [np.zeros(0)]
        offset = np.empty(len(cells), dtype=np.intp)
        for i, (cell, devs) in enumerate(zip(cells.tolist(), devices)):
            key = (self._cell_kinds[cell], devs)
            at = offsets.get(key)
            if at is None:
                at = offsets[key] = sum(map(len, ups))
                g_up, g_down = self._faulty_tables(*key[0], mod, devs)
                ups.append(g_up)
                downs.append(g_down)
            offset[i] = at
        return np.concatenate(ups), np.concatenate(downs), offset

    def _plan_fights(
        self, cells: np.ndarray, devices: list[_Device], plan: _Plan, planned: _Planned
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cells with one stuck-on device each, per input code: the fight
        and the node voltage depend on the code only.  Returns the strict
        queries, IDDQ first detections and peak currents."""
        cell_states, out_value = self._cell_states
        g_up, g_down, offset = self._code_tables(
            cells, "on", [(device,) for device in devices]
        )

        def outcome(owner: np.ndarray, ec: np.ndarray, _: np.ndarray) -> _Outcome:
            code = offset[owner] + cell_states.state[ec]
            up, down = g_up[code], g_down[code]
            total = up + down
            v_node = np.divide(
                up, total, out=np.full_like(total, np.nan), where=total > 0
            )
            contention = (up > 0) & (down > 0)
            x = contention & (self.v_low < v_node) & (v_node < self.v_high)
            x &= v_node != 0.5
            to_high = v_node >= self.v_high
            # Wired-AND tie-break: an exactly balanced fight resolves low.
            to_low = (v_node <= self.v_low) | (v_node == 0.5)
            high = out_value[ec] == 1
            slots = _slot_bits(
                None, None, to_low & high, to_high & ~high, x & high, x & ~high
            )
            current = np.divide(
                up * down, total, out=np.zeros_like(total), where=contention
            )
            return slots, contention, current

        out = self._cell_out[cells]
        return self._plan_pairs(
            plan,
            planned,
            (cell_states, cells),
            (self._whole, np.zeros_like(cells)),
            outcome,
            np.stack((out, out), axis=1),
        )

    def _plan_cells(self, plan: _Plan, planned: _Planned) -> None:
        """Plan the stuck-open cell plans registered but not yet planned.

        A floating output (neither network conducts) holds the level of the
        last vector that pulled it one way, and reads X before any such
        vector; a fought-over output reads X and keeps the held charge.
        """
        lo = len(planned.plan_query)
        cells = np.array(planned.plan_cell[lo:], dtype=np.intp)
        n = len(cells)
        states, _ = self._cell_states
        g_up, g_down, offset = self._code_tables(
            cells, "absent", planned.plan_devices[lo:]
        )
        pull = np.where(
            g_up > 0,
            np.where(g_down > 0, _FOUGHT, _PULLED_HIGH),
            np.where(g_down > 0, _PULLED_LOW, _FLOATING),
        )
        base = plan.new_queries(2 * n)
        counts = np.zeros(n, dtype=np.intp)
        every = self._every
        for start, stop in _spans(states.count[cells] * self.n_words, _CHUNK_WORDS):
            chunk = cells[start:stop]
            owner, code, _ = _pairs(states.count[chunk], np.ones_like(chunk))
            entry = states.start[chunk][owner] + code
            how = pull[offset[start:stop][owner] + states.state[entry]]
            bits = states.bits[entry]
            level1, level0 = retained_bits(
                *(
                    _or_by_owner(owner, bits, how == pulled, len(chunk))
                    for pulled in (_PULLED_HIGH, _PULLED_LOW, _FLOATING)
                ),
                every,
            )
            x = every & ~(level1 | level0)
            out = self._cell_out[chunk]
            high = self._net_high[out]
            masks = np.stack(
                (level0 & high, level1 & ~high, x & high, x & ~high), axis=1
            )
            group, slot = np.nonzero(masks.any(axis=2))
            counts[start:stop] = self._emit_slots(
                plan,
                base + 2 * start,
                group,
                slot + 2,
                masks[group, slot],
                np.stack((out, out), axis=1),
            )
        planned.plan_query.extend((base + 2 * np.arange(n)).tolist())
        planned.plan_injections.extend(counts.tolist())

    def _open_plans(
        self, devices: Sequence[str], fault: int, planned: _Planned
    ) -> list[int]:
        """Cell plans of a stuck-open device set, one per cell it touches.

        Multi-cell sets (e.g. a supply-rail break) are handled per cell;
        detection by any cell's misbehaviour counts.
        """
        by_cell: dict[int, set[_Device]] = {}
        for name in devices:
            located = self._device(name)
            if located is not None:
                by_cell.setdefault(located[0], set()).add(located[1])
        return [
            planned.cell_plan(cell, tuple(sorted(devs)), fault)
            for cell, devs in by_cell.items()
        ]

    def _located(
        self,
        faults: Sequence[TransistorStuckOn | TransistorGateOpen],
        indices: list[int],
    ) -> tuple[list[int], np.ndarray, list[_Device]]:
        """(fault indices, cells, devices) of the faults whose device exists."""
        found = [
            (i, located)
            for i, fault in zip(indices, faults)
            if (located := self._device(fault.transistor)) is not None
        ]
        cells = np.array([cell for _, (cell, _) in found], dtype=np.intp)
        return [i for i, _ in found], cells, [device for _, (_, device) in found]

    def _plan_stuck_on(
        self,
        faults: list[TransistorStuckOn],
        indices: list[int],
        plan: _Plan,
        planned: _Planned,
    ) -> None:
        found, cells, devices = self._located(faults, indices)
        columns = self._plan_fights(cells, devices, plan, planned)
        planned.paired.append((np.array(found, dtype=np.intp), *columns))

    def _plan_stuck_open(
        self,
        faults: list[TransistorStuckOpen],
        indices: list[int],
        plan: _Plan,
        planned: _Planned,
    ) -> None:
        for i, fault in zip(indices, faults):
            plans = self._open_plans(fault.transistors, i, planned)
            if plans:
                planned.opens.append(i)
                planned.open_plans.append(plans)
        self._plan_cells(plan, planned)

    def _plan_gate_open(
        self,
        faults: list[TransistorGateOpen],
        indices: list[int],
        plan: _Plan,
        planned: _Planned,
    ) -> None:
        """Floating single gate: unknown but fixed state.

        Strict voltage detection requires failing under both the always-on
        and always-off assumption; potential detection under either.  The
        always-off half is the matching single-device stuck-open cell plan.
        """
        found, cells, devices = self._located(faults, indices)
        off = [
            planned.cell_plan(cell, (device,), i)
            for i, cell, device in zip(found, cells.tolist(), devices)
        ]
        columns = self._plan_fights(cells, devices, plan, planned)
        self._plan_cells(plan, planned)
        planned.gate_opens.append(
            (np.array(found, dtype=np.intp), *columns, np.array(off, dtype=np.intp))
        )

    # ------------------------------------------------------------------
    # Floating-net (open) faults
    # ------------------------------------------------------------------
    def _plan_floating(
        self,
        faults: list[FloatingNetFault],
        indices: list[int],
        plan: _Plan,
        planned: _Planned,
    ) -> None:
        floating: list[int] = []
        pins: list[tuple[str, list[tuple[str, int]]]] = []
        for i, fault in zip(indices, faults):
            if fault.floating_inputs:
                fed = self._floating_pins(fault)
                if fed:
                    floating.append(i)
                    pins.append((fault.net, fed))
            elif fault.stuck_open:
                plans = self._open_plans(fault.stuck_open, i, planned)
                if plans:
                    planned.opens.append(i)
                    planned.open_plans.append(plans)
            elif fault.floats_output_port and self.n_patterns:
                # Only a primary-output observer floats: the tester cannot
                # *rely* on the unknown level (strict: undetected) but will
                # very likely see a wrong value at some point (potential:
                # first vector).
                planned.fixed.append((i, 0, 1, 0, 0.0))
        self._plan_cells(plan, planned)
        n = len(floating)
        base = plan.new_queries(2 * n)
        high = self._net_high[[self._row[net] for net, _ in pins]]
        # Trapped charge at 0 misbehaves where the net is high, at 1 where
        # it is low: row 2i holds fault i's held-0 mask, row 2i + 1 held 1.
        masks = np.stack((high, self._every & ~high), axis=1)
        masks = masks.reshape(2 * n, self.n_words)
        keep = np.flatnonzero(masks.any(axis=1))
        forces = np.empty(len(keep), dtype=np.intp)
        for k, row in enumerate(keep.tolist()):
            net, fed = pins[row >> 1]
            forces[k] = plan.force_id(
                tuple(
                    StuckAtFault(net, row & 1, FaultSite.GATE_INPUT, instance, pin)
                    for instance, pin in fed
                )
            )
        plan.add_block(base + keep, forces, masks[keep])
        planned.floating.append(
            (np.array(floating, dtype=np.intp), base + 2 * np.arange(n))
        )

    def _floating_pins(self, fault: FloatingNetFault) -> list[tuple[str, int]]:
        """(cell, pin) of every input the floating net feeds."""
        net = fault.net
        if net not in self.values:
            return []
        pins: list[tuple[str, int]] = []
        for instance, _ in fault.floating_inputs:
            cell = self.cells.get(instance)
            if cell is None:
                continue
            for pin, pin_net in enumerate(cell.inputs):
                if pin_net == net:
                    pins.append((instance, pin))
        return pins


#: Class-wide planning pass of each fault class, in planning order.
_PASSES = {
    BridgeFault: SwitchLevelFaultSimulator._plan_bridges,
    TransistorStuckOn: SwitchLevelFaultSimulator._plan_stuck_on,
    TransistorStuckOpen: SwitchLevelFaultSimulator._plan_stuck_open,
    TransistorGateOpen: SwitchLevelFaultSimulator._plan_gate_open,
    FloatingNetFault: SwitchLevelFaultSimulator._plan_floating,
}


def _fault_class(cls: type) -> type:
    """The fault class whose planning pass takes faults of type ``cls``."""
    for base in _PASSES:
        if issubclass(cls, base):
            return base
    raise TypeError(f"unknown fault class {cls.__name__}")


def retained_bits(
    pulled_high: np.ndarray,
    pulled_low: np.ndarray,
    floating: np.ndarray,
    every: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectors where a node with charge retention reads 1 and reads 0.

    Arguments are rows of packed bitsets (bit ``k % 64`` of word ``k //
    64`` is vector k); the rest of ``every`` reads X.  A node pulled one
    way only takes that level.  A floating node (neither network conducts)
    holds the level of the last vector that pulled it one way, and reads X
    before any such vector.  A node pulled both ways reads X and leaves the
    held charge as it was.  Adding ``pulled << 1`` to the bitset of unpulled
    vectors (floating or fought over) carries through each run of them that
    follows a pulled vector; the XOR recovers the run.
    """
    unpulled = every & ~(pulled_high | pulled_low)
    held_high = (_add(unpulled, _shift_up(pulled_high)) ^ unpulled) & floating
    held_low = (_add(unpulled, _shift_up(pulled_low)) ^ unpulled) & floating
    return pulled_high | held_high, pulled_low | held_low


def _shift_up(bits: np.ndarray) -> np.ndarray:
    """Packed rows shifted one vector later (bits past the last word drop)."""
    shifted = bits << np.uint64(1)
    shifted[:, 1:] |= bits[:, :-1] >> np.uint64(63)
    return shifted


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise sum of packed rows as multi-word integers (low word first)."""
    total = a + b
    carry = (total < a).astype(np.uint64)
    for word in range(1, a.shape[1]):
        # A carry into a word can itself overflow only from all-ones.
        column = total[:, word] + carry[:, word - 1]
        carry[:, word] |= column < carry[:, word - 1]
        total[:, word] = column
    return total


def _state_set(states: np.ndarray, n_states: int, n_words: int) -> _StateSet:
    """The distinct values of each row of ``states`` with their bitsets."""
    n_rows, n_vectors = states.shape
    present = np.zeros((n_rows, n_states), dtype=bool)
    rows_per_chunk = max(1, _CHUNK_CELLS // max(1, n_vectors))
    for lo in range(0, n_rows, rows_per_chunk):
        chunk = states[lo : lo + rows_per_chunk]
        flat = np.arange(len(chunk))[:, None] * n_states + chunk
        present[lo : lo + rows_per_chunk] = (
            np.bincount(flat.ravel(), minlength=len(chunk) * n_states).reshape(
                len(chunk), n_states
            )
            > 0
        )
    row, state = np.nonzero(present)
    count = present.sum(axis=1)
    start = np.cumsum(count) - count
    bits = np.empty((len(row), n_words), dtype=np.uint64)
    for lo in range(0, len(row), rows_per_chunk):
        sl = slice(lo, lo + rows_per_chunk)
        bits[sl] = _pack_masks(states[row[sl]] == state[sl, None], n_words)
    return _StateSet(start, count, state, bits)


def _pairs(
    count_a: np.ndarray, count_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (owner, j, k) with ``j < count_a[owner]``, ``k < count_b[owner]``,
    ordered by owner."""
    sizes = count_a * count_b
    owner = np.repeat(np.arange(len(sizes)), sizes)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    j, k = np.divmod(offset, count_b[owner])
    return owner, j, k


def _spans(sizes: np.ndarray, limit: int) -> list[tuple[int, int]]:
    """Consecutive owner ranges whose summed ``sizes`` stay near ``limit``."""
    if not len(sizes):
        return []
    ends = np.cumsum(sizes)
    cuts = np.searchsorted(ends, np.arange(limit, int(ends[-1]), limit)) + 1
    edges = np.unique(np.concatenate(([0], cuts, [len(sizes)])).clip(0, len(sizes)))
    return list(zip(edges[:-1].tolist(), edges[1:].tolist()))


def _or_by_owner(
    owner: np.ndarray, bits: np.ndarray, select: np.ndarray, n_owners: int
) -> np.ndarray:
    """Per owner, the OR of its selected rows (owners nondecreasing)."""
    out = np.zeros((n_owners, bits.shape[1]), dtype=np.uint64)
    rows = np.flatnonzero(select)
    if len(rows):
        owner = owner[rows]
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        out[owner[starts]] = np.bitwise_or.reduceat(bits[rows], starts, axis=0)
    return out


def _iddq(
    owner: np.ndarray,
    bits: np.ndarray,
    flag: np.ndarray,
    current: np.ndarray,
    n_owners: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per owner: first vector of its flagged state rows (0 for none) and
    the largest current among them (0.0 for none)."""
    first = np.zeros(n_owners, dtype=np.int64)
    peak = np.zeros(n_owners)
    rows = np.flatnonzero(flag)
    if len(rows):
        owners = owner[rows]
        starts = np.flatnonzero(np.diff(owners, prepend=-1))
        first[owners[starts]] = np.minimum.reduceat(_first_set_bits(bits[rows]), starts)
        peak[owners[starts]] = np.maximum.reduceat(current[rows], starts)
    return first, peak


def _slot_bits(*slots: np.ndarray | None) -> np.ndarray:
    """Slot bit ``j`` set where ``slots[j]`` holds (None: never)."""
    shape = next(np.shape(s) for s in slots if s is not None)
    bits = np.zeros(shape, dtype=np.uint8)
    for j, slot in enumerate(slots):
        if slot is not None:
            bits |= slot.astype(np.uint8) << j
    return bits


def _earliest(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise earliest detection of two (0 = none)."""
    return np.where((a == 0) | ((b != 0) & (b < a)), b, a)


def _both(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise detection by both (the later of two; 0 unless both)."""
    return np.where((a != 0) & (b != 0), np.maximum(a, b), 0)


def _earliest_reduce(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """:func:`_earliest` over each segment of ``values`` from ``starts``."""
    never = np.iinfo(np.int64).max
    earliest = np.minimum.reduceat(np.where(values == 0, never, values), starts)
    return np.where(earliest == never, 0, earliest)


def _fill_dict(out: dict, ids: list[int], column: np.ndarray) -> None:
    """``out[ids[i]] = column[i]`` wherever the column is nonzero."""
    found = np.flatnonzero(column)
    out.update(zip([ids[i] for i in found.tolist()], column[found].tolist()))


def _pack_masks(masks: np.ndarray, n_words: int) -> np.ndarray:
    """Boolean ``(rows, vectors)`` masks as ``(rows, n_words)`` uint64 bitsets.

    Bit ``k % 64`` of word ``k // 64`` is vector ``k``; bits past the last
    vector are clear.
    """
    packed = np.packbits(masks, axis=1, bitorder="little")
    padded = np.zeros((len(masks), n_words * 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view("<u8").astype(np.uint64, copy=False)


def _first_set_bits(words: np.ndarray) -> np.ndarray:
    """Per row of packed ``uint64`` bitsets: 1-based index of the lowest set
    bit, or 0 for an all-zero row."""
    if not words.shape[1]:
        return np.zeros(len(words), dtype=np.int64)
    nonzero = words != 0
    word = nonzero.argmax(axis=1)
    value = words[np.arange(len(words)), word]
    lowest = value & (~value + np.uint64(1))
    # ``lowest`` is a power of two (or 0), exact as a float64.
    bit = np.frexp(lowest.astype(np.float64))[1] - 1
    return np.where(nonzero.any(axis=1), word * 64 + bit + 1, 0).astype(np.int64)

