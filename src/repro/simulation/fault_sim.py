"""Parallel-pattern single stuck-at fault simulation.

For every fault the simulator re-evaluates only the fault's output cone with
the faulty value forced, ``W`` patterns at a time (default 256), and compares
primary outputs against the fault-free simulation.  Detected faults are
dropped from further simulation.  The result records each fault's
*first-detection index*, which is exactly what the paper's ``T(k)``
coverage-growth curves are built from, plus its *detection count* over the
simulated horizon — the per-fault n-detection telemetry that
Pomeranz-&-Reddy-style analyses consume downstream.

Engine architecture (see ``docs/PERFORMANCE.md``):

* **Wide words** — patterns are packed ``width`` per Python int, so the
  per-gate interpreter overhead is amortised over ``width`` vectors at once.
* **Compiled cone schedules** — each fault's output cone is compiled once
  into flat arrays over a dense net-id space (opcodes, operand indices,
  local value slots); the inner loop never touches a name-keyed dict.
  Cones are extracted lazily and memoised per net, so faults on the same
  net share one cone and simulating a collapsed fault list never pays for
  cones of unfaulted nets.
* **Static fault ordering** — the active list is ordered by cone size, so
  with fault dropping the cheap (easily detected, small-cone) faults retire
  first and the expensive cones are only walked while genuinely undetected.

The pipeline's stuck-at stage runs the numpy bitslice kernel
(:class:`repro.simulation.numpy_sim.NumpyFaultSimulator`); this engine is
its test oracle and the kernel behind switch-level simulation, ATPG,
transition and diagnosis, which need multi-site forces and narrow widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro import obs
from repro.circuit.library import DEFAULT_WORD_WIDTH
from repro.circuit.netlist import Circuit
from repro.simulation.faults import FaultSite, StuckAtFault, full_fault_universe
from repro.simulation.logic_sim import (
    OP_AND,
    OP_BUF,
    OP_NAND,
    OP_NOR,
    OP_OR,
    OP_XOR,
    LogicSimulator,
    evaluate_op,
    pack_patterns,
)

__all__ = ["ConeIndex", "FaultSimResult", "FaultSimulator"]


@dataclass
class FaultSimResult:
    """Outcome of a fault-simulation run.

    Attributes
    ----------
    faults:
        The simulated fault list (universe for the coverage denominator).
    first_detection:
        Fault -> 1-based index of the first detecting vector.  Faults absent
        from the map were never detected by the applied sequence.
    detection_counts:
        Fault -> number of detecting vectors seen while the fault was being
        simulated.  With fault dropping (the default) a fault leaves the
        active list after its first detecting *group* of packed vectors, so
        the count is a lower bound covering that horizon; with
        ``drop_detected=False`` it is exact over the whole sequence.
    n_patterns:
        Number of vectors applied.
    """

    faults: list[StuckAtFault]
    first_detection: dict[StuckAtFault, int]
    n_patterns: int = 0
    detection_counts: dict[StuckAtFault, int] = field(default_factory=dict)

    @property
    def detected(self) -> list[StuckAtFault]:
        """Faults detected at least once, in universe order."""
        return [f for f in self.faults if f in self.first_detection]

    @property
    def undetected(self) -> list[StuckAtFault]:
        """Faults never detected."""
        return [f for f in self.faults if f not in self.first_detection]

    @property
    def coverage(self) -> float:
        """Final fault coverage T = detected / total."""
        if not self.faults:
            return 1.0
        return len(self.first_detection) / len(self.faults)

    def coverage_at(self, k: int) -> float:
        """Fault coverage after the first ``k`` vectors."""
        if not self.faults:
            return 1.0
        hits = sum(1 for idx in self.first_detection.values() if idx <= k)
        return hits / len(self.faults)

    def coverage_curve(self) -> list[tuple[int, float]]:
        """``(k, T(k))`` points at every k where coverage changed.

        Single sorted pass over the first-detection indices: O(F log F)
        rather than one O(F) ``coverage_at`` scan per change point.
        """
        if not self.faults:
            return []
        total = len(self.faults)
        counts: dict[int, int] = {}
        for idx in self.first_detection.values():
            counts[idx] = counts.get(idx, 0) + 1
        curve: list[tuple[int, float]] = []
        cumulative = 0
        for k in sorted(counts):
            cumulative += counts[k]
            curve.append((k, cumulative / total))
        return curve

    def detections_of(self, fault: StuckAtFault) -> int:
        """Number of detecting vectors recorded for ``fault`` (0 if never)."""
        return self.detection_counts.get(fault, 0)

    def detected_n_times(self, n: int) -> list[StuckAtFault]:
        """Faults with at least ``n`` recorded detections, in universe order.

        The n-detection fault set of Pomeranz & Reddy: faults a sequence
        detects many times are the ones whose surrogate coverage of
        unmodelled defects is trustworthy.
        """
        return [f for f in self.faults if self.detection_counts.get(f, 0) >= n]

    def n_detection_coverage(self, n: int) -> float:
        """Fraction of the universe detected at least ``n`` times."""
        if not self.faults:
            return 1.0
        return len(self.detected_n_times(n)) / len(self.faults)


@dataclass
class _Cone:
    """Memoised output cone of one net, over the dense net-id space."""

    gate_idx: list[int]        # compiled gate indices in topological order
    net_ids: frozenset[int]    # net ids whose value the fault can affect
    po_ids: list[int]          # primary-output ids inside the cone


class ConeIndex:
    """Lazy, memoised output-cone extraction over a compiled logic program.

    Both fault-simulation engines (the wide-word python reference and the
    numpy bitslice kernel) restrict faulty-machine work to output cones and
    order faults cheapest-cone-first; this index owns the shared pieces —
    reader adjacency over dense net ids, the per-net cone BFS memo, and the
    gate-name / driver-gate lookup tables.
    """

    def __init__(self, logic: LogicSimulator):
        self.logic = logic
        # Reader adjacency over net ids: net id -> compiled gate indices
        # reading it.  O(edges) once; cone extraction BFS runs over this.
        readers: list[list[int]] = [[] for _ in range(logic.n_nets)]
        for gi, ids in enumerate(logic.in_ids):
            for nid in ids:
                readers[nid].append(gi)
        self.readers = readers
        self.gate_index = {gate.name: i for i, gate in enumerate(logic.order)}
        self.driver_gate: dict[int, int] = {
            out: i for i, out in enumerate(logic.out_ids)
        }
        self._cones: dict[int, _Cone] = {}

    def cone(self, nid: int) -> _Cone:
        """The (memoised) compiled output cone of net id ``nid``."""
        cone = self._cones.get(nid)
        if cone is not None:
            return cone
        logic = self.logic
        readers = self.readers
        out_ids = logic.out_ids
        seen = {nid}
        gates: set[int] = set()
        stack = [nid]
        while stack:
            current = stack.pop()
            for gi in readers[current]:
                if gi not in gates:
                    gates.add(gi)
                    out = out_ids[gi]
                    if out not in seen:
                        seen.add(out)
                        stack.append(out)
        net_ids = frozenset(seen)
        cone = _Cone(
            gate_idx=sorted(gates),
            net_ids=net_ids,
            po_ids=[po for po in logic.po_ids if po in net_ids],
        )
        self._cones[nid] = cone
        return cone

    def fault_cone(self, fault: StuckAtFault) -> _Cone:
        """The output cone of ``fault``'s net."""
        return self.cone(self.logic.net_id[fault.net])


class _Program:
    """One fault's compiled resimulation schedule.

    ``refs`` entries encode operand sources: ``ref >= 0`` reads the
    fault-free value ``good[ref]``; ``ref < 0`` reads the cone-local slot
    ``local[~ref]``.  ``seeds`` pre-loads slots with forced stuck words
    before evaluation.  ``po_refs`` pairs each potentially-diverging cone
    output's local ref with its net id for the XOR against the good value.
    """

    __slots__ = ("ops", "refs", "out_slots", "po_refs", "po_ids", "n_slots", "seeds", "size")

    def __init__(self, ops, refs, out_slots, po_refs, po_ids, n_slots, seeds):
        self.ops = ops
        self.refs = refs
        self.out_slots = out_slots
        self.po_refs = po_refs
        self.po_ids = po_ids
        self.n_slots = n_slots
        self.seeds = seeds
        self.size = len(ops)


class FaultSimulator:
    """Cone-restricted, wide-word parallel-pattern stuck-at fault simulator.

    Parameters
    ----------
    circuit:
        The combinational circuit under test.
    width:
        Packed-word width (patterns simulated per word).  Results are
        bit-exact across widths; wider words trade memory per value for
        fewer interpreted passes.
    """

    def __init__(self, circuit: Circuit, width: int = DEFAULT_WORD_WIDTH):
        self.circuit = circuit
        self.width = width
        self.logic = LogicSimulator(circuit, width=width)
        self.mask = self.logic.mask
        self.cones = ConeIndex(self.logic)
        self._gate_index = self.cones.gate_index
        # Lazy, memoised compilation state.
        self._programs: dict[StuckAtFault, _Program] = {}
        self._multi_programs: dict[tuple[StuckAtFault, ...], _Program] = {}
        self._good_memo: tuple[Mapping[str, int], list[int]] | None = None

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _cone(self, nid: int) -> _Cone:
        """The (memoised) compiled output cone of net id ``nid``."""
        return self.cones.cone(nid)

    def cone_size(self, fault: StuckAtFault) -> int:
        """Number of gates resimulated per group for ``fault``."""
        return len(self._cone(self.logic.net_id[fault.net]).gate_idx)

    def _program(self, fault: StuckAtFault) -> _Program:
        """The (memoised) compiled resimulation schedule for ``fault``."""
        program = self._programs.get(fault)
        if program is not None:
            return program
        logic = self.logic
        nid = logic.net_id[fault.net]
        cone = self._cone(nid)
        stuck_word = self.mask if fault.value else 0

        if fault.site is FaultSite.NET:
            net_force = {nid: stuck_word}
            pin_force: dict[tuple[int, int], int] = {}
        else:
            net_force = {}
            pin_force = {
                (self._gate_index[fault.gate], fault.pin): stuck_word
            }
        program = self._compile(cone.gate_idx, cone.po_ids, net_force, pin_force)
        self._programs[fault] = program
        return program

    def _multi_program(self, forces: tuple[StuckAtFault, ...]) -> _Program:
        """Compiled schedule for several simultaneous stuck forces."""
        program = self._multi_programs.get(forces)
        if program is not None:
            return program
        logic = self.logic
        net_force: dict[int, int] = {}
        pin_force: dict[tuple[int, int], int] = {}
        gates: set[int] = set()
        po_ids: list[int] = []
        for fault in forces:
            stuck_word = self.mask if fault.value else 0
            nid = logic.net_id[fault.net]
            if fault.site is FaultSite.NET:
                net_force[nid] = stuck_word
            else:
                pin_force[(self._gate_index[fault.gate], fault.pin)] = stuck_word
            cone = self._cone(nid)
            gates.update(cone.gate_idx)
            for po in cone.po_ids:
                if po not in po_ids:
                    po_ids.append(po)
        program = self._compile(sorted(gates), po_ids, net_force, pin_force)
        self._multi_programs[forces] = program
        return program

    def _compile(
        self,
        gate_idx: Sequence[int],
        po_ids: Sequence[int],
        net_force: dict[int, int],
        pin_force: dict[tuple[int, int], int],
    ) -> _Program:
        """Lower a cone walk with forced values into a flat slot program.

        Gates driving a net-forced net are dropped (the force overwrites
        them); readers of a forced net read a pre-seeded constant slot.
        Readers of the cone's other nets read cone-local slots; everything
        outside the cone reads the shared fault-free value list.
        """
        logic = self.logic
        ops_all = logic.ops
        in_ids = logic.in_ids
        out_ids = logic.out_ids

        kept = [gi for gi in gate_idx if out_ids[gi] not in net_force]
        slot_of: dict[int, int] = {
            out_ids[gi]: slot for slot, gi in enumerate(kept)
        }
        n_slots = len(kept)
        seeds: list[tuple[int, int]] = []
        force_slot: dict[int, int] = {}
        for nid, word in net_force.items():
            slot = n_slots
            n_slots += 1
            seeds.append((slot, word))
            force_slot[nid] = slot
        pin_slot: dict[tuple[int, int], int] = {}
        for key, word in pin_force.items():
            slot = n_slots
            n_slots += 1
            seeds.append((slot, word))
            pin_slot[key] = slot

        ops: list[int] = []
        refs: list[tuple[int, ...]] = []
        out_slots: list[int] = []
        for gi in kept:
            gate_refs: list[int] = []
            for pin, nid in enumerate(in_ids[gi]):
                forced = pin_slot.get((gi, pin))
                if forced is not None:
                    gate_refs.append(~forced)
                elif nid in force_slot:
                    gate_refs.append(~force_slot[nid])
                elif nid in slot_of:
                    gate_refs.append(~slot_of[nid])
                else:
                    gate_refs.append(nid)
            ops.append(ops_all[gi])
            refs.append(tuple(gate_refs))
            out_slots.append(slot_of[out_ids[gi]])

        po_refs: list[tuple[int, int]] = []
        for po in po_ids:
            if po in force_slot:
                po_refs.append((~force_slot[po], po))
            elif po in slot_of:
                po_refs.append((~slot_of[po], po))
            # Otherwise the cone output keeps its fault-free value (e.g. the
            # faulted net itself under a pin fault): diff is identically 0.
        return _Program(
            ops, refs, out_slots, po_refs, list(po_ids), n_slots, tuple(seeds)
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _run_locals(self, program: _Program, good: Sequence[int]) -> list[int]:
        """Evaluate a compiled program over one good-value group."""
        local = [0] * program.n_slots
        for slot, word in program.seeds:
            local[slot] = word
        mask = self.mask
        ops = program.ops
        refs = program.refs
        out_slots = program.out_slots
        for i in range(len(ops)):
            ids = refs[i]
            if len(ids) == 2:
                r0 = ids[0]
                r1 = ids[1]
                a = good[r0] if r0 >= 0 else local[~r0]
                b = good[r1] if r1 >= 0 else local[~r1]
                op = ops[i]
                if op == OP_AND:
                    value = a & b
                elif op == OP_NAND:
                    value = mask ^ (a & b)
                elif op == OP_OR:
                    value = a | b
                elif op == OP_NOR:
                    value = mask ^ (a | b)
                elif op == OP_XOR:
                    value = a ^ b
                else:  # OP_XNOR
                    value = mask ^ a ^ b
            elif len(ids) == 1:
                r0 = ids[0]
                a = good[r0] if r0 >= 0 else local[~r0]
                value = a if ops[i] == OP_BUF else mask ^ a
            else:
                value = evaluate_op(
                    ops[i],
                    [good[r] if r >= 0 else local[~r] for r in ids],
                    mask,
                )
            local[out_slots[i]] = value
        return local

    def _detect(self, program: _Program, good: Sequence[int]) -> int:
        """Detection word (diff over cone outputs) for one compiled program."""
        local = self._run_locals(program, good)
        diff = 0
        for ref, po in program.po_refs:
            diff |= local[~ref] ^ good[po]
        return diff

    def _good_list(
        self, good_values: Mapping[str, int] | Sequence[int]
    ) -> Sequence[int]:
        """Accept packed good values as a name dict or a net-id list.

        Dict conversions are memoised on the last-seen dict identity, so the
        usual caller pattern — many faults against one group — converts once.
        """
        if isinstance(good_values, dict):
            memo = self._good_memo
            if memo is not None and memo[0] is good_values:
                return memo[1]
            values = [good_values[name] for name in self.logic.net_names]
            self._good_memo = (good_values, values)
            return values
        return good_values

    # ------------------------------------------------------------------
    def detection_word(
        self,
        fault: StuckAtFault,
        good_values: Mapping[str, int] | Sequence[int],
    ) -> int:
        """Bit mask of patterns (within one packed group) that detect ``fault``.

        ``good_values`` is the fault-free packed simulation of the group —
        either the name-keyed dict from :meth:`LogicSimulator.simulate_packed`
        or the dense net-id list from
        :meth:`LogicSimulator.simulate_packed_list`.
        """
        good = self._good_list(good_values)
        return self._detect(self._program(fault), good)

    # ------------------------------------------------------------------
    def detection_word_multi(
        self,
        forces: Sequence[StuckAtFault],
        good_values: Mapping[str, int] | Sequence[int],
    ) -> int:
        """Detection mask for several simultaneous stuck forces.

        Used by the switch-level simulator's fast paths (an open that floats
        several gate-input pins behaves, under one charge assumption, like a
        multiple stuck-at fault).  The forced cone is the union of the
        individual cones; compiled schedules are memoised per force tuple.
        """
        if not forces:
            return 0
        good = self._good_list(good_values)
        return self._detect(self._multi_program(tuple(forces)), good)

    # ------------------------------------------------------------------
    def po_diff_words(
        self,
        fault: StuckAtFault,
        good_values: Mapping[str, int] | Sequence[int],
    ) -> dict[str, int]:
        """Per-primary-output difference words (the per-PO refinement of
        :meth:`detection_word`), keyed by output net name.

        Every primary output inside the fault's cone appears in the result;
        outputs the fault cannot reach are omitted.
        """
        good = self._good_list(good_values)
        program = self._program(fault)
        local = self._run_locals(program, good)
        diffs = {ref_po: local[~ref] ^ good[ref_po] for ref, ref_po in program.po_refs}
        names = self.logic.net_names
        return {names[po]: diffs.get(po, 0) for po in program.po_ids}

    # ------------------------------------------------------------------
    def run(
        self,
        patterns: Sequence[Sequence[int]],
        faults: list[StuckAtFault] | None = None,
        drop_detected: bool = True,
    ) -> FaultSimResult:
        """Fault-simulate ``patterns`` against ``faults`` (default: universe).

        With ``drop_detected`` (the default), a fault is removed from the
        active list after its first detection; first-detection indices are
        recorded either way.
        """
        if faults is None:
            faults = full_fault_universe(self.circuit)
        groups = pack_patterns(
            patterns, len(self.circuit.primary_inputs), self.width
        )
        first_detection, detection_counts = self._simulate_groups(
            groups, len(patterns), faults, drop_detected
        )
        obs.set_gauge("fault_sim.word_width", self.width)
        obs.inc("fault_sim.patterns_applied", len(patterns))
        obs.inc("fault_sim.faults_simulated", len(faults))
        if drop_detected:
            obs.inc("fault_sim.faults_dropped", len(first_detection))
        obs.inc("fault_sim.detections", sum(detection_counts.values()))
        return FaultSimResult(
            faults=list(faults),
            first_detection=first_detection,
            n_patterns=len(patterns),
            detection_counts=detection_counts,
        )

    def _simulate_groups(
        self,
        groups: Sequence[Sequence[int]],
        n_patterns: int,
        faults: list[StuckAtFault],
        drop_detected: bool,
    ) -> tuple[dict[StuckAtFault, int], dict[StuckAtFault, int]]:
        """The simulation core: span + group loop; :meth:`run` counts."""
        first_detection: dict[StuckAtFault, int] = {}
        detection_counts: dict[StuckAtFault, int] = {}
        width = self.width
        emit_progress = obs.events_enabled()
        with obs.span(
            "fault_sim.run",
            n_patterns=n_patterns,
            n_faults=len(faults),
            word_width=width,
        ):
            # Static order: cheap cones first, so with dropping the bulk of
            # the (easily detected) universe retires before the big cones.
            work = sorted(
                ((fault, self._program(fault)) for fault in faults),
                key=lambda pair: pair[1].size,
            )
            detect = self._detect
            for group_index, words in enumerate(groups):
                if not work:
                    break
                base = group_index * width
                n_here = min(width, n_patterns - base)
                group_mask = (1 << n_here) - 1
                good = self.logic.simulate_packed_list(words)
                survivors: list[tuple[StuckAtFault, _Program]] = []
                for pair in work:
                    fault, program = pair
                    diff = detect(program, good) & group_mask
                    if diff:
                        first = base + _lowest_set_bit(diff) + 1
                        if (
                            fault not in first_detection
                            or first < first_detection[fault]
                        ):
                            first_detection[fault] = first
                        detection_counts[fault] = (
                            detection_counts.get(fault, 0) + diff.bit_count()
                        )
                        if not drop_detected:
                            survivors.append(pair)
                    else:
                        survivors.append(pair)
                work = survivors
                if emit_progress and faults:
                    obs.emit(
                        obs.ProgressEvent(
                            stage="fault_sim",
                            completed=base + n_here,
                            total=n_patterns,
                            unit="patterns",
                            data={
                                "faults_remaining": len(work),
                                "detection_rate": len(first_detection)
                                / len(faults),
                            },
                        )
                    )
        return first_detection, detection_counts

    # ------------------------------------------------------------------
    def detects(self, fault: StuckAtFault, pattern: Sequence[int]) -> bool:
        """True when a single vector detects the fault at any primary output."""
        return self.first_detecting(fault, [pattern]) is not None

    def detects_any(
        self, fault: StuckAtFault, patterns: Sequence[Sequence[int]]
    ) -> bool:
        """True when any of ``patterns`` detects ``fault``.

        Batched: the whole sequence is packed once and simulated group by
        group, unlike a ``detects`` call per vector which repacks and
        resimulates the fault-free circuit every time.
        """
        return self.first_detecting(fault, patterns) is not None

    def first_detecting(
        self, fault: StuckAtFault, patterns: Sequence[Sequence[int]]
    ) -> int | None:
        """1-based index of the first vector detecting ``fault``, or None."""
        n_patterns = len(patterns)
        width = self.width
        groups = pack_patterns(
            patterns, len(self.circuit.primary_inputs), width
        )
        program = self._program(fault)
        for group_index, words in enumerate(groups):
            base = group_index * width
            n_here = min(width, n_patterns - base)
            good = self.logic.simulate_packed_list(words)
            diff = self._detect(program, good) & ((1 << n_here) - 1)
            if diff:
                return base + _lowest_set_bit(diff) + 1
        return None


def _lowest_set_bit(word: int) -> int:
    return (word & -word).bit_length() - 1
