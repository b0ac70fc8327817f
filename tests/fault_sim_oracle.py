"""Test oracles for the stuck-at engine: a python fault simulator and the
64-vector random-ATPG loop.

:class:`FaultSimulator` is a cone-restricted, wide-word pure-python
stuck-at simulator.  It shares nothing with
:class:`repro.simulation.numpy_sim.NumpyFaultSimulator` except
:class:`ConeIndex`'s cone walk and :class:`LogicSimulator`'s compiled net
ids, so the tests use it as the reference every numpy result must match bit
for bit (``tests/test_engines.py``, ``tests/test_switchsim_oracle.py``):

* **wide words**: patterns are packed ``width`` per python int;
* **compiled cone schedules**: each fault's output cone is compiled once into
  flat arrays over the dense net-id space;
* **static fault ordering**: cheapest cone first, so with fault dropping the
  easily detected faults retire before the big cones are walked.

:func:`batch_random_tests` states random ATPG's stop rule directly: it
generates 64 vectors at a time, fault-simulates each batch against the
faults still undetected and decides target, patience and cap after every
batch.  ``repro.atpg.random_atpg`` derives the same stop point from one
pass over the whole stream and must match it field by field.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.atpg.patterns import TestSet, random_patterns
from repro.atpg.random_atpg import RandomAtpgResult
from repro.circuit.library import DEFAULT_WORD_WIDTH
from repro.circuit.netlist import Circuit
from repro.simulation.fault_sim import ConeIndex, FaultSimResult, _Cone
from repro.simulation.faults import (
    FaultSite,
    StuckAtFault,
    collapse_faults,
    full_fault_universe,
)
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

__all__ = ["FaultSimulator", "batch_random_tests"]


class _Program:
    """One fault's compiled resimulation schedule.

    ``refs`` entries encode operand sources: ``ref >= 0`` reads the
    fault-free value ``good[ref]``; ``ref < 0`` reads the cone-local slot
    ``local[~ref]``.  ``seeds`` pre-loads slots with forced stuck words
    before evaluation.  ``po_refs`` pairs each potentially-diverging cone
    output's local ref with its net id for the XOR against the good value.
    """

    __slots__ = ("ops", "refs", "out_slots", "po_refs", "n_slots", "seeds", "size")

    def __init__(self, ops, refs, out_slots, po_refs, n_slots, seeds):
        self.ops = ops
        self.refs = refs
        self.out_slots = out_slots
        self.po_refs = po_refs
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
            ops, refs, out_slots, po_refs, n_slots, tuple(seeds)
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
        """The group loop behind :meth:`run`."""
        first_detection: dict[StuckAtFault, int] = {}
        detection_counts: dict[StuckAtFault, int] = {}
        width = self.width
        # Static order: cheap cones first, so with dropping the bulk of the
        # (easily detected) universe retires before the big cones.
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
                    if fault not in first_detection or first < first_detection[fault]:
                        first_detection[fault] = first
                    detection_counts[fault] = (
                        detection_counts.get(fault, 0) + diff.bit_count()
                    )
                    if not drop_detected:
                        survivors.append(pair)
                else:
                    survivors.append(pair)
            work = survivors
        return first_detection, detection_counts

    # ------------------------------------------------------------------
    def detects(self, fault: StuckAtFault, pattern: Sequence[int]) -> bool:
        """True when a single vector detects the fault at any primary output."""
        (words,) = pack_patterns(
            [pattern], len(self.circuit.primary_inputs), self.width
        )
        good = self.logic.simulate_packed_list(words)
        return bool(self._detect(self._program(fault), good) & 1)


def _lowest_set_bit(word: int) -> int:
    return (word & -word).bit_length() - 1


def batch_random_tests(
    circuit: Circuit,
    faults: list[StuckAtFault] | None = None,
    target_coverage: float = 0.90,
    max_patterns: int = 2048,
    patience: int = 256,
    seed: int = 1234,
) -> RandomAtpgResult:
    """Random ATPG as a loop over 64-vector batches on :class:`FaultSimulator`.

    Each batch is simulated against the faults still undetected.  After it,
    the loop stops once coverage reaches ``target_coverage``, once the run
    of vectors past the last new detection reaches ``patience``, or at
    ``max_patterns``.
    """
    if faults is None:
        faults = collapse_faults(circuit)
    simulator = FaultSimulator(circuit)
    n_inputs = len(circuit.primary_inputs)
    test_set = TestSet(n_inputs=n_inputs)
    remaining = list(faults)
    detected: list[StuckAtFault] = []
    useless_run = 0
    total = len(faults)
    generated = 0
    while (
        remaining
        and generated < max_patterns
        and useless_run < patience
        and (total == 0 or len(detected) / total < target_coverage)
    ):
        n_here = min(64, max_patterns - generated)
        vectors = random_patterns(n_inputs, n_here, seed=seed + generated)
        generated += n_here
        result = simulator.run(vectors, faults=remaining)
        test_set.extend(vectors, "random")
        if result.first_detection:
            # Count the useless tail of this batch for patience accounting.
            useless_run = n_here - max(result.first_detection.values())
            hits = set(result.first_detection)
            detected.extend(f for f in remaining if f in hits)
            remaining = [f for f in remaining if f not in hits]
        else:
            useless_run += n_here
    coverage = 1.0 if total == 0 else len(detected) / total
    return RandomAtpgResult(
        test_set=test_set,
        detected=detected,
        undetected=remaining,
        coverage=coverage,
    )
