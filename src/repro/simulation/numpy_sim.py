"""Numpy ``uint64`` bitslice stuck-at fault-simulation engine.

This is the repository's one stuck-at engine.  :meth:`run` serves the
pipeline's stuck-at stage, random ATPG (one pass over the whole random
stream), PODEM's fault dropping, compaction and bridge ATPG's exhaustive
miter check.  :meth:`detection_words` serves the switch-level simulator's
detection table (whose lanes may carry several simultaneous forces) and
transition-fault simulation; :meth:`po_diff_words` serves the diagnosis
dictionary.  The tests keep the pure-python wide-word simulator as the
oracle every result must match bit for bit (``tests/fault_sim_oracle.py``,
checked in ``tests/test_engines.py`` and ``tests/test_switchsim_oracle.py``).

Layout
------
Patterns are packed 64 per ``uint64`` word into contiguous arrays: the
packed input set is ``(n_words, n_inputs)``-shaped and the fault-free
("good") machine is evaluated one *block* of ``width`` patterns at a time
into a ``(words_per_block, n_nets)``-shaped array, one vectorized bitwise
op per gate.  ``width`` must be a multiple of 64 — the block is the
detection-count group: with fault dropping, a fault's ``detection_counts``
entry covers the block it was first detected in.

Faulty machines are evaluated in *lane batches*: faults are ordered
cheapest-cone-first and partitioned into batches of ``lane_batch`` lanes.
Each batch compiles one schedule over the union of its cones; slots are
``(n_lanes, words)`` arrays, so every gate in the union is evaluated for all
lanes of the batch with a single vectorized op.  Gates in the union whose
inputs are entirely fault-free collapse to a copy of the good column at
compile time.  Per-lane fault forcing (stuck rows seeded before evaluation,
driver outputs overwritten after evaluation, pin-operand overrides) keeps
each lane's primary-output values exactly equal to what a cone-restricted
single-fault resimulation would produce: gates outside a lane's own cone
cannot be reached by its fault, so they compute fault-free values for that
lane.  A lane with several forced sites has the union of their cones as its
cone.

Good-machine values are computed once per block and shared by every batch;
fault dropping retires lanes at their first detecting block and skips a
batch entirely once all of its lanes have dropped.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro import obs
from repro.circuit.netlist import Circuit
from repro.simulation.fault_sim import ConeIndex, FaultSimResult
from repro.simulation.faults import FaultSite, StuckAtFault, full_fault_universe
from repro.simulation.logic_sim import (
    OP_AND,
    OP_BUF,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    LogicSimulator,
)

__all__ = [
    "DEFAULT_NUMPY_WIDTH",
    "DEFAULT_LANE_BATCH",
    "NumpyFaultSimulator",
    "pack_bitslice",
]

#: Default block extent (patterns per detection group).  The vectorized
#: kernel amortises per-gate dispatch over ``width // 64`` words *and*
#: ``lane_batch`` lanes at once.
DEFAULT_NUMPY_WIDTH = 1024

#: Default number of faults evaluated per union-of-cones batch.
DEFAULT_LANE_BATCH = 64

_U64_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_U64_ZERO = np.uint64(0)

#: Sentinel opcode: the gate's inputs are all fault-free in this batch, so
#: its output is a copy of the good-machine column (no evaluation needed).
_OP_GOOD = -1

#: op -> (core bitwise ufunc, invert result?)
_CORE_UFUNC = {
    OP_AND: (np.bitwise_and, False),
    OP_NAND: (np.bitwise_and, True),
    OP_OR: (np.bitwise_or, False),
    OP_NOR: (np.bitwise_or, True),
    OP_XOR: (np.bitwise_xor, False),
    OP_XNOR: (np.bitwise_xor, True),
}

_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")


def pack_bitslice(
    patterns: Sequence[Sequence[int]], n_inputs: int
) -> np.ndarray:
    """Pack patterns into a ``(n_words, n_inputs)`` ``uint64`` bitslice array.

    Bit ``p`` of word ``w`` in column ``i`` carries pattern ``w * 64 + p``'s
    value for primary input ``i`` — the same bit order as
    :func:`repro.simulation.logic_sim.pack_patterns`, 64 patterns per word.
    """
    n_patterns = len(patterns)
    if n_patterns == 0:
        return np.zeros((0, n_inputs), dtype=np.uint64)
    try:
        mat = np.asarray(patterns)
    except ValueError as exc:  # ragged rows
        raise ValueError(f"inconsistent pattern lengths: {exc}") from exc
    if mat.ndim != 2 or mat.shape[1] != n_inputs:
        raise ValueError(
            f"patterns have shape {mat.shape}, expected ({n_patterns}, {n_inputs})"
        )
    bits = (mat != 0).astype(np.uint8)
    n_words = -(-n_patterns // 64)
    # Pack per input column, little bit order, then read each input's padded
    # byte row as explicitly little-endian words (byte 0 == bits 0..7) and
    # convert to native uint64: the layout holds on any host byte order.
    packed_bytes = np.packbits(bits, axis=0, bitorder="little")
    padded = np.zeros((n_inputs, n_words * 8), dtype=np.uint8)
    padded[:, : packed_bytes.shape[0]] = packed_bytes.T
    words = padded.view("<u8").astype(np.uint64, copy=False)  # (n_inputs, n_words)
    return np.ascontiguousarray(words.T)


def _clear_tail(table: np.ndarray, n_patterns: int) -> None:
    """Clear the bits past pattern ``n_patterns`` in the last word column."""
    tail_bits = n_patterns % 64
    if tail_bits and table.shape[-1]:
        table[..., -1] &= np.uint64((1 << tail_bits) - 1)


def _popcount(words: np.ndarray) -> int:
    """Total set-bit count over a 1-d uint64 array."""
    if _HAVE_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum())
    return sum(int(w).bit_count() for w in words.tolist())


class _BatchProgram:
    """One lane batch's compiled union-of-cones schedule.

    ``refs`` entries encode operand sources: ``ref >= 0`` reads the
    good-machine column ``good[:, ref]``; ``ref < 0`` reads the batch-local
    slot ``local[~ref]`` (an ``(n_lanes, words)`` array).  Gates compiled to
    :data:`_OP_GOOD` carry their output net id as the single ref.
    """

    __slots__ = (
        "n_lanes",
        "ops",
        "refs",
        "out_slots",
        "po_refs",
        "n_slots",
        "seeds",
        "init_forces",
        "post_forces",
        "pin_overrides",
    )

    def __init__(self) -> None:
        self.n_lanes = 0
        self.ops: list[int] = []
        self.refs: list[tuple[int, ...]] = []
        self.out_slots: list[int] = []
        self.po_refs: list[tuple[int, int]] = []  # (slot, po net id)
        self.n_slots = 0
        self.seeds: list[tuple[int, int]] = []  # (slot, good net id)
        self.init_forces: list[tuple[int, int, bool]] = []  # slot, lane, stuck
        self.post_forces: dict[int, list[tuple[int, int, bool]]] = {}
        self.pin_overrides: dict[int, list[tuple[int, int, bool]]] = {}


class NumpyFaultSimulator:
    """Bitslice parallel-pattern stuck-at fault simulator (numpy engine).

    Bit-exact against the python oracle in ``tests/fault_sim_oracle.py``
    for every ``FaultSimResult`` field, provided both use the same
    ``width`` (the detection-count group extent).

    Parameters
    ----------
    circuit:
        The combinational circuit under test.
    width:
        Patterns per block (detection group extent).  Must be a positive
        multiple of 64 — blocks are whole ``uint64`` words.
    lane_batch:
        Faults evaluated per union-of-cones batch.  A pure tuning knob
        (results are identical for any value >= 1): more lanes amortise
        per-gate dispatch further but widen the cone unions.
    """

    #: Engine tag on this simulator's ``fault_sim.run`` spans.
    kind = "numpy"

    def __init__(
        self,
        circuit: Circuit,
        width: int = DEFAULT_NUMPY_WIDTH,
        lane_batch: int = DEFAULT_LANE_BATCH,
    ) -> None:
        if width < 64 or width % 64:
            raise ValueError(
                "numpy engine width must be a positive multiple of 64 "
                f"(whole uint64 words), got {width}"
            )
        if lane_batch < 1:
            raise ValueError(f"lane_batch must be positive, got {lane_batch}")
        self.circuit = circuit
        self.width = width
        self.lane_batch = lane_batch
        self.logic = LogicSimulator(circuit, width=width)
        self.cones = ConeIndex(self.logic)
        self._n_inputs = len(circuit.primary_inputs)
        self.words_per_block = width // 64
        self._batch_memo: dict[
            tuple[tuple[StuckAtFault, ...], ...], _BatchProgram
        ] = {}

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def cone_size(self, fault: StuckAtFault) -> int:
        """Number of gates in ``fault``'s output cone."""
        return len(self.cones.fault_cone(fault).gate_idx)

    def _compile_batch(
        self, lanes: tuple[tuple[StuckAtFault, ...], ...]
    ) -> _BatchProgram:
        """Compile one lane batch into a union-of-cones slot schedule.

        Each lane is a tuple of simultaneous stuck-at forces: one fault for
        plain fault simulation, several sites for a multiple stuck-at force.
        """
        program = self._batch_memo.get(lanes)
        if program is not None:
            return program
        logic = self.logic
        cones = self.cones
        out_ids = logic.out_ids
        prog = _BatchProgram()
        prog.n_lanes = len(lanes)

        fault_cones = [cones.fault_cone(f) for lane in lanes for f in lane]
        union_gates = sorted(set().union(*(c.gate_idx for c in fault_cones)))
        pos_of = {gi: pos for pos, gi in enumerate(union_gates)}
        slot_of = {out_ids[gi]: slot for slot, gi in enumerate(union_gates)}
        n_slots = len(union_gates)

        # Per-lane fault forcing.  A forced net driven inside the union
        # keeps its driver (other lanes need the fault-free value) and the
        # faulty lane's row is overwritten right after the driver writes it;
        # a forced net with no driver in the union gets a slot seeded from
        # the good column with the faulty lane's row forced up front.  Pin
        # faults override a single gate's view of one operand for one lane,
        # after any net force on that operand.
        force_slot: dict[int, int] = {}
        for lane, forces in enumerate(lanes):
            for fault in forces:
                nid = logic.net_id[fault.net]
                stuck = bool(fault.value)
                if fault.site is FaultSite.NET:
                    slot = slot_of.get(nid)
                    if slot is not None:
                        driver_pos = pos_of[cones.driver_gate[nid]]
                        prog.post_forces.setdefault(driver_pos, []).append(
                            (slot, lane, stuck)
                        )
                    else:
                        slot = force_slot.get(nid)
                        if slot is None:
                            slot = n_slots
                            n_slots += 1
                            force_slot[nid] = slot
                            prog.seeds.append((slot, nid))
                        prog.init_forces.append((slot, lane, stuck))
                else:
                    gi = cones.gate_index[fault.gate]
                    prog.pin_overrides.setdefault(pos_of[gi], []).append(
                        (fault.pin, lane, stuck)
                    )

        ops_all = logic.ops
        in_ids = logic.in_ids
        for pos, gi in enumerate(union_gates):
            gate_refs: list[int] = []
            for nid in in_ids[gi]:
                slot = slot_of.get(nid)
                if slot is None:
                    slot = force_slot.get(nid)
                if slot is not None:
                    gate_refs.append(~slot)
                else:
                    gate_refs.append(nid)
            overridden = pos in prog.pin_overrides
            if not overridden and all(ref >= 0 for ref in gate_refs):
                # Entirely fault-free inputs for every lane: the output is
                # the good column, no evaluation needed.
                prog.ops.append(_OP_GOOD)
                prog.refs.append((out_ids[gi],))
            else:
                if not overridden and gate_refs[0] >= 0:
                    # Put a lane-shaped (2-d) operand first so in-place
                    # evaluation has a full-shape anchor; every compiled op
                    # core is commutative, and operand order only matters
                    # to pin overrides, which pin this gate to the slow
                    # path anyway.
                    first = next(
                        i for i, ref in enumerate(gate_refs) if ref < 0
                    )
                    gate_refs[0], gate_refs[first] = (
                        gate_refs[first],
                        gate_refs[0],
                    )
                prog.ops.append(ops_all[gi])
                prog.refs.append(tuple(gate_refs))
            prog.out_slots.append(slot_of[out_ids[gi]])

        po_seen: set[int] = set()
        for cone in fault_cones:
            for po in cone.po_ids:
                if po in po_seen:
                    continue
                po_seen.add(po)
                slot = slot_of.get(po)
                if slot is None:
                    slot = force_slot.get(po)
                if slot is not None:
                    prog.po_refs.append((slot, po))
                # Otherwise the cone output keeps its fault-free value for
                # every lane (a pin-faulted net that is itself a PO): the
                # diff is identically 0.

        prog.n_slots = n_slots
        self._batch_memo[lanes] = prog
        return prog

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def good_block(self, block_words: np.ndarray) -> np.ndarray:
        """Fault-free simulation of one block: ``(words, n_nets)`` values."""
        logic = self.logic
        n_words = block_words.shape[0]
        values = np.zeros((n_words, logic.n_nets), dtype=np.uint64)
        values[:, : self._n_inputs] = block_words
        in_ids = logic.in_ids
        out_ids = logic.out_ids
        for i, op in enumerate(logic.ops):
            ids = in_ids[i]
            out = values[:, out_ids[i]]
            if op == OP_BUF:
                out[...] = values[:, ids[0]]
                continue
            if op == OP_NOT:
                np.bitwise_not(values[:, ids[0]], out=out)
                continue
            core, invert = _CORE_UFUNC[op]
            core(values[:, ids[0]], values[:, ids[1]], out=out)
            for nid in ids[2:]:
                core(out, values[:, nid], out=out)
            if invert:
                np.bitwise_not(out, out=out)
        return values

    def _run_batch(
        self,
        prog: _BatchProgram,
        good: np.ndarray,
        local: np.ndarray,
        diff: np.ndarray,
        tmp: np.ndarray,
    ) -> np.ndarray:
        """Evaluate one batch over one good block; return per-lane diffs.

        ``local`` is the ``(n_slots, n_lanes, words)`` scratch, ``diff`` and
        ``tmp`` are ``(n_lanes, words)`` scratch; all are caller-provided
        views so buffers are reused across blocks and batches.
        """
        n_lanes, n_words = diff.shape
        for slot, nid in prog.seeds:
            local[slot][...] = good[:, nid]
        for slot, lane, stuck in prog.init_forces:
            local[slot][lane, :] = _U64_ONES if stuck else _U64_ZERO

        ops = prog.ops
        refs = prog.refs
        out_slots = prog.out_slots
        post_forces = prog.post_forces
        pin_overrides = prog.pin_overrides
        for pos in range(len(ops)):
            op = ops[pos]
            ids = refs[pos]
            out = local[out_slots[pos]]
            if op == _OP_GOOD:
                out[...] = good[:, ids[0]]
            elif op == OP_BUF or op == OP_NOT:
                override = pin_overrides.get(pos)
                if override is None:
                    source = local[~ids[0]]
                else:
                    source = self._overridden_operands(
                        ids, override, local, good, n_lanes, n_words
                    )[0]
                if op == OP_BUF:
                    out[...] = source
                else:
                    np.bitwise_not(source, out=out)
            else:
                core, invert = _CORE_UFUNC[op]
                override = pin_overrides.get(pos)
                if override is None:
                    first = local[~ids[0]]
                    second = local[~ids[1]] if ids[1] < 0 else good[:, ids[1]]
                    core(first, second, out=out)
                    for ref in ids[2:]:
                        operand = local[~ref] if ref < 0 else good[:, ref]
                        core(out, operand, out=out)
                else:
                    operands = self._overridden_operands(
                        ids, override, local, good, n_lanes, n_words
                    )
                    # Anchor the fold on a lane-shaped operand (the
                    # override materialised at least one); the cores are
                    # commutative so reordering is free.
                    anchor = next(
                        i for i, arr in enumerate(operands) if arr.ndim == 2
                    )
                    operands[0], operands[anchor] = (
                        operands[anchor],
                        operands[0],
                    )
                    core(operands[0], operands[1], out=out)
                    for operand in operands[2:]:
                        core(out, operand, out=out)
                if invert:
                    np.bitwise_not(out, out=out)
            forces = post_forces.get(pos)
            if forces:
                for slot, lane, stuck in forces:
                    local[slot][lane, :] = _U64_ONES if stuck else _U64_ZERO

        diff[...] = _U64_ZERO
        for slot, po in prog.po_refs:
            np.bitwise_xor(local[slot], good[:, po], out=tmp)
            np.bitwise_or(diff, tmp, out=diff)
        return diff

    @staticmethod
    def _overridden_operands(
        ids: tuple[int, ...],
        override: list[tuple[int, int, bool]],
        local: np.ndarray,
        good: np.ndarray,
        n_lanes: int,
        n_words: int,
    ) -> list[np.ndarray]:
        """Materialise a gate's operands with per-lane pin forces applied."""
        operands: list[np.ndarray] = [
            local[~ref] if ref < 0 else good[:, ref] for ref in ids
        ]
        forced_pins = {pin for pin, _, _ in override}
        for pin in forced_pins:
            forced = np.empty((n_lanes, n_words), dtype=np.uint64)
            forced[...] = operands[pin]
            operands[pin] = forced
        for pin, lane, stuck in override:
            operands[pin][lane, :] = _U64_ONES if stuck else _U64_ZERO
        return operands

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def _lane_batches(
        self, good: np.ndarray, lanes: Sequence[tuple[StuckAtFault, ...]]
    ) -> Iterator[tuple[list[int], _BatchProgram, np.ndarray, np.ndarray]]:
        """Evaluate ``lanes`` over one good block, batch by batch.

        Lanes run cheapest-cone-first in batches of ``lane_batch``.  Yields
        each batch's lane indices, its program, its evaluated slots
        (``(n_slots, n_lanes, words)``) and its per-lane diffs; both arrays
        are scratch that the next batch overwrites.
        """
        n_words = good.shape[0]
        order = sorted(
            range(len(lanes)),
            key=lambda i: sum(self.cone_size(f) for f in lanes[i]),
        )
        lane_batch = self.lane_batch
        batches = [
            order[start : start + lane_batch]
            for start in range(0, len(order), lane_batch)
        ]
        programs = [
            self._compile_batch(tuple(lanes[i] for i in batch))
            for batch in batches
        ]
        max_slots = max((prog.n_slots for prog in programs), default=0)
        local_buf = np.empty((max_slots, lane_batch, n_words), dtype=np.uint64)
        diff_buf = np.empty((lane_batch, n_words), dtype=np.uint64)
        tmp_buf = np.empty_like(diff_buf)
        for batch, prog in zip(batches, programs):
            n_lanes = prog.n_lanes
            local = local_buf[: prog.n_slots, :n_lanes]
            diff = self._run_batch(
                prog, good, local, diff_buf[:n_lanes], tmp_buf[:n_lanes]
            )
            yield batch, prog, local, diff

    def detection_words(
        self,
        good: np.ndarray,
        n_patterns: int,
        lanes: Sequence[tuple[StuckAtFault, ...]],
    ) -> np.ndarray:
        """Where each lane's simultaneous forces reach a primary output.

        ``good`` is :meth:`good_block` of one block holding all
        ``n_patterns`` patterns.  Row ``i`` of the ``(len(lanes), words)``
        result is lane ``i``'s detection bitset over that block: bit
        ``k % 64`` of word ``k // 64`` is set when pattern ``k`` detects the
        lane.  Bits past the last pattern are clear.
        """
        table = np.zeros((len(lanes), good.shape[0]), dtype=np.uint64)
        for batch, _, _, diff in self._lane_batches(good, lanes):
            table[batch] = diff
        _clear_tail(table, n_patterns)
        return table

    def po_diff_words(
        self,
        good: np.ndarray,
        n_patterns: int,
        lanes: Sequence[tuple[StuckAtFault, ...]],
    ) -> np.ndarray:
        """Per-primary-output refinement of :meth:`detection_words`.

        Entry ``[i, j]`` of the ``(len(lanes), n_outputs, words)`` result is
        the bitset of patterns on which lane ``i`` flips primary output
        ``j`` (in ``circuit.primary_outputs`` order).  The OR over ``j`` is
        :meth:`detection_words`.
        """
        po_ids = self.logic.po_ids
        column = {po: j for j, po in enumerate(po_ids)}
        table = np.zeros(
            (len(lanes), len(po_ids), good.shape[0]), dtype=np.uint64
        )
        for batch, prog, local, _ in self._lane_batches(good, lanes):
            for slot, po in prog.po_refs:
                table[batch, column[po]] = local[slot] ^ good[:, po]
        _clear_tail(table, n_patterns)
        return table

    def run(
        self,
        patterns: Sequence[Sequence[int]],
        faults: list[StuckAtFault] | None = None,
        drop_detected: bool = True,
    ) -> FaultSimResult:
        """Fault-simulate ``patterns`` against ``faults`` (default: universe)."""
        if faults is None:
            faults = full_fault_universe(self.circuit)
        packed = pack_bitslice(patterns, self._n_inputs)
        first_detection, detection_counts = self._simulate_groups(
            packed, len(patterns), faults, drop_detected
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
        packed: np.ndarray,
        n_patterns: int,
        faults: list[StuckAtFault],
        drop_detected: bool,
    ) -> tuple[dict[StuckAtFault, int], dict[StuckAtFault, int]]:
        """The simulation core: span + block loop; :meth:`run` counts."""
        first_detection: dict[StuckAtFault, int] = {}
        detection_counts: dict[StuckAtFault, int] = {}
        width = self.width
        words_per_block = self.words_per_block
        n_words_total = packed.shape[0]
        with obs.span(
            "fault_sim.run",
            n_patterns=n_patterns,
            n_faults=len(faults),
            word_width=width,
            engine=self.kind,
        ):
            # Static cheapest-cone-first order, then fixed lane batches:
            # small (easily detected) cones share batches and retire early,
            # so surviving blocks only pay for the big unions that are
            # genuinely undetected.
            ordered = sorted(faults, key=self.cone_size)
            lane_batch = self.lane_batch
            batches = [
                ordered[start : start + lane_batch]
                for start in range(0, len(ordered), lane_batch)
            ]
            programs = [
                self._compile_batch(tuple((fault,) for fault in batch))
                for batch in batches
            ]
            alive = [
                np.ones(prog.n_lanes, dtype=bool) for prog in programs
            ]
            batch_alive = [prog.n_lanes for prog in programs]
            remaining = len(ordered)

            # Scratch buffers shared across blocks and batches.
            max_slots = max((prog.n_slots for prog in programs), default=0)
            local_buf = np.empty(
                (max_slots, lane_batch, words_per_block), dtype=np.uint64
            )
            diff_buf = np.empty((lane_batch, words_per_block), dtype=np.uint64)
            tmp_buf = np.empty_like(diff_buf)

            n_blocks = -(-n_words_total // words_per_block) if n_patterns else 0
            for block_index in range(n_blocks):
                if not programs or (drop_detected and remaining == 0):
                    break
                word_lo = block_index * words_per_block
                word_hi = min(word_lo + words_per_block, n_words_total)
                n_words = word_hi - word_lo
                base = block_index * width
                good = self.good_block(packed[word_lo:word_hi])
                last_block = word_hi == n_words_total
                for batch_index, prog in enumerate(programs):
                    if drop_detected and batch_alive[batch_index] == 0:
                        continue
                    n_lanes = prog.n_lanes
                    local = local_buf[: prog.n_slots, :n_lanes, :n_words]
                    diff = diff_buf[:n_lanes, :n_words]
                    tmp = tmp_buf[:n_lanes, :n_words]
                    self._run_batch(prog, good, local, diff, tmp)
                    if last_block:
                        _clear_tail(diff, n_patterns)
                    lane_alive = alive[batch_index]
                    hits = np.nonzero(diff.any(axis=1))[0]
                    for row in hits:
                        lane = int(row)
                        if drop_detected and not lane_alive[lane]:
                            continue
                        words = diff[lane]
                        nz = np.nonzero(words)[0]
                        first_word = int(nz[0])
                        value = int(words[first_word])
                        first = (
                            base
                            + first_word * 64
                            + (value & -value).bit_length()
                        )
                        fault = batches[batch_index][lane]
                        if fault not in first_detection:
                            first_detection[fault] = first
                        detection_counts[fault] = detection_counts.get(
                            fault, 0
                        ) + _popcount(words)
                        if drop_detected:
                            lane_alive[lane] = False
                            batch_alive[batch_index] -= 1
                            remaining -= 1
        return first_detection, detection_counts
