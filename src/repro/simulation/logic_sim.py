"""Parallel-pattern gate-level logic simulation.

Patterns are packed ``W`` per word (Python ints used as bit vectors, default
``W = 256``), so one pass over the levelized gate list evaluates a whole
group of input vectors at once — the standard trick used by production fault
simulators, and the reason the paper's per-vector coverage curves are cheap
to regenerate.  Because Python ints are arbitrary precision, the word width
is a tuning knob rather than a machine constant; wider words amortise the
per-gate interpreter overhead over more patterns (see
``docs/PERFORMANCE.md``).

The simulator compiles the circuit once into a dense net-id program: nets
are numbered (primary inputs first, then gate outputs in topological order)
and simulation runs over a flat value list indexed by net id instead of a
dict keyed by name.  The fault simulator reuses the same compiled arrays for
its cone-restricted resimulation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.circuit.levelize import levelize
from repro.circuit.library import DEFAULT_WORD_WIDTH, GateType, all_ones
from repro.circuit.netlist import Circuit, Gate

__all__ = ["LogicSimulator", "pack_patterns", "unpack_word"]

# Compiled opcode per gate type (dispatch on small ints in the hot loop).
OP_AND, OP_NAND, OP_OR, OP_NOR, OP_XOR, OP_XNOR, OP_NOT, OP_BUF = range(8)

GATE_OPCODE: dict[GateType, int] = {
    GateType.AND: OP_AND,
    GateType.NAND: OP_NAND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_NOR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
    GateType.NOT: OP_NOT,
    GateType.BUF: OP_BUF,
}

#: Opcodes whose result is the mask-complement of the non-inverting core.
_INVERTING_OPS = frozenset({OP_NAND, OP_NOR, OP_XNOR, OP_NOT})


def pack_patterns(
    patterns: Sequence[Sequence[int]],
    n_inputs: int,
    width: int = DEFAULT_WORD_WIDTH,
) -> list[list[int]]:
    """Pack up-to-``width``-pattern groups into words, one word list per group.

    Parameters
    ----------
    patterns:
        Sequence of input vectors; each vector has one 0/1 entry per PI.
    n_inputs:
        Number of primary inputs (vector length check).
    width:
        Patterns per packed word (the simulation word width).

    Returns
    -------
    list of word groups; each group is a list with one packed int per PI,
    where bit ``p`` of word ``i`` is pattern ``p``'s value for input ``i``.
    """
    if width < 1:
        raise ValueError(f"word width must be positive, got {width}")
    groups: list[list[int]] = []
    for start in range(0, len(patterns), width):
        chunk = patterns[start : start + width]
        words = [0] * n_inputs
        for bit, vector in enumerate(chunk):
            if len(vector) != n_inputs:
                raise ValueError(
                    f"pattern {start + bit} has {len(vector)} values, "
                    f"expected {n_inputs}"
                )
            for i, value in enumerate(vector):
                if value:
                    words[i] |= 1 << bit
        groups.append(words)
    return groups


def unpack_word(word: int, n_patterns: int) -> list[int]:
    """Expand a packed word back into per-pattern 0/1 values."""
    return [(word >> bit) & 1 for bit in range(n_patterns)]


def evaluate_op(op: int, operands: Sequence[int], mask: int) -> int:
    """Evaluate one compiled opcode over packed operand words.

    All operand words must be subsets of ``mask``, which the simulators
    guarantee by construction; inverting ops then reduce to a single XOR.
    """
    if op == OP_AND:
        value = operands[0]
        for word in operands[1:]:
            value &= word
        return value
    if op == OP_NAND:
        value = operands[0]
        for word in operands[1:]:
            value &= word
        return mask ^ value
    if op == OP_OR:
        value = operands[0]
        for word in operands[1:]:
            value |= word
        return value
    if op == OP_NOR:
        value = operands[0]
        for word in operands[1:]:
            value |= word
        return mask ^ value
    if op == OP_XOR:
        value = operands[0]
        for word in operands[1:]:
            value ^= word
        return value
    if op == OP_XNOR:
        value = operands[0]
        for word in operands[1:]:
            value ^= word
        return mask ^ value
    if op == OP_NOT:
        return mask ^ operands[0]
    if op == OP_BUF:
        return operands[0]
    raise ValueError(f"unknown opcode {op}")


class LogicSimulator:
    """Levelized, wide-word parallel-pattern logic simulator.

    The simulator is constructed once per circuit; the compiled net-id
    program (level order, opcodes, dense operand indices) is cached so
    repeated simulation pays no graph-traversal or name-lookup cost.

    Parameters
    ----------
    circuit:
        The combinational circuit to simulate.
    width:
        Patterns per packed word.  All packed words handed to
        :meth:`simulate_packed` must have been packed at this width.
    """

    def __init__(self, circuit: Circuit, width: int = DEFAULT_WORD_WIDTH):
        circuit.validate()
        self.circuit = circuit
        self.width = width
        self.mask = all_ones(width)
        self.order: list[Gate] = levelize(circuit)
        self._n_inputs = len(circuit.primary_inputs)

        # Dense net-id space: primary inputs first (id == PI position), then
        # gate outputs in topological order.
        net_id: dict[str, int] = {
            pi: i for i, pi in enumerate(circuit.primary_inputs)
        }
        for gate in self.order:
            if gate.output not in net_id:
                net_id[gate.output] = len(net_id)
        self.net_id = net_id
        self.net_names: list[str] = [""] * len(net_id)
        for name, nid in net_id.items():
            self.net_names[nid] = name
        self.n_nets = len(net_id)
        self.po_ids: list[int] = [net_id[po] for po in circuit.primary_outputs]

        # Compiled program: one (opcode, output id, operand-id tuple) per
        # gate in topological order.
        self.ops: list[int] = []
        self.out_ids: list[int] = []
        self.in_ids: list[tuple[int, ...]] = []
        for gate in self.order:
            self.ops.append(GATE_OPCODE[gate.gate_type])
            self.out_ids.append(net_id[gate.output])
            self.in_ids.append(tuple(net_id[n] for n in gate.inputs))

    def simulate_packed_list(self, input_words: Sequence[int]) -> list[int]:
        """Simulate one packed word group; return values indexed by net id.

        ``input_words`` carries one word per primary input, in PI order; the
        returned list is indexed by the dense net id (:attr:`net_id`).
        """
        if len(input_words) != self._n_inputs:
            raise ValueError(
                f"expected {self._n_inputs} input words, got {len(input_words)}"
            )
        mask = self.mask
        values = [0] * self.n_nets
        values[: self._n_inputs] = input_words
        in_ids = self.in_ids
        out_ids = self.out_ids
        for i, op in enumerate(self.ops):
            ids = in_ids[i]
            if len(ids) == 2:
                a = values[ids[0]]
                b = values[ids[1]]
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
                else:  # OP_XNOR (2-input NOT/BUF cannot occur)
                    value = mask ^ a ^ b
            elif len(ids) == 1:
                value = values[ids[0]] if op == OP_BUF else mask ^ values[ids[0]]
            else:
                value = evaluate_op(op, [values[j] for j in ids], mask)
            values[out_ids[i]] = value
        return values

    def simulate_packed(self, input_words: Sequence[int]) -> dict[str, int]:
        """Simulate one packed word group; return net name -> packed values.

        ``input_words`` carries one word per primary input, in PI order.
        """
        return dict(zip(self.net_names, self.simulate_packed_list(input_words)))

    def simulate(self, pattern: Sequence[int]) -> dict[str, int]:
        """Simulate a single input vector; return net name -> 0/1."""
        words = pack_patterns([list(pattern)], self._n_inputs, self.width)[0]
        values = self.simulate_packed_list(words)
        return {
            name: values[nid] & 1 for name, nid in self.net_id.items()
        }

    def outputs(self, pattern: Sequence[int]) -> list[int]:
        """Primary output values for one input vector, in PO order."""
        words = pack_patterns([list(pattern)], self._n_inputs, self.width)[0]
        values = self.simulate_packed_list(words)
        return [values[po] & 1 for po in self.po_ids]

    def output_words(self, input_words: Sequence[int]) -> list[int]:
        """Packed primary output words for one packed word group."""
        values = self.simulate_packed_list(input_words)
        return [values[po] for po in self.po_ids]

    def run_patterns(
        self, patterns: Sequence[Sequence[int]]
    ) -> list[list[int]]:
        """Simulate many vectors; return a PO-value row per vector."""
        results: list[list[int]] = []
        width = self.width
        for start, words in enumerate(
            pack_patterns(patterns, self._n_inputs, width)
        ):
            n_here = min(width, len(patterns) - start * width)
            out_words = self.output_words(words)
            for bit in range(n_here):
                results.append([(w >> bit) & 1 for w in out_words])
        return results

    def truth_table(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Exhaustive truth table; only sensible for small input counts."""
        if self._n_inputs > 20:
            raise ValueError("truth table limited to 20 inputs")
        rows = []
        for code in range(2**self._n_inputs):
            vec = [(code >> i) & 1 for i in range(self._n_inputs)]
            rows.append((tuple(vec), tuple(self.outputs(vec))))
        return rows


def patterns_from_ints(codes: Iterable[int], n_inputs: int) -> list[list[int]]:
    """Convert integer codes to input vectors (bit ``i`` drives PI ``i``)."""
    return [[(code >> i) & 1 for i in range(n_inputs)] for code in codes]
