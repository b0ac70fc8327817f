"""Gate library: supported combinational gate types and their evaluation.

The library supports both scalar boolean evaluation (ints 0/1) and 64-way
parallel-pattern evaluation over Python integers used as bit vectors, which is
what the logic and fault simulators use.  All gates are the classic ISCAS-85
primitives: AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF.

The same table also records the CMOS transistor cost of each gate type, used by
the standard-cell generator in :mod:`repro.layout.cells`.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from typing import Sequence

__all__ = [
    "GateType",
    "evaluate_gate",
    "evaluate_gate_packed",
    "ALL_ONES_64",
    "DEFAULT_WORD_WIDTH",
    "all_ones",
]

#: Mask of 64 set bits, the width of the classic packed simulation word.
ALL_ONES_64 = (1 << 64) - 1

#: Default packed-word width of the logic simulator.  Python ints are arbitrary
#: precision, so packing more patterns per word amortises interpreter
#: overhead; 256 is the sweet spot measured in ``BENCH_fault_sim.json``.
DEFAULT_WORD_WIDTH = 256


def all_ones(width: int) -> int:
    """Mask of ``width`` set bits (the all-detecting packed word)."""
    if width < 1:
        raise ValueError(f"word width must be positive, got {width}")
    return (1 << width) - 1


class GateType(str, Enum):
    """Combinational gate primitives understood by the simulators."""

    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"

    @property
    def is_inverting(self) -> bool:
        """True when the gate's output is the complement of its core function.

        Used by the standard-cell generator: inverting gates map to a single
        complementary CMOS stage, non-inverting ones need an output inverter.
        """
        return self in _INVERTING

    @property
    def min_inputs(self) -> int:
        """Smallest legal fan-in for this gate type."""
        return 1 if self in (GateType.NOT, GateType.BUF) else 2

    @property
    def max_inputs(self) -> int | None:
        """Largest legal fan-in, or None when unbounded."""
        return 1 if self in (GateType.NOT, GateType.BUF) else None

    def transistor_count(self, n_inputs: int) -> int:
        """Number of MOS transistors in the CMOS realisation of this gate.

        Static complementary CMOS: ``2 * n`` for an n-input inverting gate,
        plus an output inverter (2 transistors) for non-inverting gates.
        XOR/XNOR use the common 10/12-transistor static realisations for two
        inputs and are composed from 2-input stages above that.
        """
        if self in (GateType.NOT, GateType.BUF):
            return 2 if self is GateType.NOT else 4
        if self in (GateType.XOR, GateType.XNOR):
            # Chain of (n-1) two-input stages, 12 transistors each (static
            # complementary XOR with local input inversion), minus the final
            # inverter when the parity of inversion works out.
            base = 12 * (n_inputs - 1)
            return base if self is GateType.XOR else base + 2
        core = 2 * n_inputs
        return core if self.is_inverting else core + 2


_INVERTING = frozenset({GateType.NAND, GateType.NOR, GateType.NOT, GateType.XNOR})


def _xor_reduce(values: Sequence[int]) -> int:
    return reduce(lambda a, b: a ^ b, values)


def evaluate_gate(gate_type: GateType, inputs: Sequence[int]) -> int:
    """Evaluate a gate over scalar boolean inputs (each 0 or 1).

    Parameters
    ----------
    gate_type:
        The gate primitive to evaluate.
    inputs:
        Input values, each 0 or 1.  Length must be legal for the gate type.

    Returns
    -------
    int
        The output value, 0 or 1.
    """
    _check_arity(gate_type, len(inputs))
    return evaluate_gate_packed(gate_type, inputs, mask=1)


def evaluate_gate_packed(
    gate_type: GateType, inputs: Sequence[int], mask: int = ALL_ONES_64
) -> int:
    """Evaluate a gate over packed pattern words.

    Each input is an integer whose bits carry one pattern per bit position;
    the result carries the gate output for each pattern.  ``mask`` bounds the
    word width so complements stay finite.
    """
    _check_arity(gate_type, len(inputs))
    if gate_type is GateType.AND:
        return reduce(lambda a, b: a & b, inputs)
    if gate_type is GateType.NAND:
        return mask & ~reduce(lambda a, b: a & b, inputs)
    if gate_type is GateType.OR:
        return reduce(lambda a, b: a | b, inputs)
    if gate_type is GateType.NOR:
        return mask & ~reduce(lambda a, b: a | b, inputs)
    if gate_type is GateType.XOR:
        return _xor_reduce(inputs)
    if gate_type is GateType.XNOR:
        return mask & ~_xor_reduce(inputs)
    if gate_type is GateType.NOT:
        return mask & ~inputs[0]
    if gate_type is GateType.BUF:
        return inputs[0]
    raise ValueError(f"unknown gate type: {gate_type!r}")


def _check_arity(gate_type: GateType, n: int) -> None:
    if n < gate_type.min_inputs:
        raise ValueError(
            f"{gate_type.value} needs at least {gate_type.min_inputs} inputs, got {n}"
        )
    if gate_type.max_inputs is not None and n > gate_type.max_inputs:
        raise ValueError(
            f"{gate_type.value} takes at most {gate_type.max_inputs} inputs, got {n}"
        )
