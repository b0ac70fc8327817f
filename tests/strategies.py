"""Hypothesis strategies shared by the oracle tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.circuit import Circuit, GateType

_KINDS = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.NOT,
]


@st.composite
def small_circuits(draw, max_inputs: int = 5, max_gates: int = 10) -> Circuit:
    """Random combinational circuits with one or two primary outputs.

    Each gate reads 1 (NOT) or 2-3 earlier nets, so reconvergence, tied
    inputs and unobservable logic all occur.
    """
    n_inputs = draw(st.integers(min_value=2, max_value=max_inputs))
    n_gates = draw(st.integers(min_value=1, max_value=max_gates))
    ckt = Circuit(name="oracle")
    nets = [ckt.add_input(f"i{k}") for k in range(n_inputs)]
    for g in range(n_gates):
        gt = draw(st.sampled_from(_KINDS))
        fan = 1 if gt is GateType.NOT else draw(st.integers(2, 3))
        sources = [nets[draw(st.integers(0, len(nets) - 1))] for _ in range(fan)]
        ckt.add_gate(gt, sources, f"g{g}")
        nets.append(f"g{g}")
    ckt.add_output(nets[-1])
    if n_gates > 2:
        ckt.add_output(nets[n_inputs + n_gates // 2])
    ckt.validate()
    return ckt
