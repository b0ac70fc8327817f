"""Deterministic test generation for bridging faults.

The paper's experiment shows that a 100 %-stuck-at test set still misses
part of the bridge population (it is what keeps theta below theta_max at
T = 1).  This module closes that gap the way later industrial flows did:
generate vectors *targeted at* specific bridges.

Construction: a **miter**.  The good circuit and a faulty copy (with the two
bridged nets replaced by their wired-resolution function) share the primary
inputs; each output pair feeds an XOR, and the XORs feed an OR tree whose
single output ``DIFF`` is 1 exactly when the bridge is detected.  Running
the existing PODEM on ``DIFF stuck-at-0`` then either returns a detecting
vector or *proves* the bridge untestable under the chosen dominance model.

Candidate vectors should be confirmed against the switch-level simulator
(whose per-vector strength resolution is finer than the dominance
abstraction); see ``examples/bridge_test_topoff.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atpg.podem import AtpgStatus, PodemAtpg
from repro.circuit.library import GateType
from repro.circuit.netlist import Circuit
from repro.simulation.faults import StuckAtFault

__all__ = [
    "FeedbackBridgeError",
    "build_bridge_miter",
    "BridgeAtpgResult",
    "generate_bridge_tests",
]

_FAULTY_PREFIX = "f$"
_DIFF_NET = "BRIDGE$DIFF"


class FeedbackBridgeError(ValueError):
    """Raised when one bridged net lies in the other's fan-out cone.

    A feedback bridge turns the miter combinational model into a cyclic one;
    like the switch-level simulator's dominant-driver approximation, the
    miter ATPG does not model the oscillation/latching behaviour and refuses
    rather than producing wrong proofs.
    """


def build_bridge_miter(
    circuit: Circuit,
    net_a: str,
    net_b: str,
    dominance: str = "wired-and",
) -> Circuit:
    """Build the good-vs-bridged miter for one bridge.

    ``dominance`` selects the resolution model: ``"wired-and"`` (0 wins, the
    CMOS default), ``"wired-or"`` (1 wins), ``"a-dominates"`` or
    ``"b-dominates"`` (one driver overpowers the other).

    The returned circuit shares the original primary inputs and exposes a
    single primary output ``BRIDGE$DIFF`` that is 1 iff the bridge is
    detected at some original output.
    """
    nets = set(circuit.nets)
    if net_a not in nets or net_b not in nets:
        raise ValueError(f"bridge nets must exist in the circuit: {net_a}, {net_b}")
    if net_a == net_b:
        raise ValueError("cannot bridge a net with itself")
    from repro.circuit.levelize import output_cone

    if net_b in output_cone(circuit, net_a) or net_a in output_cone(circuit, net_b):
        raise FeedbackBridgeError(
            f"{net_a} and {net_b} form a feedback bridge; the combinational "
            "miter cannot model it"
        )

    miter = Circuit(name=f"{circuit.name}_bridge_miter")
    miter.primary_inputs = list(circuit.primary_inputs)
    for gate in circuit.gates:
        miter.add_gate(gate.gate_type, list(gate.inputs), gate.output, gate.name)

    def fnet(net: str) -> str:
        """Faulty-copy name for a net (primary inputs are shared)."""
        return net if net in circuit.primary_inputs else _FAULTY_PREFIX + net

    # Pre-bridge values of the two nets inside the faulty copy.
    pre_a = fnet(net_a) + "$pre" if net_a not in circuit.primary_inputs else net_a
    pre_b = fnet(net_b) + "$pre" if net_b not in circuit.primary_inputs else net_b
    bridged = _FAULTY_PREFIX + "bridge"

    if dominance not in ("wired-and", "wired-or", "a-dominates", "b-dominates"):
        raise ValueError(f"unknown dominance model {dominance!r}")

    def faulty_source(net: str) -> str:
        """What a faulty-copy consumer reads for ``net``."""
        if net in (net_a, net_b):
            if dominance == "a-dominates":
                return net_a if net_a in circuit.primary_inputs else pre_a
            if dominance == "b-dominates":
                return net_b if net_b in circuit.primary_inputs else pre_b
            return bridged
        return fnet(net)

    for gate in circuit.gates:
        output = fnet(gate.output)
        if dominance in ("wired-and", "wired-or"):
            if gate.output in (net_a, net_b):
                output = fnet(gate.output) + "$pre"
        elif dominance == "a-dominates":
            if gate.output == net_a:
                output = pre_a  # also read by net_b's consumers
            elif gate.output == net_b:
                output = fnet(net_b) + "$dead"  # victim driver disconnected
        else:  # b-dominates
            if gate.output == net_b:
                output = pre_b
            elif gate.output == net_a:
                output = fnet(net_a) + "$dead"
        miter.add_gate(
            gate.gate_type,
            [faulty_source(n) for n in gate.inputs],
            output,
            _FAULTY_PREFIX + gate.name,
        )

    if dominance in ("wired-and", "wired-or"):
        op = GateType.AND if dominance == "wired-and" else GateType.OR
        miter.add_gate(op, [pre_a, pre_b], bridged)

    # XOR each output pair, OR-reduce to the DIFF flag.
    xors = []
    for po in circuit.primary_outputs:
        faulty_po = faulty_source(po)
        x = f"BRIDGE$X_{po}"
        miter.add_gate(GateType.XOR, [po, faulty_po], x)
        xors.append(x)
    if len(xors) == 1:
        miter.add_gate(GateType.BUF, xors, _DIFF_NET)
    else:
        miter.add_gate(GateType.OR, xors, _DIFF_NET)
    miter.add_output(_DIFF_NET)
    miter.validate()
    return miter


@dataclass
class BridgeAtpgResult:
    """Outcome of targeted generation over a bridge list."""

    vectors: list[list[int]] = field(default_factory=list)
    tested: list[tuple[str, str]] = field(default_factory=list)
    untestable: list[tuple[str, str]] = field(default_factory=list)
    aborted: list[tuple[str, str]] = field(default_factory=list)
    feedback: list[tuple[str, str]] = field(default_factory=list)


def _exhaustive_miter_check(
    miter: Circuit, exhaustive_limit: int
) -> list[int] | None | str:
    """Decide DIFF satisfiability exhaustively over its support cone.

    Returns a detecting vector, None when proven untestable, or the string
    ``"too-big"`` when the support exceeds ``exhaustive_limit`` inputs.

    A vector sets DIFF to 1 exactly when it detects ``DIFF stuck-at-0``, so
    the scan fault-simulates that one fault over 1,024 assignments per pass
    and reads its first detection, instead of simulating vector by vector.
    """
    from repro.circuit.levelize import input_cone
    from repro.simulation.numpy_sim import NumpyFaultSimulator

    pis = miter.primary_inputs
    support = [pi for pi in pis if pi in input_cone(miter, _DIFF_NET)]
    if len(support) > exhaustive_limit:
        return "too-big"
    sim = NumpyFaultSimulator(miter)
    diff_sa0 = StuckAtFault(_DIFF_NET, 0)
    indices = [pis.index(pi) for pi in support]
    n = len(support)
    base = [0] * len(pis)
    # Bound per-pass memory: enumerate assignments in packed-word batches.
    batch = sim.width
    for start in range(0, 2**n, batch):
        chunk = []
        for code in range(start, min(start + batch, 2**n)):
            vec = list(base)
            for bit, index in enumerate(indices):
                vec[index] = (code >> bit) & 1
            chunk.append(vec)
        hit = sim.run(chunk, faults=[diff_sa0]).first_detection.get(diff_sa0)
        if hit is not None:
            return chunk[hit - 1]
    return None


def generate_bridge_tests(
    circuit: Circuit,
    bridges: list[tuple[str, str]],
    dominance: str = "wired-and",
    backtrack_limit: int = 300,
    exhaustive_limit: int = 16,
) -> BridgeAtpgResult:
    """Run miter-based PODEM on each bridge.

    A ``tested`` entry's vector sets the miter's DIFF output to 1 — i.e.
    detects the bridge at an original primary output under the dominance
    model.  ``untestable`` entries carry a *proof* (PODEM search exhaustion,
    or exhaustive simulation of the DIFF support cone when it has at most
    ``exhaustive_limit`` inputs — PODEM is weak at proving redundancy on
    reconvergent miters, so the exhaustive fallback settles the aborts).
    """
    result = BridgeAtpgResult()
    for net_a, net_b in bridges:
        try:
            miter = build_bridge_miter(circuit, net_a, net_b, dominance)
        except FeedbackBridgeError:
            result.feedback.append((net_a, net_b))
            continue
        atpg = PodemAtpg(miter, backtrack_limit=backtrack_limit)
        outcome = atpg.generate(StuckAtFault(_DIFF_NET, 0))
        if outcome.status == AtpgStatus.TESTED:
            result.tested.append((net_a, net_b))
            result.vectors.append(outcome.pattern)
            continue
        if outcome.status == AtpgStatus.REDUNDANT:
            result.untestable.append((net_a, net_b))
            continue
        verdict = _exhaustive_miter_check(miter, exhaustive_limit)
        if verdict == "too-big":
            result.aborted.append((net_a, net_b))
        elif verdict is None:
            result.untestable.append((net_a, net_b))
        else:
            result.tested.append((net_a, net_b))
            result.vectors.append(verdict)
    return result
