"""PODEM deterministic test generation for single stuck-at faults.

The paper tops off its random prefix with vectors "deterministically generated
using the FAN algorithm"; this module plays that role with PODEM (Goel 1981),
which shares FAN's objective/backtrace structure.  Implication is a two-channel
(good/faulty) three-valued simulation, backtrace is guided by SCOAP
controllability, and an X-path check prunes dead branches early.

The public entry points are :class:`PodemAtpg` for a single fault and
:func:`generate_deterministic_tests` to extend a test set over a fault list
with fault dropping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Mapping

from repro import obs
from repro.analysis.scoap import ScoapMeasures, compute_scoap
from repro.atpg.patterns import TestSet
from repro.circuit.levelize import levelize
from repro.circuit.library import GateType
from repro.circuit.netlist import Circuit, Gate
from repro.obs.events import ProgressEvent
from repro.simulation.faults import FaultSite, StuckAtFault
from repro.simulation.numpy_sim import NumpyFaultSimulator

__all__ = [
    "PodemAtpg",
    "AtpgStatus",
    "AtpgOutcome",
    "DeterministicAtpgResult",
    "generate_deterministic_tests",
    "scoap_controllability",
]

#: Three-valued signal levels; X is "unassigned / unknown".
ZERO, ONE, X = 0, 1, 2

#: Learned implications, as produced by ``repro.analysis.prover.static_learning``:
#: antecedent ``(net, value)`` -> consequent literals, each a tautology of the
#: fault-free circuit.
LearnedImplications = Mapping[tuple[str, int], tuple[tuple[str, int], ...]]


def _eval3(gate_type: GateType, values: list[int]) -> int:
    """Three-valued gate evaluation over {0, 1, X}."""
    if gate_type in (GateType.AND, GateType.NAND):
        if any(v == ZERO for v in values):
            core = ZERO
        elif any(v == X for v in values):
            core = X
        else:
            core = ONE
        return _inv(core) if gate_type is GateType.NAND else core
    if gate_type in (GateType.OR, GateType.NOR):
        if any(v == ONE for v in values):
            core = ONE
        elif any(v == X for v in values):
            core = X
        else:
            core = ZERO
        return _inv(core) if gate_type is GateType.NOR else core
    if gate_type in (GateType.XOR, GateType.XNOR):
        if any(v == X for v in values):
            return X
        core = 0
        for v in values:
            core ^= v
        return _inv(core) if gate_type is GateType.XNOR else core
    if gate_type is GateType.NOT:
        return _inv(values[0])
    if gate_type is GateType.BUF:
        return values[0]
    raise ValueError(f"unknown gate type {gate_type!r}")


def _inv(value: int) -> int:
    return X if value == X else 1 - value


def scoap_controllability(circuit: Circuit) -> dict[str, tuple[int, int]]:
    """SCOAP combinational controllability (CC0, CC1) per net.

    Thin wrapper over :func:`repro.analysis.scoap.compute_scoap` kept for the
    backtrace's ``{net: (cc0, cc1)}`` view; the full measures (including
    observability) live in the analysis subsystem.
    """
    measures = compute_scoap(circuit)
    return {net: (measures.cc0[net], measures.cc1[net]) for net in measures.cc0}


class AtpgStatus:
    """Per-fault ATPG outcome labels."""

    TESTED = "tested"
    REDUNDANT = "redundant"  # proved untestable (search exhausted)
    ABORTED = "aborted"      # backtrack limit hit


@dataclass
class AtpgOutcome:
    """Result of one PODEM call: a status and, when tested, a vector."""

    status: str
    pattern: list[int] | None = None
    backtracks: int = 0


class PodemAtpg:
    """PODEM test generator bound to one circuit."""

    def __init__(
        self,
        circuit: Circuit,
        backtrack_limit: int = 2000,
        scoap: ScoapMeasures | None = None,
        learned: LearnedImplications | None = None,
    ):
        circuit.validate()
        self.circuit = circuit
        self.order = levelize(circuit)
        self.driver = {g.output: g for g in circuit.gates}
        self.fanout = circuit.fanout_map()
        if scoap is None:
            scoap = compute_scoap(circuit)
        self.cc = {
            net: (scoap.cc0[net], scoap.cc1[net]) for net in scoap.cc0
        }
        self.backtrack_limit = backtrack_limit
        self.learned: dict[tuple[str, int], tuple[tuple[str, int], ...]] = (
            dict(learned) if learned else {}
        )
        #: Cumulative counts over all :meth:`generate` calls: decision points
        #: failed early because learned implications pin the fault site to its
        #: stuck value, and D-frontier gates pruned because a learned
        #: implication pins a side input to the controlling value.
        self.learned_conflicts = 0
        self.learned_prunes = 0
        self._pi_index = {pi: i for i, pi in enumerate(circuit.primary_inputs)}
        self._gate_by_name = {g.name: g for g in circuit.gates}
        self._support_cache: dict[str, tuple[str, ...]] = {}
        self._cone_cache: dict[str, frozenset[str]] = {}

    # ------------------------------------------------------------------
    # Two-channel implication
    # ------------------------------------------------------------------
    def _imply(
        self, fault: StuckAtFault, assignment: dict[str, int]
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Simulate good and faulty channels from a partial PI assignment."""
        good: dict[str, int] = {}
        faulty: dict[str, int] = {}
        for pi in self.circuit.primary_inputs:
            value = assignment.get(pi, X)
            good[pi] = value
            faulty[pi] = value
        if fault.site is FaultSite.NET and fault.net in faulty:
            faulty[fault.net] = fault.value

        for gate in self.order:
            g_ops = [good[n] for n in gate.inputs]
            f_ops = []
            for pin, net in enumerate(gate.inputs):
                if (
                    fault.site is FaultSite.GATE_INPUT
                    and gate.name == fault.gate
                    and pin == fault.pin
                ):
                    f_ops.append(fault.value)
                else:
                    f_ops.append(faulty[net])
            good[gate.output] = _eval3(gate.gate_type, g_ops)
            out_f = _eval3(gate.gate_type, f_ops)
            if fault.site is FaultSite.NET and gate.output == fault.net:
                out_f = fault.value
            faulty[gate.output] = out_f
        return good, faulty

    # ------------------------------------------------------------------
    # Search support
    # ------------------------------------------------------------------
    def _test_found(self, good: dict[str, int], faulty: dict[str, int]) -> bool:
        return any(
            good[po] != X and faulty[po] != X and good[po] != faulty[po]
            for po in self.circuit.primary_outputs
        )

    def _d_frontier(
        self,
        fault: StuckAtFault,
        good: dict[str, int],
        faulty: dict[str, int],
    ) -> list[Gate]:
        frontier = []
        for gate in self.order:
            out_g, out_f = good[gate.output], faulty[gate.output]
            if out_g != X and out_f != X:
                continue
            has_d = any(
                good[n] != X
                and faulty[n] != X
                and good[n] != faulty[n]
                for n in gate.inputs
            )
            # For a pin fault the discrepancy originates *inside* the faulted
            # gate (the net itself is healthy), so the gate joins the frontier
            # as soon as the pin's net carries the activating value.
            if (
                not has_d
                and fault.site is FaultSite.GATE_INPUT
                and gate.name == fault.gate
                and good[fault.net] == 1 - fault.value
            ):
                has_d = True
            if has_d:
                frontier.append(gate)
        return frontier

    def _x_path_exists(
        self,
        frontier: list[Gate],
        good: dict[str, int],
        faulty: dict[str, int],
    ) -> bool:
        """True when some D-frontier output can still reach a PO through X nets."""
        po_set = set(self.circuit.primary_outputs)
        seen: set[str] = set()
        stack = [g.output for g in frontier]
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            if net in po_set:
                return True
            for reader in self.fanout.get(net, []):
                out = reader.output
                if out in seen:
                    continue
                if good[out] == X or faulty[out] == X:
                    stack.append(out)
        return False

    # ------------------------------------------------------------------
    # Learned-implication support
    # ------------------------------------------------------------------
    def _learned_pins(self, good: dict[str, int]) -> dict[str, int]:
        """Good-channel values pinned by closing under learned implications.

        Every learned implication is a tautology of the fault-free circuit,
        so if ``net=v`` is determined in the good channel, every completion
        of the current partial assignment also satisfies the implication's
        consequents — and everything those consequents force through the
        gates.  The returned map extends ``good`` to a fixpoint of learned
        consequents and three-valued forward evaluation; entries that are X
        in ``good`` but definite here are values the current assignment
        forces in *every* completion, which the search can fail against.
        """
        pins = dict(good)
        stack = [(n, v) for n, v in pins.items() if v != X]
        while stack:
            net, value = stack.pop()
            for c_net, c_value in self.learned.get((net, value), ()):
                if pins.get(c_net, X) == X:
                    pins[c_net] = c_value
                    stack.append((c_net, c_value))
            for gate in self.fanout.get(net, []):
                if pins[gate.output] != X:
                    continue
                out = _eval3(
                    gate.gate_type, [pins[n] for n in gate.inputs]
                )
                if out != X:
                    pins[gate.output] = out
                    stack.append((gate.output, out))
        return pins

    def _effect_cone(self, source: str) -> frozenset[str]:
        """Nets downstream of the fault effect's origin (inclusive)."""
        cached = self._cone_cache.get(source)
        if cached is None:
            from repro.circuit.levelize import output_cone

            cached = frozenset(output_cone(self.circuit, source))
            self._cone_cache[source] = cached
        return cached

    def _prune_frontier(
        self,
        frontier: list[Gate],
        good: dict[str, int],
        pins: dict[str, int],
        cone: frozenset[str],
    ) -> list[Gate]:
        """Drop frontier gates a learned pin provably blocks.

        A gate cannot propagate the effect when a side input outside the
        fault's output cone (so its faulty value always equals its good
        value) is still X but pinned to the gate's controlling value: every
        completion controls the gate identically in both channels.
        """
        kept = []
        for gate in frontier:
            controlling = _controlling_value(gate.gate_type)
            blocked = controlling is not None and any(
                good[n] == X and n not in cone and pins.get(n) == controlling
                for n in gate.inputs
            )
            if blocked:
                self.learned_prunes += 1
            else:
                kept.append(gate)
        return kept

    def _objective(
        self,
        fault: StuckAtFault,
        good: dict[str, int],
        faulty: dict[str, int],
        frontier: list[Gate] | None = None,
    ) -> tuple[str, int] | None:
        site_value = good[fault.net]
        if site_value == X:
            return fault.net, 1 - fault.value
        if frontier is None:
            frontier = self._d_frontier(fault, good, faulty)
        if not frontier:
            return None
        frontier.sort(key=lambda g: self.cc[g.output][0] + self.cc[g.output][1])
        for gate in frontier:
            noncontrolling = _noncontrolling_value(gate.gate_type)
            for net in gate.inputs:
                if good[net] == X:
                    return net, noncontrolling if noncontrolling is not None else ZERO
        return None

    def _backtrace(
        self, net: str, value: int, good: dict[str, int]
    ) -> tuple[str, int] | None:
        """Walk the objective back to an unassigned primary input."""
        for _ in range(10 * (len(self.circuit.gates) + 1)):
            gate = self.driver.get(net)
            if gate is None:  # primary input
                return (net, value) if good[net] == X else None
            gt = gate.gate_type
            inverted = gt in (GateType.NAND, GateType.NOR, GateType.NOT, GateType.XNOR)
            core = value ^ 1 if inverted else value
            x_inputs = [n for n in gate.inputs if good[n] == X]
            if not x_inputs:
                return None
            if gt in (GateType.NOT, GateType.BUF):
                net, value = gate.inputs[0], core
                continue
            controlling = ZERO if gt in (GateType.AND, GateType.NAND) else ONE
            if gt in (GateType.XOR, GateType.XNOR):
                # Pick the easiest X input; target parity of core against the
                # definite inputs, defaulting to core when others are X.
                definite = [good[n] for n in gate.inputs if good[n] != X]
                parity = 0
                for v in definite:
                    parity ^= v
                target = core ^ parity if len(x_inputs) == 1 else core
                chosen = min(x_inputs, key=lambda n: min(self.cc[n]))
                net, value = chosen, target
                continue
            if core == controlling:
                # One input at the controlling value suffices: easiest first.
                chosen = min(x_inputs, key=lambda n: self.cc[n][controlling])
                net, value = chosen, controlling
            else:
                # All inputs must be non-controlling: hardest first.
                chosen = max(x_inputs, key=lambda n: self.cc[n][1 - controlling])
                net, value = chosen, 1 - controlling
        return None

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def generate(self, fault: StuckAtFault, fill: int | None = 0) -> AtpgOutcome:
        """Search for a vector detecting ``fault``.

        Parameters
        ----------
        fault:
            The target stuck-at fault.
        fill:
            Value used for PIs left unassigned by the search (0, 1, or None
            to leave them 0 — callers wanting random fill should post-process
            via :func:`fill_dont_cares`).

        Returns
        -------
        AtpgOutcome
            ``TESTED`` with a full vector, ``REDUNDANT`` when the search space
            is exhausted, or ``ABORTED`` at the backtrack limit.
        """
        assignment: dict[str, int] = {}
        decisions: list[tuple[str, int, bool]] = []  # (pi, value, tried_both)
        backtracks = 0
        effect_source = fault.net
        if fault.site is FaultSite.GATE_INPUT and fault.gate is not None:
            effect_source = self._gate_by_name[fault.gate].output
        cone = (
            self._effect_cone(effect_source) if self.learned else frozenset()
        )

        while True:
            good, faulty = self._imply(fault, assignment)
            if self._test_found(good, faulty):
                return AtpgOutcome(
                    AtpgStatus.TESTED,
                    self._complete_pattern(assignment, fill),
                    backtracks,
                )
            pins = self._learned_pins(good) if self.learned else {}

            failed = False
            frontier: list[Gate] | None = None
            site_value = good[fault.net]
            if site_value != X and site_value == fault.value:
                failed = True  # activation impossible under this assignment
            elif site_value == X and pins.get(fault.net) == fault.value:
                # Learned implications pin the site to its stuck value in
                # every completion of this assignment: activation impossible.
                self.learned_conflicts += 1
                failed = True
            else:
                frontier = self._d_frontier(fault, good, faulty)
                if pins and frontier:
                    frontier = self._prune_frontier(frontier, good, pins, cone)
                activated = site_value != X
                if activated and not frontier:
                    failed = True
                elif frontier and not self._x_path_exists(frontier, good, faulty):
                    failed = True

            if not failed:
                step = None
                objective = self._objective(fault, good, faulty, frontier)
                if objective is not None:
                    step = self._backtrace(objective[0], objective[1], good)
                if step is None:
                    # Heuristic dead-end (e.g. the frontier's side inputs are
                    # X only in the faulty channel).  That is NOT a proof of
                    # failure — fall back to deciding any unassigned primary
                    # input of the fault's support cone, keeping REDUNDANT
                    # verdicts sound.
                    step = self._fallback_decision(fault, assignment)
                if step is None:
                    failed = True  # support exhausted: genuinely dead
                else:
                    pi, value = step
                    assignment[pi] = value
                    decisions.append((pi, value, False))
                    continue

            # Backtrack: flip the most recent single-tried decision.
            backtracks += 1
            if backtracks > self.backtrack_limit:
                return AtpgOutcome(AtpgStatus.ABORTED, None, backtracks)
            while decisions:
                pi, value, tried_both = decisions.pop()
                if tried_both:
                    del assignment[pi]
                    continue
                assignment[pi] = 1 - value
                decisions.append((pi, 1 - value, True))
                break
            else:
                return AtpgOutcome(AtpgStatus.REDUNDANT, None, backtracks)

    def _fallback_decision(
        self, fault: StuckAtFault, assignment: dict[str, int]
    ) -> tuple[str, int] | None:
        """Next unassigned PI in the fault's support cone, or None.

        The support cone — every PI that can influence the fault's activation
        or observation — is the sound decision universe: exhausting it proves
        redundancy.
        """
        for pi in self._support(fault.net):
            if pi not in assignment:
                return pi, ZERO
        return None

    def _support(self, net: str) -> tuple[str, ...]:
        cached = self._support_cache.get(net)
        if cached is not None:
            return cached
        from repro.circuit.levelize import input_cone, output_cone

        pis = set(self.circuit.primary_inputs)
        support: set[str] = set()
        for downstream in output_cone(self.circuit, net):
            support.update(input_cone(self.circuit, downstream) & pis)
        ordered = tuple(
            pi for pi in self.circuit.primary_inputs if pi in support
        )
        self._support_cache[net] = ordered
        return ordered

    def _complete_pattern(
        self, assignment: dict[str, int], fill: int | None
    ) -> list[int]:
        fill_value = 0 if fill is None else fill
        return [
            assignment.get(pi, fill_value)
            for pi in self.circuit.primary_inputs
        ]


def _noncontrolling_value(gate_type: GateType) -> int | None:
    if gate_type in (GateType.AND, GateType.NAND):
        return ONE
    if gate_type in (GateType.OR, GateType.NOR):
        return ZERO
    return None  # XOR family and single-input gates have no controlling value


def _controlling_value(gate_type: GateType) -> int | None:
    noncontrolling = _noncontrolling_value(gate_type)
    return None if noncontrolling is None else 1 - noncontrolling


@dataclass
class DeterministicAtpgResult:
    """Outcome of deterministic top-off generation over a fault list."""

    test_set: TestSet
    tested: list[StuckAtFault] = field(default_factory=list)
    redundant: list[StuckAtFault] = field(default_factory=list)
    aborted: list[StuckAtFault] = field(default_factory=list)
    skipped_untestable: list[StuckAtFault] = field(default_factory=list)
    backtracks: int = 0
    learned_prunes: int = 0
    learned_conflicts: int = 0

    @property
    def coverage_of_targeted(self) -> float:
        """Detected fraction of the targeted (non-redundant) faults."""
        testable = len(self.tested) + len(self.aborted)
        return 1.0 if testable == 0 else len(self.tested) / testable


def generate_deterministic_tests(
    circuit: Circuit,
    faults: list[StuckAtFault],
    backtrack_limit: int = 2000,
    fill: int = 0,
    untestable: Collection[StuckAtFault] | None = None,
    scoap: ScoapMeasures | None = None,
    learned: LearnedImplications | None = None,
) -> DeterministicAtpgResult:
    """Run PODEM over ``faults`` with fault dropping.

    Each generated vector is fault-simulated against the remaining targets so
    one vector can retire several faults, matching the classic flow the paper
    uses after its random prefix.  Faults listed in ``untestable`` — proved
    undetectable by the static implication screen — are recorded in
    ``skipped_untestable`` without spending any search on them; ``scoap``
    passes precomputed testability measures to the backtrace; ``learned``
    hands the prover's static learned implications to the search, where they
    fail impossible activations early and prune blocked D-frontier gates
    (the per-run effect is reported in ``backtracks`` / ``learned_prunes`` /
    ``learned_conflicts``).
    """
    atpg = PodemAtpg(
        circuit, backtrack_limit=backtrack_limit, scoap=scoap, learned=learned
    )
    simulator = NumpyFaultSimulator(circuit)
    result = DeterministicAtpgResult(
        test_set=TestSet(n_inputs=len(circuit.primary_inputs))
    )
    skip = frozenset(untestable) if untestable else frozenset()
    remaining = []
    for fault in faults:
        if fault in skip:
            result.skipped_untestable.append(fault)
        else:
            remaining.append(fault)
    if result.skipped_untestable:
        obs.inc("podem.skipped_untestable", len(result.skipped_untestable))
    n_targets = len(remaining)
    targets_done = 0
    with obs.span("atpg.podem", n_targets=n_targets) as podem_span:
        while remaining:
            target = remaining.pop(0)
            outcome = atpg.generate(target, fill=fill)
            targets_done += 1
            # Retired targets (dropped by simulation below) also count, so
            # report progress as targets *resolved*, not searches run.
            if obs.events_enabled() and (
                targets_done % 16 == 0 or len(remaining) <= 1
            ):
                obs.emit(
                    ProgressEvent(
                        stage="podem",
                        completed=n_targets - len(remaining) - 1,
                        total=n_targets,
                        unit="targets",
                        data={
                            "faults_remaining": len(remaining),
                            "vectors": len(result.test_set),
                            "aborted": len(result.aborted),
                        },
                    )
                )
            obs.inc("podem.backtracks", outcome.backtracks)
            result.backtracks += outcome.backtracks
            if outcome.status == AtpgStatus.REDUNDANT:
                obs.inc("podem.redundant")
                result.redundant.append(target)
                continue
            if outcome.status == AtpgStatus.ABORTED:
                obs.inc("podem.aborted")
                result.aborted.append(target)
                continue
            obs.inc("podem.tested")
            vector = outcome.pattern
            assert vector is not None
            result.test_set.append(vector, "deterministic")
            result.tested.append(target)
            if remaining:
                sim = simulator.run([vector], faults=remaining, drop_detected=False)
                dropped = set(sim.first_detection)
                result.tested.extend(f for f in remaining if f in dropped)
                remaining = [f for f in remaining if f not in dropped]
        result.learned_prunes = atpg.learned_prunes
        result.learned_conflicts = atpg.learned_conflicts
        if atpg.learned:
            obs.inc("podem.learned_prunes", atpg.learned_prunes)
            obs.inc("podem.learned_conflicts", atpg.learned_conflicts)
        podem_span.set(
            n_vectors=len(result.test_set),
            n_redundant=len(result.redundant),
            n_aborted=len(result.aborted),
            n_skipped_untestable=len(result.skipped_untestable),
            n_backtracks=result.backtracks,
        )
    return result
