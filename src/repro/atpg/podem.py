"""PODEM deterministic test generation for single stuck-at faults.

The paper tops off its random prefix with vectors "deterministically generated
using the FAN algorithm"; this module plays that role with PODEM (Goel 1981),
which shares FAN's objective/backtrace structure.  Implication is a two-channel
(good/faulty) three-valued simulation, event-driven from each decision's
primary input and undone from a trail on backtrack; backtrace is guided by
SCOAP controllability, and an X-path check prunes dead branches early.

The public entry points are :class:`PodemAtpg` for a single fault and
:func:`generate_deterministic_tests` to extend a test set over a fault list
with fault dropping.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping

from repro import obs
from repro.analysis.scoap import ScoapMeasures, compute_scoap
from repro.atpg.patterns import TestSet
from repro.circuit.levelize import levelize
from repro.circuit.library import GateType
from repro.circuit.netlist import Circuit
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

#: Gate evaluation kinds; every gate type is one of these, possibly inverted.
_AND, _OR, _XOR, _BUF = range(4)
_KIND: dict[GateType, tuple[int, bool]] = {
    GateType.AND: (_AND, False),
    GateType.NAND: (_AND, True),
    GateType.OR: (_OR, False),
    GateType.NOR: (_OR, True),
    GateType.XOR: (_XOR, False),
    GateType.XNOR: (_XOR, True),
    GateType.BUF: (_BUF, False),
    GateType.NOT: (_BUF, True),
}
#: Three-valued inversion, indexed by level.
_INV = (ONE, ZERO, X)


def _eval3(kind: int, inverted: bool, values: list[int]) -> int:
    """Three-valued evaluation over {0, 1, X} of a gate of ``kind``."""
    if kind == _AND:
        core = ZERO if ZERO in values else X if X in values else ONE
    elif kind == _OR:
        core = ONE if ONE in values else X if X in values else ZERO
    elif kind == _XOR:
        core = X if X in values else sum(values) & 1
    else:
        core = values[0]
    return _INV[core] if inverted else core


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
    """PODEM test generator bound to one circuit.

    The search works on net indices: the primary inputs first, then the gate
    outputs in :attr:`order` (topological) order, so a gate is identified by
    its output's index and sorting indices sorts gates topologically.
    """

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
        if scoap is None:
            scoap = compute_scoap(circuit)
        self.backtrack_limit = backtrack_limit
        self.learned: dict[tuple[str, int], tuple[tuple[str, int], ...]] = (
            dict(learned) if learned else {}
        )
        #: Cumulative counts over all :meth:`generate` calls: decision points
        #: failed early because learned implications pin the fault site to its
        #: stuck value, D-frontier gates pruned because a learned implication
        #: pins a side input to the controlling value, and gate evaluations
        #: spent on implication.
        self.learned_conflicts = 0
        self.learned_prunes = 0
        self.gate_evals = 0

        self.n_inputs = len(circuit.primary_inputs)
        self.nets = list(circuit.primary_inputs) + [g.output for g in self.order]
        self.index = {net: i for i, net in enumerate(self.nets)}
        index = self.index
        self._gate_by_name = {g.name: g for g in circuit.gates}
        n = len(self.nets)
        self._types: list[GateType | None] = [None] * n
        self._kinds: list[tuple[int, bool]] = [(_BUF, False)] * n
        self._ins: list[tuple[int, ...]] = [()] * n
        readers: list[list[int]] = [[] for _ in range(n)]
        for gate in self.order:
            out = index[gate.output]
            self._types[out] = gate.gate_type
            self._kinds[out] = _KIND[gate.gate_type]
            self._ins[out] = tuple(index[net] for net in gate.inputs)
            for net in dict.fromkeys(self._ins[out]):
                readers[net].append(out)
        self._readers = [tuple(r) for r in readers]
        self._noncontrolling = [
            None if t is None else _noncontrolling_value(t) for t in self._types
        ]
        self._cc0 = [scoap.cc0[net] for net in self.nets]
        self._cc1 = [scoap.cc1[net] for net in self.nets]
        self._pos = frozenset(index[po] for po in circuit.primary_outputs)
        self._learned_idx: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {
            (index[net], value): tuple((index[c], cv) for c, cv in cons)
            for (net, value), cons in self.learned.items()
        }
        self._support_cache: dict[str, tuple[int, ...]] = {}
        self._cone_cache: dict[int, frozenset[int]] = {}

    # ------------------------------------------------------------------
    # Search support
    # ------------------------------------------------------------------
    def _implication(self, fault: StuckAtFault) -> "_Implication":
        """The implication state one search over ``fault`` runs on."""
        return _Implication(self, fault)

    def _x_path_exists(
        self, frontier: list[int], good: list[int], faulty: list[int]
    ) -> bool:
        """True when some D-frontier output can still reach a PO through X nets."""
        pos, readers = self._pos, self._readers
        seen: set[int] = set()
        stack = list(frontier)
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            if net in pos:
                return True
            for out in readers[net]:
                if out not in seen and (good[out] == X or faulty[out] == X):
                    stack.append(out)
        return False

    def _effect_cone(self, source: int) -> frozenset[int]:
        """Nets downstream of the fault effect's origin (inclusive)."""
        cached = self._cone_cache.get(source)
        if cached is None:
            seen = {source}
            stack = [source]
            while stack:
                for out in self._readers[stack.pop()]:
                    if out not in seen:
                        seen.add(out)
                        stack.append(out)
            cached = self._cone_cache[source] = frozenset(seen)
        return cached

    def _prune_frontier(
        self,
        frontier: list[int],
        good: list[int],
        pins: list[int],
        cone: frozenset[int],
    ) -> list[int]:
        """Drop frontier gates a learned pin provably blocks.

        A gate cannot propagate the effect when a side input outside the
        fault's output cone (so its faulty value always equals its good
        value) is still X but pinned to the gate's controlling value: every
        completion controls the gate identically in both channels.
        """
        kept = []
        for gate in frontier:
            noncontrolling = self._noncontrolling[gate]
            blocked = noncontrolling is not None and any(
                good[n] == X and n not in cone and pins[n] == 1 - noncontrolling
                for n in self._ins[gate]
            )
            if blocked:
                self.learned_prunes += 1
            else:
                kept.append(gate)
        return kept

    def _objective(
        self, site: int, stuck: int, good: list[int], frontier: list[int]
    ) -> tuple[int, int] | None:
        if good[site] == X:
            return site, 1 - stuck
        if not frontier:
            return None
        cc0, cc1 = self._cc0, self._cc1
        frontier.sort(key=lambda gate: cc0[gate] + cc1[gate])
        for gate in frontier:
            noncontrolling = self._noncontrolling[gate]
            for net in self._ins[gate]:
                if good[net] == X:
                    return net, noncontrolling if noncontrolling is not None else ZERO
        return None

    def _backtrace(
        self, net: int, value: int, good: list[int]
    ) -> tuple[int, int] | None:
        """Walk the objective back to an unassigned primary input."""
        cc0, cc1 = self._cc0, self._cc1
        for _ in range(10 * (len(self.order) + 1)):
            gt = self._types[net]
            if gt is None:  # primary input
                return (net, value) if good[net] == X else None
            inverted = gt in (GateType.NAND, GateType.NOR, GateType.NOT, GateType.XNOR)
            core = value ^ 1 if inverted else value
            ins = self._ins[net]
            x_inputs = [n for n in ins if good[n] == X]
            if not x_inputs:
                return None
            if gt in (GateType.NOT, GateType.BUF):
                net, value = ins[0], core
                continue
            if gt in (GateType.XOR, GateType.XNOR):
                # Pick the easiest X input; target parity of core against the
                # definite inputs, defaulting to core when others are X.
                parity = 0
                for n in ins:
                    if good[n] != X:
                        parity ^= good[n]
                target = core ^ parity if len(x_inputs) == 1 else core
                net = min(x_inputs, key=lambda n: min(cc0[n], cc1[n]))
                value = target
                continue
            controlling = ZERO if gt in (GateType.AND, GateType.NAND) else ONE
            if core == controlling:
                # One input at the controlling value suffices: easiest first.
                cc = cc0 if controlling == ZERO else cc1
                net = min(x_inputs, key=cc.__getitem__)
                value = controlling
            else:
                # All inputs must be non-controlling: hardest first.
                cc = cc1 if controlling == ZERO else cc0
                net = max(x_inputs, key=cc.__getitem__)
                value = 1 - controlling
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
        state = self._implication(fault)
        good, faulty, pins = state.good, state.faulty, state.pins
        site = state.site
        decisions: list[tuple[int, int, bool]] = []  # (pi, value, tried_both)
        backtracks = 0
        cone = (
            self._effect_cone(state.pin_gate if state.pin_gate >= 0 else site)
            if pins is not None
            else frozenset()
        )

        while True:
            if not state.d_nets.isdisjoint(self._pos):
                return AtpgOutcome(
                    AtpgStatus.TESTED,
                    self._complete_pattern(state.assignment, fill),
                    backtracks,
                )

            failed = False
            frontier: list[int] = []
            site_value = good[site]
            if site_value != X and site_value == fault.value:
                failed = True  # activation impossible under this assignment
            elif site_value == X and pins is not None and pins[site] == fault.value:
                # Learned implications pin the site to its stuck value in
                # every completion of this assignment: activation impossible.
                self.learned_conflicts += 1
                failed = True
            else:
                frontier = state.d_frontier()
                if pins is not None and frontier:
                    frontier = self._prune_frontier(frontier, good, pins, cone)
                activated = site_value != X
                if activated and not frontier:
                    failed = True
                elif frontier and not self._x_path_exists(frontier, good, faulty):
                    failed = True

            if not failed:
                step = None
                objective = self._objective(site, fault.value, good, frontier)
                if objective is not None:
                    step = self._backtrace(objective[0], objective[1], good)
                if step is None:
                    # Heuristic dead-end (e.g. the frontier's side inputs are
                    # X only in the faulty channel).  That is NOT a proof of
                    # failure — fall back to deciding any unassigned primary
                    # input of the fault's support cone, keeping REDUNDANT
                    # verdicts sound.
                    step = self._fallback_decision(fault, state.assignment)
                if step is None:
                    failed = True  # support exhausted: genuinely dead
                else:
                    pi, value = step
                    state.decide(pi, value)
                    decisions.append((pi, value, False))
                    continue

            # Backtrack: flip the most recent single-tried decision.
            backtracks += 1
            if backtracks > self.backtrack_limit:
                return AtpgOutcome(AtpgStatus.ABORTED, None, backtracks)
            while decisions:
                pi, value, tried_both = decisions.pop()
                state.undo()
                if tried_both:
                    continue
                state.decide(pi, 1 - value)
                decisions.append((pi, 1 - value, True))
                break
            else:
                return AtpgOutcome(AtpgStatus.REDUNDANT, None, backtracks)

    def _fallback_decision(
        self, fault: StuckAtFault, assignment: dict[int, int]
    ) -> tuple[int, int] | None:
        """Next unassigned PI in the fault's support cone, or None.

        The support cone — every PI that can influence the fault's activation
        or observation — is the sound decision universe: exhausting it proves
        redundancy.
        """
        for pi in self._support(fault.net):
            if pi not in assignment:
                return pi, ZERO
        return None

    def _support(self, net: str) -> tuple[int, ...]:
        cached = self._support_cache.get(net)
        if cached is not None:
            return cached
        from repro.circuit.levelize import input_cone, output_cone

        pis = set(self.circuit.primary_inputs)
        support: set[str] = set()
        for downstream in output_cone(self.circuit, net):
            support.update(input_cone(self.circuit, downstream) & pis)
        ordered = tuple(
            i for i, pi in enumerate(self.circuit.primary_inputs) if pi in support
        )
        self._support_cache[net] = ordered
        return ordered

    def _complete_pattern(
        self, assignment: dict[int, int], fill: int | None
    ) -> list[int]:
        fill_value = 0 if fill is None else fill
        return [assignment.get(pi, fill_value) for pi in range(self.n_inputs)]


class _Implication:
    """Good and faulty values of one search, kept current by events.

    Each decision opens a level: the primary input's value is propagated
    over its fanout in topological order, re-evaluating only gates whose
    inputs changed, and every net it changes goes on a trail.  :meth:`undo`
    pops the last level off the trail, restoring the values below it
    exactly.  ``d_nets`` (nets whose good and faulty values are definite and
    differ) and, with learned implications, ``pins`` (the good-channel
    values every completion of the assignment forces) are kept the same way.
    """

    def __init__(self, atpg: PodemAtpg, fault: StuckAtFault) -> None:
        self.atpg = atpg
        n = len(atpg.nets)
        self.good = [X] * n
        self.faulty = [X] * n
        self.pins: list[int] | None = [X] * n if atpg._learned_idx else None
        self.assignment: dict[int, int] = {}
        self.d_nets: set[int] = set()
        self.site = atpg.index[fault.net]
        self.stuck = fault.value
        #: The faulted gate's output and pin for a pin fault, else -1.
        self.pin_gate = self.pin = -1
        #: The stuck net for a net fault, else -1.
        self.net_site = -1
        self._trail: list[tuple[int, int, int]] = []  # (net, old good, old faulty)
        self._pin_trail: list[int] = []
        self._levels: list[tuple[int, int, int]] = []  # (pi, trail, pin trail)
        if fault.site is FaultSite.GATE_INPUT:
            assert fault.gate is not None and fault.pin is not None
            self.pin_gate = atpg.index[atpg._gate_by_name[fault.gate].output]
            self.pin = fault.pin
            self._propagate([self.pin_gate])
        else:
            self.net_site = self.site
            self._set(self.site, X, fault.value)
            self._propagate(atpg._readers[self.site])
        self._trail.clear()  # the fault's own effects are never undone

    def _set(self, net: int, good: int, faulty: int) -> None:
        self._trail.append((net, self.good[net], self.faulty[net]))
        self.good[net] = good
        self.faulty[net] = faulty
        if good ^ faulty == 1:  # both definite and different
            self.d_nets.add(net)
        else:
            self.d_nets.discard(net)

    def _propagate(self, seeds: Iterable[int]) -> None:
        """Re-evaluate ``seeds`` and, in topological order, whatever changes."""
        atpg = self.atpg
        good, faulty = self.good, self.faulty
        kinds, ins_of, readers = atpg._kinds, atpg._ins, atpg._readers
        heap = list(seeds)
        heapq.heapify(heap)
        queued = set(heap)
        evals = 0
        while heap:
            out = heapq.heappop(heap)
            kind, inverted = kinds[out]
            ins = ins_of[out]
            g_vals = [good[n] for n in ins]
            f_vals = [faulty[n] for n in ins]
            if out == self.pin_gate:
                f_vals[self.pin] = self.stuck
            g_out = _eval3(kind, inverted, g_vals)
            if out == self.net_site:
                f_out = self.stuck
            elif f_vals == g_vals:
                f_out = g_out
            else:
                f_out = _eval3(kind, inverted, f_vals)
            evals += 1
            if g_out != good[out] or f_out != faulty[out]:
                self._set(out, g_out, f_out)
                for reader in readers[out]:
                    if reader not in queued:
                        queued.add(reader)
                        heapq.heappush(heap, reader)
        atpg.gate_evals += evals

    def decide(self, pi: int, value: int) -> None:
        """Assign primary input ``pi`` and imply it, as a new level."""
        mark = len(self._trail)
        self._levels.append((pi, mark, len(self._pin_trail)))
        self.assignment[pi] = value
        self._set(pi, value, self.stuck if pi == self.net_site else value)
        self._propagate(self.atpg._readers[pi])
        if self.pins is not None:
            # Within a level good values only go from X to definite.
            self._close_pins([net for net, _, _ in self._trail[mark:]])

    def undo(self) -> None:
        """Retract the most recent decision and everything it implied."""
        pi, mark, pin_mark = self._levels.pop()
        del self.assignment[pi]
        good, faulty, d_nets, trail = self.good, self.faulty, self.d_nets, self._trail
        while len(trail) > mark:
            net, g, f = trail.pop()
            good[net] = g
            faulty[net] = f
            if g ^ f == 1:
                d_nets.add(net)
            else:
                d_nets.discard(net)
        if self.pins is not None:
            pins, pin_trail = self.pins, self._pin_trail
            while len(pin_trail) > pin_mark:
                pins[pin_trail.pop()] = X

    def _close_pins(self, changed: list[int]) -> None:
        """Extend ``pins`` by newly definite good values, to a fixpoint.

        Every learned implication is a tautology of the fault-free circuit,
        so once ``net=v`` is determined in the good channel, every completion
        of the assignment also satisfies its consequents, and everything
        those force through the gates.  The fixpoint of learned consequents
        and three-valued forward evaluation is unique, so extending the
        previous level's pins by the new good values reaches the same
        fixpoint as closing from scratch.
        """
        atpg = self.atpg
        good, pins, trail = self.good, self.pins, self._pin_trail
        assert pins is not None
        learned, readers = atpg._learned_idx, atpg._readers
        kinds, ins_of = atpg._kinds, atpg._ins
        stack = []
        for net in changed:
            if good[net] != X and pins[net] == X:
                pins[net] = good[net]
                trail.append(net)
                stack.append(net)
        while stack:
            net = stack.pop()
            for c_net, c_value in learned.get((net, pins[net]), ()):
                if pins[c_net] == X:
                    pins[c_net] = c_value
                    trail.append(c_net)
                    stack.append(c_net)
            for out in readers[net]:
                if pins[out] != X:
                    continue
                kind, inverted = kinds[out]
                value = _eval3(kind, inverted, [pins[n] for n in ins_of[out]])
                if value != X:
                    pins[out] = value
                    trail.append(out)
                    stack.append(out)

    def d_frontier(self) -> list[int]:
        """Gates with a fault effect on an input and X on their output.

        For a pin fault the discrepancy originates *inside* the faulted gate
        (the net itself is healthy), so the gate joins the frontier as soon
        as the pin's net carries the activating value.
        """
        good, faulty, readers = self.good, self.faulty, self.atpg._readers
        gates = {
            out
            for net in self.d_nets
            for out in readers[net]
            if good[out] == X or faulty[out] == X
        }
        gate = self.pin_gate
        if (
            gate >= 0
            and good[self.site] == 1 - self.stuck
            and (good[gate] == X or faulty[gate] == X)
        ):
            gates.add(gate)
        return sorted(gates)


def _noncontrolling_value(gate_type: GateType) -> int | None:
    if gate_type in (GateType.AND, GateType.NAND):
        return ONE
    if gate_type in (GateType.OR, GateType.NOR):
        return ZERO
    return None  # XOR family and single-input gates have no controlling value


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
    undetectable by the redundancy prover — are recorded in
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
    with obs.span("atpg.podem", n_targets=len(remaining)) as podem_span:
        while remaining:
            target = remaining.pop(0)
            outcome = atpg.generate(target, fill=fill)
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
        obs.inc("podem.gate_evals", atpg.gate_evals)
        podem_span.set(
            n_vectors=len(result.test_set),
            n_redundant=len(result.redundant),
            n_aborted=len(result.aborted),
            n_skipped_untestable=len(result.skipped_untestable),
            n_backtracks=result.backtracks,
        )
    return result
