"""Proof-carrying redundancy prover: implications + static learning, certificates.

Layered on :mod:`repro.analysis.implication`, this module *proves* stuck-at
faults untestable before any simulation and emits a machine-checkable
certificate for every verdict.  Each fault's premises are refuted in two
phases of increasing power:

* **Fire**: direct implication closure of the premises, a FIRE-style
  screen (``tests/analysis_oracle.py`` keeps an uncertified reference of
  it).  The pipeline takes its untestability screen from this phase.
* **Static learning** (SOCRATES-style): for every net literal ``a=v`` whose
  implication closure contains ``b=w``, the contrapositive ``b=1-w -> a=1-v``
  holds.  When the contrapositive is *not* already derivable by direct
  implication it is recorded as an indirect learned implication, and the
  closure is re-run with that learned base.  Learning runs once per netlist
  and is cached by :func:`netlist_hash`.

**Unique sensitization** rides on the implication engine's dominator
machinery: the side inputs of every dominator of the fault's output cone
must take non-controlling values, and those literals join the premises.

**Certificates**: every verdict serialises the premise set (activation
literal, faulted-gate side pins, dominator side inputs) and the refutation
(implication chains, with case splits over primary inputs inside constant
lemmas) as JSON.  The independent checker in :mod:`repro.analysis.check`,
which knows only gate semantics and netlist structure, re-verifies every
step.  A fault counts as *proved* only when its certificate passes that
check, so a prover bug can never silently delete a testable fault from the
coverage denominator.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.circuit.levelize import levelize
from repro.circuit.netlist import Circuit, Gate
from repro.simulation.faults import FaultSite, StuckAtFault, full_fault_universe

from .check import check_certificate
from .implication import _NONCONTROLLING, ImplicationEngine

__all__ = [
    "CERTIFICATE_VERSION",
    "ProverResult",
    "RedundancyProver",
    "netlist_hash",
    "prove_untestable",
    "static_learning",
]

CERTIFICATE_VERSION = 1

#: A net/value literal.
Lit = tuple[str, int]

#: Learned implications: antecedent literal -> consequent literals.
LearnedMap = dict[Lit, tuple[Lit, ...]]

#: Cap on input-cone PIs enumerated when certifying a constant by splitting.
_CONST_SPLIT_CAP = 12


def netlist_hash(circuit: Circuit) -> str:
    """Canonical sha256 of the netlist structure (gates, PIs, POs)."""
    payload = {
        "inputs": list(circuit.primary_inputs),
        "outputs": list(circuit.primary_outputs),
        "gates": sorted(
            [g.gate_type.value, list(g.inputs), g.output] for g in circuit.gates
        ),
    }
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_STATIC_LEARNING_CACHE: dict[str, LearnedMap] = {}


def static_learning(
    circuit: Circuit, constants: dict[str, int] | None = None
) -> LearnedMap:
    """Indirect implications learned by contrapositive analysis, cached.

    For every non-constant net literal ``(a, v)`` and every consequent
    ``(b, w)`` of its unit closure, the contrapositive ``(b, 1-w) -> (a, 1-v)``
    is a tautology.  Only *indirect* contrapositives — those the direct
    closure of ``(b, 1-w)`` does not already derive — are recorded, which
    keeps the learned base small and every entry informative.

    Learning runs on a private engine, so a caller's engine meters (and
    memoises) the same work whether the per-netlist cache hits or misses.
    """
    key = netlist_hash(circuit)
    cached = _STATIC_LEARNING_CACHE.get(key)
    if cached is not None:
        return cached
    engine = ImplicationEngine(circuit, constants=constants)
    acc: dict[Lit, list[Lit]] = {}
    nets = list(circuit.primary_inputs) + [g.output for g in engine.order]
    for net in nets:
        if net in engine.constants:
            continue
        for v in (0, 1):
            closure = engine.unit_closure(net, v)
            if closure is None:
                continue
            for b, w in closure.items():
                if b == net or b in engine.constants:
                    continue
                back = engine.unit_closure(b, 1 - w)
                if back is None:
                    continue  # (b, 1-w) is itself contradictory
                if back.get(net) == 1 - v:
                    continue  # direct — the closure already knows it
                acc.setdefault((b, 1 - w), []).append((net, 1 - v))
    learned: LearnedMap = {
        ant: tuple(dict.fromkeys(cons)) for ant, cons in acc.items()
    }
    _STATIC_LEARNING_CACHE[key] = learned
    return learned


# ---------------------------------------------------------------------------
# Traced closure
# ---------------------------------------------------------------------------
#: One derivation step: (net, value, kind, data, deps).  ``kind`` is one of
#: "premise" / "constant" / "gate" / "learned"; ``data`` carries the gate
#: name or antecedent literal; ``deps`` are the previously-assigned nets the
#: step's justification read (used for backward slicing).
_Step = tuple[str, int, str, Any, tuple[str, ...]]


@dataclass
class _ClosureResult:
    values: dict[str, int]
    steps: list[_Step]
    conflict: _Step | None


@dataclass
class ProverResult:
    """Outcome of one proof run over a fault universe.

    ``proved`` lists faults in input order; each carries a ``reason``
    (``activation`` / ``unobservable`` / ``observation-conflict``), a
    ``method`` (``fire`` / ``static_learning``) and a checker-validated
    certificate in ``certificates`` (same order as ``proved``).  ``learned``
    is the static learned-implication base, ready to hand to PODEM.
    """

    n_screened: int = 0
    netlist_sha256: str = ""
    proved: list[StuckAtFault] = field(default_factory=list)
    reasons: dict[StuckAtFault, str] = field(default_factory=dict)
    methods: dict[StuckAtFault, str] = field(default_factory=dict)
    certificates: list[dict[str, Any]] = field(default_factory=list)
    by_method: dict[str, int] = field(default_factory=dict)
    certs_failed: int = 0
    work: dict[str, int] = field(default_factory=dict)
    learned: LearnedMap = field(default_factory=dict)

    def __contains__(self, fault: StuckAtFault) -> bool:
        return fault in self.reasons

    @property
    def n_learned(self) -> int:
        return sum(len(cons) for cons in self.learned.values())

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary (certificates excluded — see ``certificates``)."""
        return {
            "n_screened": self.n_screened,
            "n_proved": len(self.proved),
            "netlist_sha256": self.netlist_sha256,
            "by_method": dict(self.by_method),
            "by_reason": _count(self.reasons.values()),
            "n_learned": self.n_learned,
            "certs_failed": self.certs_failed,
            "faults": [str(f) for f in self.proved],
            "work": dict(self.work),
        }


def _count(items: Any) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in items:
        out[item] = out.get(item, 0) + 1
    return out


class RedundancyProver:
    """Stateful prover bound to one circuit.

    Phases per fault, in increasing power and cost: direct implication
    closure of the premises (``fire``), then closure with the static learned
    base (``static_learning``).  Work is metered in :attr:`work` and wall
    seconds per phase (summed over :meth:`prove_fault` calls) in
    :attr:`phase_wall_s`.  Building the learned base, proving every fault
    and checking the certificates run in the spans ``analysis.prover.learn``,
    ``analysis.prover.faults`` and ``analysis.prover.check``.
    """

    def __init__(
        self,
        circuit: Circuit,
        engine: ImplicationEngine | None = None,
        constants: dict[str, int] | None = None,
    ) -> None:
        self.engine = (
            engine
            if engine is not None
            else ImplicationEngine(circuit, constants=constants)
        )
        self.circuit = self.engine.circuit
        self.nhash = netlist_hash(self.circuit)
        with obs.span("analysis.prover.learn", circuit=self.circuit.name):
            self.learned = static_learning(self.circuit, self.engine.constants)
        self.work: dict[str, int] = {"closures": 0, "steps": 0}
        self.phase_wall_s: dict[str, float] = {"fire": 0.0, "static_learning": 0.0}
        self._topo_index: dict[str, int] = {
            g.output: i for i, g in enumerate(levelize(self.circuit))
        }
        self._gate_by_name: dict[str, Gate] = {
            g.name: g for g in self.circuit.gates
        }
        self._constant_lemmas: dict[Lit, dict[str, Any] | None] = {}
        self._learned_lemmas: dict[tuple[Lit, Lit], dict[str, Any] | None] = {}
        self._cone_pi_cache: dict[str, tuple[str, ...]] = {}

    # ------------------------------------------------------------------
    # Traced closure
    # ------------------------------------------------------------------
    def _closure(
        self,
        literals: tuple[Lit, ...],
        use_learned: bool,
        constant_floor: int | None = None,
    ) -> _ClosureResult:
        """Propagate ``literals`` recording every step's justification.

        ``constant_floor`` restricts seeded constants to nets whose
        topological index is strictly below the floor (used when certifying
        a constant without circular reasoning); ``None`` seeds them all.
        """
        self.work["closures"] += 1
        values: dict[str, int] = {}
        steps: list[_Step] = []
        queue: list[str] = []
        conflict: list[_Step | None] = [None]

        def assign(net: str, value: int, kind: str, data: Any) -> bool:
            known = values.get(net)
            if known is None:
                deps = self._deps_for(kind, data, values)
                values[net] = value
                steps.append((net, value, kind, data, deps))
                queue.append(net)
                return True
            if known == value:
                return True
            deps = self._deps_for(kind, data, values)
            conflict[0] = (net, value, kind, data, deps)
            return False

        for cnet, cval in self.engine.constants.items():
            if (
                constant_floor is not None
                and self._topo_index.get(cnet, -1) >= constant_floor
            ):
                continue
            if not assign(cnet, cval, "constant", None):
                return _ClosureResult(values, steps, conflict[0])
        for net, value in literals:
            if not assign(net, value, "premise", None):
                return _ClosureResult(values, steps, conflict[0])

        while queue:
            net = queue.pop()
            if use_learned:
                key = (net, values[net])
                for cons_net, cons_val in self.learned.get(key, ()):
                    if not assign(cons_net, cons_val, "learned", key):
                        return _ClosureResult(values, steps, conflict[0])
            gates = list(self.engine.fanout.get(net, ()))
            driver = self.engine.driver.get(net)
            if driver is not None:
                gates.append(driver)
            for gate in gates:
                self.work["steps"] += 1

                def on_assign(n: str, v: int, _g: Gate = gate) -> bool:
                    return assign(n, v, "gate", _g.name)

                if not self.engine._imply_gate(gate, values, on_assign):
                    return _ClosureResult(values, steps, conflict[0])
        return _ClosureResult(values, steps, None)

    def _deps_for(
        self, kind: str, data: Any, values: dict[str, int]
    ) -> tuple[str, ...]:
        if kind == "gate":
            gate = self._gate_by_name[data]
            return tuple(
                n
                for n in dict.fromkeys((*gate.inputs, gate.output))
                if n in values
            )
        if kind == "learned":
            return (data[0],)
        return ()

    # ------------------------------------------------------------------
    # Certificate emission
    # ------------------------------------------------------------------
    def _chain_node(self, res: _ClosureResult) -> dict[str, Any] | None:
        """Backward-slice a conflicting closure into a chain proof node."""
        conflict = res.conflict
        assert conflict is not None
        needed: set[str] = set(conflict[4]) | {conflict[0]}
        chosen: list[_Step] = []
        for step in reversed(res.steps):
            if step[0] in needed:
                chosen.append(step)
                needed.update(step[4])
        chain: list[dict[str, Any]] = []
        for step in reversed(chosen):
            emitted = self._emit_step(step)
            if emitted is None:
                return None
            chain.append(emitted)
        terminal = self._emit_step(conflict)
        if terminal is None:
            return None
        return {"chain": chain, "conflict": terminal}

    def _emit_step(self, step: _Step) -> dict[str, Any] | None:
        net, value, kind, data, _deps = step
        out: dict[str, Any] = {"assign": [net, value], "by": kind}
        if kind == "gate":
            out["gate"] = data
        elif kind == "constant":
            lemma = self._constant_lemma(net, value)
            if lemma is None:
                return None
            out["proof"] = lemma
        elif kind == "learned":
            sub = self._learned_lemma(data, (net, value))
            if sub is None:
                return None
            out["antecedent"] = [data[0], data[1]]
            out["proof"] = sub
        return out

    def _constant_lemma(self, net: str, value: int) -> dict[str, Any] | None:
        """Certify ``net`` constant ``value`` by refuting ``net = 1-value``.

        The refutation may not assume the constant itself: only constants
        strictly upstream in topological order are seeded (each carrying its
        own recursively-certified lemma), and any remaining freedom is split
        over the net's input-cone primary inputs — for a truth-table constant
        every full support assignment forward-evaluates to ``value``, so the
        split tree always closes.
        """
        key = (net, value)
        if key in self._constant_lemmas:
            return self._constant_lemmas[key]
        self._constant_lemmas[key] = None  # cycle guard
        floor = self._topo_index.get(net, -1)
        candidates = self._cone_pis(net)
        proof: dict[str, Any] | None = None
        if len(candidates) <= _CONST_SPLIT_CAP:
            proof = self._const_split(((net, 1 - value),), floor, candidates)
        else:
            res = self._closure(((net, 1 - value),), False, constant_floor=floor)
            if res.conflict is not None:
                proof = self._chain_node(res)
        self._constant_lemmas[key] = proof
        return proof

    def _cone_pis(self, net: str) -> tuple[str, ...]:
        """Primary inputs in ``net``'s transitive fanin, in PI declaration order."""
        cached = self._cone_pi_cache.get(net)
        if cached is not None:
            return cached
        support: set[str] = set()
        seen: set[str] = set()
        stack = [net]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            driver = self.engine.driver.get(n)
            if driver is None:
                support.add(n)
            else:
                stack.extend(driver.inputs)
        pis = tuple(p for p in self.circuit.primary_inputs if p in support)
        self._cone_pi_cache[net] = pis
        return pis

    def _const_split(
        self, literals: tuple[Lit, ...], floor: int, candidates: tuple[str, ...]
    ) -> dict[str, Any] | None:
        res = self._closure(literals, False, constant_floor=floor)
        if res.conflict is not None:
            return self._chain_node(res)
        for i, pi in enumerate(candidates):
            if pi in res.values:
                continue
            cases: list[dict[str, Any]] = []
            for b in (0, 1):
                node = self._const_split(
                    (*literals, (pi, b)), floor, candidates[i + 1 :]
                )
                if node is None:
                    return None
                cases.append(node)
            return {"split": pi, "cases": cases}
        return None

    def _learned_lemma(self, ant: Lit, cons: Lit) -> dict[str, Any] | None:
        """Certify learned ``ant -> cons``: refute ``{ant, not cons}`` directly."""
        key = (ant, cons)
        if key in self._learned_lemmas:
            return self._learned_lemmas[key]
        self._learned_lemmas[key] = None  # cycle guard
        res = self._closure((ant, (cons[0], 1 - cons[1])), False)
        proof = self._chain_node(res) if res.conflict is not None else None
        self._learned_lemmas[key] = proof
        return proof

    # ------------------------------------------------------------------
    # Per-fault proof
    # ------------------------------------------------------------------
    def _premise_records(
        self, fault: StuckAtFault
    ) -> tuple[list[dict[str, Any]], str] | None:
        """Premise list for ``fault``, or None when it is unobservable."""
        records: list[dict[str, Any]] = [
            {
                "net": fault.net,
                "value": 1 - fault.value,
                "kind": "activation",
            }
        ]
        if fault.site is FaultSite.GATE_INPUT:
            assert fault.gate is not None and fault.pin is not None
            gate = self._gate_by_name[fault.gate]
            nc = _NONCONTROLLING.get(gate.gate_type)
            if nc is not None:
                for pin, side in enumerate(gate.inputs):
                    if pin != fault.pin:
                        records.append(
                            {
                                "net": side,
                                "value": nc,
                                "kind": "side-pin",
                                "gate": gate.name,
                                "pin": pin,
                            }
                        )
            source = gate.output
        else:
            source = fault.net
        reachable, details = self.engine.observation_details(source)
        if not reachable:
            return None
        for dom, side, nc_val in details:
            records.append(
                {
                    "net": side,
                    "value": nc_val,
                    "kind": "dominator",
                    "dominator": dom,
                    "source": source,
                }
            )
        return records, source

    def prove_fault(
        self, fault: StuckAtFault
    ) -> tuple[dict[str, Any], str, str] | None:
        """Prove one fault untestable: (certificate, reason, method) or None."""
        wall = self.phase_wall_s
        t0 = time.perf_counter()
        cert: dict[str, Any] = {
            "version": CERTIFICATE_VERSION,
            "circuit": self.circuit.name,
            "netlist_sha256": self.nhash,
            "fault": {
                "net": fault.net,
                "value": fault.value,
                "site": fault.site.value,
                "gate": fault.gate,
                "pin": fault.pin,
            },
        }
        premised = self._premise_records(fault)
        if premised is None:
            source = (
                self._gate_by_name[fault.gate].output
                if fault.site is FaultSite.GATE_INPUT and fault.gate is not None
                else fault.net
            )
            cert.update(
                reason="unobservable", method="fire", source=source, premises=[]
            )
            wall["fire"] += time.perf_counter() - t0
            return cert, "unobservable", "fire"
        records, _source = premised
        literals = tuple(
            dict.fromkeys((r["net"], r["value"]) for r in records)
        )
        activation = literals[0]

        proof: dict[str, Any] | None = None
        for method, use_learned in (("fire", False), ("static_learning", True)):
            res = self._closure(literals, use_learned)
            if res.conflict is not None:
                proof = self._chain_node(res)
            t1 = time.perf_counter()
            wall[method] += t1 - t0
            t0 = t1
            if proof is not None:
                break
        else:
            return None

        reason = "observation-conflict"
        if len(literals) == 1:
            reason = "activation"
        elif self.engine.unit_closure(*activation) is None:
            reason = "activation"
        cert.update(reason=reason, method=method, premises=records, proof=proof)
        return cert, reason, method

    def prove(
        self, faults: list[StuckAtFault] | None = None
    ) -> ProverResult:
        """Prove over ``faults`` (default: the full universe), checking certs."""
        if faults is None:
            faults = full_fault_universe(self.circuit)
        result = ProverResult(
            n_screened=len(faults),
            netlist_sha256=self.nhash,
            learned=self.learned,
        )
        with obs.span("analysis.prover.faults", n_faults=len(faults)):
            outcomes = [(fault, self.prove_fault(fault)) for fault in faults]
        with obs.span("analysis.prover.check") as check_span:
            for fault, outcome in outcomes:
                if outcome is None:
                    continue
                cert, reason, method = outcome
                verdict = check_certificate(self.circuit, cert)
                if not verdict.ok:
                    result.certs_failed += 1
                    continue
                result.proved.append(fault)
                result.reasons[fault] = reason
                result.methods[fault] = method
                result.certificates.append(cert)
                result.by_method[method] = result.by_method.get(method, 0) + 1
            check_span.set(
                n_certificates=len(result.proved) + result.certs_failed
            )
        result.work = dict(self.work)
        result.work["engine_closures"] = self.engine.stats["closures"]
        result.work["engine_steps"] = self.engine.stats["steps"]
        return result


def prove_untestable(
    circuit: Circuit,
    faults: list[StuckAtFault] | None = None,
    engine: ImplicationEngine | None = None,
    constants: dict[str, int] | None = None,
) -> ProverResult:
    """Prove faults untestable with certificates; the module-level façade.

    Every fault in the result's ``proved`` list carries a certificate that
    the independent checker (:mod:`repro.analysis.check`) has validated —
    unverifiable verdicts are dropped (and counted in ``certs_failed``),
    keeping the proved set sound by construction.
    """
    prover = RedundancyProver(circuit, engine=engine, constants=constants)
    return prover.prove(faults)
