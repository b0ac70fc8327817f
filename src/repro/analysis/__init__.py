"""Static netlist analysis: lint, SCOAP testability, redundancy proofs.

The analysis subsystem runs *before* any simulation or ATPG, over structure
alone:

* :mod:`repro.analysis.lint` — structural linter with typed findings
  (cycles, undriven/multi-driven nets, dangling logic, constants, fanout).
* :mod:`repro.analysis.scoap` — SCOAP CC0/CC1/CO testability measures.
* :mod:`repro.analysis.implication` — constant propagation,
  direct-implication closure and dominator observation requirements.
* :mod:`repro.analysis.prover` — proof-carrying redundancy prover (direct
  implications, static learning, unique sensitization) whose verdicts carry
  JSON certificates, each re-verified by the independent checker in
  :mod:`repro.analysis.check`.
* :mod:`repro.analysis.collapse` — dominance fault collapsing layered on the
  equivalence collapsing of :mod:`repro.simulation.faults`.

:func:`analyze_circuit` bundles the passes into one :class:`AnalysisResult`
and is what the experiment pipeline and the ``python -m repro analyze`` CLI
call.  Each pass runs inside an observability span (``analysis.lint``,
``analysis.scoap``, then ``analysis.prover``)
with counters for findings and untestable faults, so analysis cost shows up
in ``--profile`` output next to simulation and ATPG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.analysis.collapse import DominanceResult, dominance_collapse
from repro.analysis.implication import (
    ImplicationEngine,
    UntestabilityReport,
    propagate_constants,
)
from repro.analysis.lint import (
    HIGH_FANOUT_THRESHOLD,
    LintFinding,
    LintReport,
    Severity,
    lint_circuit,
)
from repro.analysis.prover import (
    ProverResult,
    RedundancyProver,
    netlist_hash,
    prove_untestable,
    static_learning,
)
from repro.analysis.scoap import UNOBSERVABLE, ScoapMeasures, compute_scoap
from repro.circuit.netlist import Circuit
from repro.simulation.faults import StuckAtFault, full_fault_universe

__all__ = [
    "AnalysisResult",
    "analyze_circuit",
    # lint
    "HIGH_FANOUT_THRESHOLD",
    "LintFinding",
    "LintReport",
    "Severity",
    "lint_circuit",
    # scoap
    "UNOBSERVABLE",
    "ScoapMeasures",
    "compute_scoap",
    # implications
    "ImplicationEngine",
    "UntestabilityReport",
    "propagate_constants",
    # prover
    "ProverResult",
    "RedundancyProver",
    "netlist_hash",
    "prove_untestable",
    "static_learning",
    # collapsing
    "DominanceResult",
    "dominance_collapse",
]


@dataclass
class AnalysisResult:
    """Everything one static-analysis pass learned about a circuit.

    Attributes
    ----------
    circuit:
        Name of the analyzed circuit.
    lint:
        The structural lint report (always present).
    scoap:
        SCOAP measures, or None when the circuit has ERROR findings (no
        topological order exists to compute them over).
    untestable:
        The faults the prover's ``fire`` phase (direct implications) proved
        untestable, or None in quick mode / on broken circuits.
    prover:
        The redundancy prover's result, or None in quick mode / on broken
        circuits.
    """

    circuit: str
    lint: LintReport
    scoap: ScoapMeasures | None = None
    untestable: UntestabilityReport | None = None
    prover: ProverResult | None = None
    _untestable_set: frozenset[StuckAtFault] = field(
        default=frozenset(), repr=False
    )

    @property
    def ok(self) -> bool:
        """True when the circuit has no ERROR-severity lint findings."""
        return not self.lint.errors

    def untestable_faults(self) -> list[StuckAtFault]:
        """Faults proved untestable: the fire phase first, then the rest."""
        if self.untestable is None or self.prover is None:
            return []
        fired = list(self.untestable.untestable)
        return fired + [f for f in self.prover.proved if f not in self.untestable]

    def screen(self, faults: list[StuckAtFault]) -> list[StuckAtFault]:
        """``faults`` minus the statically-proved-untestable ones."""
        if not self._untestable_set:
            return list(faults)
        return [f for f in faults if f not in self._untestable_set]

    def to_dict(self) -> dict[str, object]:
        """JSON-able summary (lint report, SCOAP table, untestable faults)."""
        out: dict[str, object] = {
            "circuit": self.circuit,
            "ok": self.ok,
            "lint": self.lint.to_dict(),
        }
        if self.scoap is not None:
            out["scoap"] = self.scoap.to_dict()
            out["hardest_nets"] = [
                {"net": net, "testability": score}
                for net, score in self.scoap.hardest_nets()
            ]
        if self.untestable is not None:
            out["untestable"] = {
                "n_screened": self.untestable.n_screened,
                "n_untestable": len(self.untestable.untestable),
                "faults": [
                    {"fault": str(f), "reason": self.untestable.reasons[f]}
                    for f in self.untestable.untestable
                ],
                "work": dict(self.untestable.work),
            }
        if self.prover is not None:
            out["prover"] = self.prover.to_dict()
        return out


def analyze_circuit(
    circuit: Circuit,
    faults: list[StuckAtFault] | None = None,
    quick: bool = False,
    prove: bool = True,
    prover_depth: int | None = None,
) -> AnalysisResult:
    """Run the static-analysis passes over ``circuit``.

    Lint always runs and never raises.  SCOAP and the redundancy prover need
    a structurally valid circuit and are skipped (left ``None``) when lint
    reports ERROR findings.  ``quick=True`` also skips the prover — the most
    expensive pass — which is what CI's lint step uses.  ``faults`` limits
    the screened universe (default: the full universe).

    The proof-carrying redundancy prover runs direct implications (its
    ``fire`` phase, reported as ``result.untestable``), then static
    learning, with every verdict certified and re-checked by
    :mod:`repro.analysis.check`.  The proved set feeds
    :meth:`AnalysisResult.screen`, and the learned implications in
    ``result.prover.learned`` are ready to hand to PODEM.

    ``prove`` and ``prover_depth`` are ignored.  The prover always runs
    now, and has no recursive learning left to bound; both stay accepted
    so older callers such as ``perfbench/pick_seeds.py`` keep working.
    """
    with obs.span("analysis.lint", circuit=circuit.name):
        lint = lint_circuit(circuit)
        obs.inc("analysis.lint_findings", len(lint.findings))

    result = AnalysisResult(circuit=circuit.name, lint=lint)
    if lint.errors:
        return result

    with obs.span("analysis.scoap", circuit=circuit.name):
        result.scoap = compute_scoap(circuit)

    if quick:
        return result

    universe = faults if faults is not None else full_fault_universe(circuit)
    with obs.span(
        "analysis.prover", circuit=circuit.name, n_screened=len(universe)
    ):
        prover = RedundancyProver(circuit, constants=lint.constants)
        proved = prover.prove(universe)
        result.prover = proved
        fired = [f for f in proved.proved if proved.methods[f] == "fire"]
        result.untestable = UntestabilityReport(
            n_screened=len(universe),
            untestable=fired,
            reasons={f: proved.reasons[f] for f in fired},
            work=dict(prover.engine.stats),
        )
        obs.inc("analysis.untestable_faults", len(fired))
        obs.inc("analysis.proved_faults", len(proved.proved))
        if obs.is_enabled():
            for method, count in proved.by_method.items():
                obs.inc(f"analysis.proved.{method}", count)
            for key, count in proved.work.items():
                obs.inc(f"analysis.prover.{key}", count)
            for phase, seconds in prover.phase_wall_s.items():
                obs.set_gauge(f"analysis.prover.wall_s.{phase}", seconds)
    result._untestable_set = frozenset(proved.proved)
    return result
