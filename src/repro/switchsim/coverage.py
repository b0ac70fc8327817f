"""Coverage bookkeeping for realistic (layout-extracted) faults.

Builds the paper's three per-vector curves from a switch-level simulation:

* ``theta(k)`` — the **weighted** realistic fault coverage (eq. 6): detected
  weight over total weight after ``k`` vectors;
* ``Gamma(k)`` — the same fault set counted with **equal likelihood** (the
  paper's non-weighted control);
* the companion defect-level series ``DL(theta(k)) = 1 - Y**(1 - theta(k))``
  lives in :mod:`repro.core.defect_level` and is assembled by the experiment
  pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.defects.fault_types import (
    FaultList,
    RealisticFault,
    TransistorGateOpen,
    TransistorStuckOpen,
)
from repro.switchsim.simulator import SwitchSimResult

__all__ = [
    "TECHNIQUES",
    "CoverageCurves",
    "build_coverage",
    "delay_screen_detections",
]

#: Detection techniques :func:`build_coverage` accepts, pipeline default first.
TECHNIQUES = ("voltage", "voltage-strict", "iddq", "either")


@dataclass
class CoverageCurves:
    """theta(k) and Gamma(k) evaluated over a vector sequence."""

    n_patterns: int
    total_weight: float
    #: Per-fault (weight, first-detection-or-None) pairs.
    records: list[tuple[float, int | None]]

    def theta_at(self, k: int) -> float:
        """Weighted realistic coverage after k vectors (eq. 6)."""
        if self.total_weight <= 0:
            return 1.0
        hit = sum(w for w, first in self.records if first is not None and first <= k)
        return hit / self.total_weight

    def gamma_at(self, k: int) -> float:
        """Unweighted realistic coverage after k vectors."""
        if not self.records:
            return 1.0
        hit = sum(1 for _, first in self.records if first is not None and first <= k)
        return hit / len(self.records)

    @property
    def theta_max(self) -> float:
        """Final weighted coverage — the saturation level of theta(k)."""
        return self.theta_at(self.n_patterns)

    @property
    def gamma_max(self) -> float:
        """Final unweighted coverage."""
        return self.gamma_at(self.n_patterns)

    def curve(self, ks: list[int] | None = None) -> list[tuple[int, float, float]]:
        """(k, theta(k), Gamma(k)) rows at the requested vector counts."""
        if ks is None:
            ks = sorted(
                {first for _, first in self.records if first is not None}
                | {self.n_patterns}
            )
        return [(k, self.theta_at(k), self.gamma_at(k)) for k in ks]


def delay_screen_detections(
    faults: FaultList | list[RealisticFault],
    design,
    patterns,
) -> dict[int, int]:
    """First-detection indices of a two-pattern **delay screen**.

    A stuck-open (or floating-gate) device turns its cell into a gross
    gate-delay fault on the cell output; a transition test on that net
    catches it.  Returns ``id(fault) -> first capture vector`` for the
    faults the screen reaches — combine with a voltage map for the paper's
    "delay tests must become part of the production routine" analysis
    (see ``examples/zero_defect_strategy.py``).
    """
    from repro.simulation.transition import (
        TransitionFault,
        TransitionFaultSimulator,
    )

    simulator = TransitionFaultSimulator(design.mapped)
    result = simulator.run(patterns)
    output_of = {g.name: g.output for g in design.mapped.gates}

    detections: dict[int, int] = {}
    for fault in faults:
        if isinstance(fault, TransistorStuckOpen):
            devices = fault.transistors
        elif isinstance(fault, TransistorGateOpen):
            devices = (fault.transistor,)
        else:
            continue
        firsts = []
        for device in devices:
            out = output_of.get(device.rsplit(".", 1)[0])
            if out is None:
                continue
            for slow_to in (0, 1):
                k = result.first_detection.get(TransitionFault(out, slow_to))
                if k is not None:
                    firsts.append(k)
        if firsts:
            detections[id(fault)] = min(firsts)
    return detections


def build_coverage(
    faults: FaultList | list[RealisticFault],
    result: SwitchSimResult,
    technique: str = "voltage",
) -> CoverageCurves:
    """Assemble coverage curves from a simulation result.

    ``technique`` selects the detection map:

    * ``"voltage"`` — potential voltage detection (an X reaching a sensitised
      output counts), the convention of the paper's era of switch-level
      simulators and the pipeline default;
    * ``"voltage-strict"`` — only guaranteed logic flips count;
    * ``"iddq"`` — quiescent-current testing;
    * ``"either"`` — voltage or IDDQ, whichever comes first.
    """
    if technique not in TECHNIQUES:
        raise ValueError(
            f"unknown technique {technique!r}; expected one of {TECHNIQUES}"
        )
    fault_list = list(faults)
    records: list[tuple[float, int | None]] = []
    for fault in fault_list:
        k_v = result.detected_potential(fault)
        k_s = result.detected_voltage(fault)
        k_i = result.detected_iddq(fault)
        if technique == "voltage":
            first = k_v
        elif technique == "voltage-strict":
            first = k_s
        elif technique == "iddq":
            first = k_i
        else:  # "either"
            candidates = [k for k in (k_v, k_i) if k is not None]
            first = min(candidates) if candidates else None
        records.append((fault.weight, first))
    return CoverageCurves(
        n_patterns=result.n_patterns,
        total_weight=sum(w for w, _ in records),
        records=records,
    )
