"""Stuck-at fault-simulation results and the shared output-cone index.

:class:`FaultSimResult` is what a stuck-at fault simulation returns: each
fault's *first-detection index*, which is exactly what the paper's ``T(k)``
coverage-growth curves are built from, plus its *detection count* over the
simulated horizon, the per-fault n-detection telemetry that
Pomeranz-&-Reddy-style analyses consume downstream.

:class:`ConeIndex` restricts faulty-machine work to output cones: reader
adjacency over dense net ids, a lazy per-net cone memo, and the gate-name and
driver-gate lookups.  The engine that uses both is
:class:`repro.simulation.numpy_sim.NumpyFaultSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulation.faults import StuckAtFault
from repro.simulation.logic_sim import LogicSimulator

__all__ = ["ConeIndex", "FaultSimResult"]


@dataclass
class FaultSimResult:
    """Outcome of a fault-simulation run.

    Attributes
    ----------
    faults:
        The simulated fault list (universe for the coverage denominator).
    first_detection:
        Fault -> 1-based index of the first detecting vector.  Faults absent
        from the map were never detected by the applied sequence.
    detection_counts:
        Fault -> number of detecting vectors seen while the fault was being
        simulated.  With fault dropping (the default) a fault leaves the
        active list after its first detecting *group* of packed vectors, so
        the count is a lower bound covering that horizon; with
        ``drop_detected=False`` it is exact over the whole sequence.
    n_patterns:
        Number of vectors applied.
    """

    faults: list[StuckAtFault]
    first_detection: dict[StuckAtFault, int]
    n_patterns: int = 0
    detection_counts: dict[StuckAtFault, int] = field(default_factory=dict)

    @property
    def detected(self) -> list[StuckAtFault]:
        """Faults detected at least once, in universe order."""
        return [f for f in self.faults if f in self.first_detection]

    @property
    def undetected(self) -> list[StuckAtFault]:
        """Faults never detected."""
        return [f for f in self.faults if f not in self.first_detection]

    @property
    def coverage(self) -> float:
        """Final fault coverage T = detected / total."""
        if not self.faults:
            return 1.0
        return len(self.first_detection) / len(self.faults)

    def coverage_at(self, k: int) -> float:
        """Fault coverage after the first ``k`` vectors."""
        if not self.faults:
            return 1.0
        hits = sum(1 for idx in self.first_detection.values() if idx <= k)
        return hits / len(self.faults)

    def coverage_curve(self) -> list[tuple[int, float]]:
        """``(k, T(k))`` points at every k where coverage changed.

        Single sorted pass over the first-detection indices: O(F log F)
        rather than one O(F) ``coverage_at`` scan per change point.
        """
        if not self.faults:
            return []
        total = len(self.faults)
        counts: dict[int, int] = {}
        for idx in self.first_detection.values():
            counts[idx] = counts.get(idx, 0) + 1
        curve: list[tuple[int, float]] = []
        cumulative = 0
        for k in sorted(counts):
            cumulative += counts[k]
            curve.append((k, cumulative / total))
        return curve

    def detections_of(self, fault: StuckAtFault) -> int:
        """Number of detecting vectors recorded for ``fault`` (0 if never)."""
        return self.detection_counts.get(fault, 0)

    def detected_n_times(self, n: int) -> list[StuckAtFault]:
        """Faults with at least ``n`` recorded detections, in universe order.

        The n-detection fault set of Pomeranz & Reddy: faults a sequence
        detects many times are the ones whose surrogate coverage of
        unmodelled defects is trustworthy.
        """
        return [f for f in self.faults if self.detection_counts.get(f, 0) >= n]

    def n_detection_coverage(self, n: int) -> float:
        """Fraction of the universe detected at least ``n`` times."""
        if not self.faults:
            return 1.0
        return len(self.detected_n_times(n)) / len(self.faults)


@dataclass
class _Cone:
    """Memoised output cone of one net, over the dense net-id space."""

    gate_idx: list[int]        # compiled gate indices in topological order
    po_ids: list[int]          # primary-output ids inside the cone


class ConeIndex:
    """Lazy, memoised output-cone extraction over a compiled logic program.

    The fault simulator restricts faulty-machine work to output cones and
    orders faults cheapest-cone-first; this index owns the pieces it needs:
    reader adjacency over dense net ids, the per-net cone BFS memo, and the
    gate-name / driver-gate lookup tables.
    """

    def __init__(self, logic: LogicSimulator) -> None:
        self.logic = logic
        # Reader adjacency over net ids: net id -> compiled gate indices
        # reading it.  O(edges) once; cone extraction BFS runs over this.
        readers: list[list[int]] = [[] for _ in range(logic.n_nets)]
        for gi, ids in enumerate(logic.in_ids):
            for nid in ids:
                readers[nid].append(gi)
        self.readers = readers
        self.gate_index: dict[str, int] = {gate.name: i for i, gate in enumerate(logic.order)}
        self.driver_gate: dict[int, int] = {
            out: i for i, out in enumerate(logic.out_ids)
        }
        self._cones: dict[int, _Cone] = {}

    def cone(self, nid: int) -> _Cone:
        """The (memoised) compiled output cone of net id ``nid``."""
        cone = self._cones.get(nid)
        if cone is not None:
            return cone
        logic = self.logic
        readers = self.readers
        out_ids = logic.out_ids
        seen = {nid}
        gates: set[int] = set()
        stack = [nid]
        while stack:
            current = stack.pop()
            for gi in readers[current]:
                if gi not in gates:
                    gates.add(gi)
                    out = out_ids[gi]
                    if out not in seen:
                        seen.add(out)
                        stack.append(out)
        cone = _Cone(
            gate_idx=sorted(gates),
            po_ids=[po for po in logic.po_ids if po in seen],
        )
        self._cones[nid] = cone
        return cone

    def fault_cone(self, fault: StuckAtFault) -> _Cone:
        """The output cone of ``fault``'s net."""
        return self.cone(self.logic.net_id[fault.net])
