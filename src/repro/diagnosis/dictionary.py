"""Full-response fault dictionaries and syndrome matching.

Once a chip fails on the tester, the natural follow-up to the paper's flow
is *diagnosis*: which (realistic) defect produced this syndrome?  The
classic tool is a full-response **fault dictionary** — for every modelled
fault, the set of (vector, output) positions at which it fails — matched
against the observed failures.

Realistic faults are diagnosed through **stuck-at surrogates**: a bridge's
syndrome is (per the wired-resolution model) a vector-dependent mix of the
two nets' stuck-at syndromes, so its best dictionary matches are exactly the
stuck-at faults on (or near) the bridged nets.  This is the premise behind
surrogate-based defect diagnosis, and `examples/defect_diagnosis.py`
demonstrates it end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.circuit.netlist import Circuit
from repro.simulation.faults import StuckAtFault, collapse_faults
from repro.simulation.numpy_sim import NumpyFaultSimulator, pack_bitslice

__all__ = ["Syndrome", "Match", "FaultDictionary"]


@dataclass(frozen=True)
class Syndrome:
    """Set of failing (vector index, output index) positions (1-based k)."""

    failures: frozenset[tuple[int, int]]

    @property
    def failing_vectors(self) -> set[int]:
        """Vectors with at least one failing output."""
        return {k for k, _ in self.failures}

    def __len__(self) -> int:
        return len(self.failures)

    def jaccard(self, other: "Syndrome") -> float:
        """Similarity in [0, 1]: |intersection| / |union|."""
        if not self.failures and not other.failures:
            return 1.0
        union = self.failures | other.failures
        if not union:
            return 1.0
        return len(self.failures & other.failures) / len(union)


@dataclass(frozen=True)
class Match:
    """One diagnosis candidate."""

    fault: StuckAtFault
    score: float
    exact: bool


@dataclass
class FaultDictionary:
    """Full-response dictionary for a circuit and a vector sequence."""

    circuit: Circuit
    patterns: list[list[int]]
    faults: list[StuckAtFault] = field(default_factory=list)
    _syndromes: dict[StuckAtFault, Syndrome] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        circuit: Circuit,
        patterns: Sequence[Sequence[int]],
        faults: list[StuckAtFault] | None = None,
    ) -> "FaultDictionary":
        """Simulate every fault against every vector, recording failures."""
        if faults is None:
            faults = collapse_faults(circuit)
        dictionary = cls(
            circuit=circuit,
            patterns=[list(p) for p in patterns],
            faults=list(faults),
        )
        simulator = NumpyFaultSimulator(circuit)
        n_patterns = len(dictionary.patterns)
        good = simulator.good_block(
            pack_bitslice(dictionary.patterns, len(circuit.primary_inputs))
        )
        flips = simulator.po_diff_words(
            good, n_patterns, [(fault,) for fault in faults]
        )
        # Bit k % 64 of word k // 64 is vector k: read the words as
        # little-endian bytes and unpack them least significant bit first.
        bits = np.unpackbits(
            flips.astype("<u8").view(np.uint8), axis=-1, bitorder="little"
        )
        failures: dict[StuckAtFault, set[tuple[int, int]]] = {
            f: set() for f in faults
        }
        for row, po, k in zip(*np.nonzero(bits)):
            failures[faults[row]].add((int(k) + 1, int(po)))
        dictionary._syndromes = {
            f: Syndrome(frozenset(fails)) for f, fails in failures.items()
        }
        return dictionary

    # ------------------------------------------------------------------
    def syndrome_of(self, fault: StuckAtFault) -> Syndrome:
        """The dictionary's stored syndrome for a modelled fault."""
        return self._syndromes[fault]

    def observe(self, responses: Sequence[Sequence[int]]) -> Syndrome:
        """Build the observed syndrome from tester responses.

        ``responses`` holds the device's output row per vector (PO order);
        positions differing from the good machine become failures.
        """
        if len(responses) != len(self.patterns):
            raise ValueError("one response row per applied vector required")
        from repro.simulation.logic_sim import LogicSimulator

        logic = LogicSimulator(self.circuit)
        expected = logic.run_patterns(self.patterns)
        failures = set()
        for k, (got, want) in enumerate(zip(responses, expected), start=1):
            for j, (g_bit, w_bit) in enumerate(zip(got, want)):
                if g_bit != w_bit:
                    failures.add((k, j))
        return Syndrome(frozenset(failures))

    def diagnose(self, observed: Syndrome, top: int = 5) -> list[Match]:
        """Rank modelled faults by syndrome similarity (Jaccard)."""
        matches = [
            Match(
                fault=fault,
                score=observed.jaccard(syndrome),
                exact=observed.failures == syndrome.failures,
            )
            for fault, syndrome in self._syndromes.items()
        ]
        matches.sort(key=lambda m: (-m.score, str(m.fault)))
        return matches[:top]
