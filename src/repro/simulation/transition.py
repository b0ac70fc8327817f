"""Transition (gate-delay) fault model and simulator.

The paper points to delay-fault testing [Park/Mercer/Williams 1989] as one of
the "more elaborated" techniques needed for zero-defect strategies: many
defects that escape steady-state voltage testing (notably stuck-open
transistors, which behave sequentially) *are* caught by two-pattern delay
tests.  This module provides the classic transition-fault abstraction:

* a **slow-to-rise** fault on net ``n`` is detected by a vector pair
  ``(t_{k-1}, t_k)`` that launches a rising transition on ``n`` (value 0 then
  1) and propagates ``n`` stuck-at-0 behaviour to an output on ``t_k``;
* **slow-to-fall** is the dual.

Detection reuses the stuck-at engine: one detection-table pass of the
stuck-at complements over the whole sequence, ANDed with each net's launch
bitset, so simulating the whole transition universe over the paper's vector
sequence costs about as much as one extra stuck-at fault-simulation pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.circuit.netlist import Circuit
from repro.simulation.faults import StuckAtFault
from repro.simulation.numpy_sim import NumpyFaultSimulator, pack_bitslice

__all__ = ["TransitionFault", "TransitionSimResult", "TransitionFaultSimulator",
           "transition_universe"]


@dataclass(frozen=True)
class TransitionFault:
    """A gross gate-delay fault on one net."""

    net: str
    slow_to: int  # 1 = slow-to-rise, 0 = slow-to-fall

    def __post_init__(self) -> None:
        if self.slow_to not in (0, 1):
            raise ValueError("slow_to must be 0 or 1")

    def __str__(self) -> str:
        kind = "STR" if self.slow_to else "STF"
        return f"{self.net}/{kind}"


def transition_universe(circuit: Circuit) -> list[TransitionFault]:
    """Slow-to-rise and slow-to-fall on every net."""
    faults = []
    for net in circuit.nets:
        faults.append(TransitionFault(net, 1))
        faults.append(TransitionFault(net, 0))
    return faults


@dataclass
class TransitionSimResult:
    """First-detection indices for transition faults.

    Indices are 1-based capture-vector positions; the first vector of a
    sequence can never detect (no launch vector precedes it).
    """

    faults: list[TransitionFault]
    first_detection: dict[TransitionFault, int] = field(default_factory=dict)
    n_patterns: int = 0

    @property
    def coverage(self) -> float:
        """Final transition-fault coverage."""
        if not self.faults:
            return 1.0
        return len(self.first_detection) / len(self.faults)

    def coverage_at(self, k: int) -> float:
        """Coverage after the first ``k`` vectors."""
        if not self.faults:
            return 1.0
        hits = sum(1 for v in self.first_detection.values() if v <= k)
        return hits / len(self.faults)


class TransitionFaultSimulator:
    """Two-pattern (launch/capture) transition-fault simulation."""

    def __init__(self, circuit: Circuit):
        circuit.validate()
        self.circuit = circuit
        self.stuck = NumpyFaultSimulator(circuit)

    def run(
        self,
        patterns: Sequence[Sequence[int]],
        faults: list[TransitionFault] | None = None,
    ) -> TransitionSimResult:
        """Simulate consecutive vector pairs against the transition faults."""
        if faults is None:
            faults = transition_universe(self.circuit)
        result = TransitionSimResult(faults=list(faults), n_patterns=len(patterns))
        if not faults or not patterns:
            return result
        stuck = self.stuck
        good = stuck.good_block(
            pack_bitslice(patterns, len(self.circuit.primary_inputs))
        )
        # Each net's value on the previous vector: every column shifted up
        # one bit, carrying bit 63 of a word into bit 0 of the next.
        previous = good << np.uint64(1)
        previous[1:] |= good[:-1] >> np.uint64(63)
        rises = ~previous & good
        falls = previous & ~good
        # The very first vector has no launch; the 0 shifted in below it
        # would read as a rise.
        rises[0] &= ~np.uint64(1)
        net_id = stuck.logic.net_id
        launch = np.stack(
            [(rises if f.slow_to else falls)[:, net_id[f.net]] for f in faults]
        )
        launched = np.flatnonzero(launch.any(axis=1))
        # A slow transition leaves the old (complement) value in place at
        # capture time: the capture vector must detect stuck-at complement.
        lanes = [
            (StuckAtFault(faults[i].net, 1 - faults[i].slow_to),) for i in launched
        ]
        detected = stuck.detection_words(good, len(patterns), lanes)
        detected &= launch[launched]
        for i, words in zip(launched.tolist(), detected):
            hit_words = np.flatnonzero(words)
            if hit_words.size:
                word = int(hit_words[0])
                value = int(words[word])
                result.first_detection[faults[i]] = (
                    word * 64 + (value & -value).bit_length()
                )
        return result
